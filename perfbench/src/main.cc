// psk_perfbench: runs one benchmark workload and prints its metrics.
//
//   psk_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out PATH]
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 measures the end-to-end metrics; --trace 1 replays the
// pipeline call by call and reports per-layer metrics, writing its spans to
// --trace-out when given. Every timed loop runs at least once, so
// --seconds 1 is a short run on the full-size inputs. Any unknown flag or
// malformed value prints the usage to stderr and exits 2 before anything
// runs or is written.

#include <charconv>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "psk/common/json_writer.h"
#include "workloads.h"

namespace {

constexpr int kUsageError = 2;

int Usage(const std::string& problem) {
  std::string names;
  for (const std::string& name : perfbench::WorkloadNames()) {
    names += (names.empty() ? "" : "|") + name;
  }
  std::cerr << "psk_perfbench: " << problem << "\n"
            << "usage: psk_perfbench --workload " << names
            << " --seed N --seconds S --trace 0|1 [--trace-out PATH]\n";
  return kUsageError;
}

/// Whole decimal number in [lo, hi]; the whole text must parse.
bool ParseUint(std::string_view text, uint64_t lo, uint64_t hi,
               uint64_t* out) {
  if (text.empty()) return false;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && end == text.data() + text.size() && *out >= lo &&
         *out <= hi;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  std::vector<std::string_view> args(argv + 1, argv + argc);
  for (size_t i = 0; i < args.size(); ++i) {
    std::string_view flag = args[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--trace-out") {
      return Usage("unknown argument '" + std::string(flag) + "'");
    }
    if (i + 1 >= args.size()) {
      return Usage("missing value for " + std::string(flag));
    }
    std::string_view value = args[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = std::string(value);
      have_workload = true;
      bool known = false;
      for (const std::string& name : perfbench::WorkloadNames()) {
        known = known || name == value;
      }
      if (!known) return Usage("unknown workload '" + options.workload + "'");
    } else if (flag == "--seed") {
      if (!ParseUint(value, 0, UINT64_MAX, &number)) {
        return Usage("--seed needs a whole number");
      }
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, 1, 600, &number)) {
        return Usage("--seconds needs a whole number from 1 to 600");
      }
      options.seconds = static_cast<int>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseUint(value, 0, 1, &number)) return Usage("--trace needs 0 or 1");
      options.trace = number == 1;
      have_trace = true;
    } else {
      if (value.empty()) return Usage("--trace-out needs a path");
      options.trace_path = std::string(value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  psk::Result<perfbench::RunResult> result = perfbench::RunWorkload(options);
  if (!result.ok()) {
    std::cerr << "psk_perfbench: " << result.status().ToString() << "\n";
    return 1;
  }
  const perfbench::RunResult& run = *result;
  std::cout << "workload " << options.workload << "  seed " << options.seed
            << "  trace " << (options.trace ? 1 : 0) << "\n";
  for (const std::string& note : run.notes) std::cout << "  " << note << "\n";
  for (const std::string& failure : run.failures) {
    std::cout << "  FAILED: " << failure << "\n";
  }
  for (const perfbench::Metric& metric : run.metrics) {
    std::printf("  %-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  %-36s %16.6f %s\n", "failed_ratio",
              static_cast<double>(run.failed) /
                  static_cast<double>(run.attempted),
              "1");

  psk::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Bool(run.failed == 0 && run.attempted > 0);
  json.Key("attempted").Uint(run.attempted);
  json.Key("failed").Uint(run.failed);
  json.Key("metrics").BeginObject();
  for (const perfbench::Metric& metric : run.metrics) {
    json.Key(metric.name).BeginObject();
    json.Key("value").Double(metric.value);
    json.Key("unit").String(metric.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::cout << json.TakeString() << std::endl;
  return 0;
}
