// Parallel-sweep scaling: every lattice engine at 1/2/4/8 worker threads
// on the Adult workload. Emits machine-readable results (wall time,
// nodes/s, speedup vs sequential) as BENCH_parallel.json for the CI
// scaling gate.
//
//   bench_parallel_scaling [--trace] [--threads=1,2,4,8] [rows] [out.json]
//
// Defaults: 4000 rows, ./BENCH_parallel.json, threads 1/2/4/8. An unknown
// flag, or a zero or non-numeric size, exits 2 before anything runs. With
// --trace, one extra (untimed) traced run per engine at the highest
// thread count writes the merged span trees to <out>.trace.json; the
// timed runs stay untraced.
//
// Every cell (engine x thread count) is timed kRepetitions times, with the
// thread counts interleaved inside each repetition so a slow spell of the
// host hits every column alike. A row reports the median wall time and
// the min-max spread, and speedup_vs_1 is the ratio of medians: one
// sample on a shared VM swings by 2x or more run to run.
//
// Every result row records the machine's hardware_concurrency and an
// `oversubscribed` flag (threads > hardware cores): on a small box the
// speedup_vs_1 of an oversubscribed row measures scheduler thrash, not
// scaling, so the CI gate must skip those rows rather than gate on noise.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "psk/algorithms/exhaustive.h"
#include "psk/algorithms/incognito.h"
#include "psk/algorithms/ola.h"
#include "psk/algorithms/samarati.h"
#include "psk/common/check.h"
#include "psk/common/json_writer.h"
#include "psk/datagen/adult.h"
#include "psk/trace/trace.h"
#include "bench_cli.h"

namespace psk {
namespace {

/// Timed runs per (engine, thread count) cell.
constexpr size_t kRepetitions = 5;

struct RunResult {
  std::string engine;
  size_t threads = 0;
  /// One wall time per repetition, in run order.
  std::vector<double> wall_ms;
  size_t nodes_generalized = 0;

  double Median() const {
    std::vector<double> sorted = wall_ms;
    std::sort(sorted.begin(), sorted.end());
    size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }
  double Min() const {
    return *std::min_element(wall_ms.begin(), wall_ms.end());
  }
  double Max() const {
    return *std::max_element(wall_ms.begin(), wall_ms.end());
  }
};

SearchOptions MakeOptions(size_t rows, size_t threads) {
  SearchOptions options;
  options.k = 3;
  options.p = 2;
  options.max_suppression = rows / 100;
  options.threads = threads;
  return options;
}

/// Times one run of `fn` and appends it to `cell`.
template <typename Fn>
void Measure(RunResult* cell, Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  SearchStats stats = fn();
  auto end = std::chrono::steady_clock::now();
  cell->wall_ms.push_back(
      std::chrono::duration<double, std::milli>(end - start).count());
  cell->nodes_generalized = stats.nodes_generalized;
}

// One traced run per engine at `threads` workers, all merged into a
// single trace document (each engine's spans under its own child span).
void WriteTrace(const Table& im, const HierarchySet& hs, size_t rows,
                size_t threads, const std::string& trace_path) {
  RunTrace trace("bench_parallel_scaling");
  trace.Counter("rows", rows);
  trace.Timing("threads", threads);
  SearchOptions options = MakeOptions(rows, threads);
  options.trace = &trace;
  trace.Begin("exhaustive");
  PSK_CHECK(ExhaustiveSearch(im, hs, options).ok());
  trace.End();
  trace.Begin("samarati");
  PSK_CHECK(SamaratiSearch(im, hs, options).ok());
  trace.End();
  trace.Begin("ola");
  OlaOptions ola;
  ola.search = options;
  PSK_CHECK(OlaSearch(im, hs, ola).ok());
  trace.End();
  trace.Begin("incognito");
  PSK_CHECK(IncognitoSearch(im, hs, options).ok());
  trace.End();
  Status written = trace.WriteJsonFile(trace_path);
  PSK_CHECK(written.ok());
  std::cout << "wrote " << trace_path << "\n";
}

constexpr char kUsage[] =
    "usage: bench_parallel_scaling [--trace] [--threads=1,2,4,8] [rows] "
    "[out.json]\n";

int Main(int argc, char** argv) {
  bool with_trace = false;
  std::vector<size_t> thread_counts = {1, 2, 4, 8};
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    if (arg == "--trace") {
      with_trace = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      thread_counts.clear();
      std::string list = arg.substr(10);
      size_t pos = 0;
      while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        size_t value;
        if (!ParseCount(std::string_view(list).substr(pos, comma - pos),
                        &value)) {
          std::cerr << "invalid --threads list '" << list << "'\n" << kUsage;
          return kUsageExit;
        }
        thread_counts.push_back(value);
        pos = comma + 1;
      }
    } else if (arg.rfind("-", 0) == 0) {
      std::cerr << "unknown flag '" << arg << "'\n" << kUsage;
      return kUsageExit;
    } else {
      positional.push_back(arg);
    }
  }
  size_t rows = 4000;
  if (positional.size() > 2 ||
      (!positional.empty() && !ParseCount(positional[0], &rows))) {
    std::cerr << kUsage;
    return kUsageExit;
  }
  std::string out_path =
      positional.size() > 1 ? positional[1] : "BENCH_parallel.json";

  auto table = AdultGenerate(rows, /*seed=*/1);
  PSK_CHECK(table.ok());
  auto hierarchies = AdultHierarchies(table->schema());
  PSK_CHECK(hierarchies.ok());
  const Table& im = *table;
  const HierarchySet& hs = *hierarchies;

  const std::vector<std::string> engines = {"exhaustive", "samarati", "ola",
                                            "incognito"};
  // results[t * engines.size() + e] is the cell of thread_counts[t] and
  // engines[e].
  std::vector<RunResult> results;
  for (size_t threads : thread_counts) {
    for (const std::string& engine : engines) {
      RunResult cell;
      cell.engine = engine;
      cell.threads = threads;
      results.push_back(cell);
    }
  }
  for (size_t rep = 0; rep < kRepetitions; ++rep) {
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      SearchOptions options = MakeOptions(rows, thread_counts[t]);
      RunResult* cells = &results[t * engines.size()];
      Measure(&cells[0], [&] {
        auto r = ExhaustiveSearch(im, hs, options);
        PSK_CHECK(r.ok());
        return r->stats;
      });
      Measure(&cells[1], [&] {
        auto r = SamaratiSearch(im, hs, options);
        PSK_CHECK(r.ok());
        return r->stats;
      });
      Measure(&cells[2], [&] {
        OlaOptions ola;
        ola.search = options;
        auto r = OlaSearch(im, hs, ola);
        PSK_CHECK(r.ok());
        return r->stats;
      });
      Measure(&cells[3], [&] {
        auto r = IncognitoSearch(im, hs, options);
        PSK_CHECK(r.ok());
        return r->stats;
      });
    }
  }

  // Sequential baseline per engine (median), for the speedup column.
  auto baseline_ms = [&](const std::string& engine) {
    for (const RunResult& r : results) {
      if (r.engine == engine && r.threads == 1) return r.Median();
    }
    return 0.0;
  };

  JsonWriter json;
  json.BeginObject();
  json.Key("benchmark").String("parallel_scaling");
  json.Key("workload").String("adult");
  json.Key("rows").Uint(rows);
  json.Key("repetitions").Uint(kRepetitions);
  json.Key("hardware_concurrency")
      .Uint(std::thread::hardware_concurrency());
  json.Key("results").BeginArray();
  const size_t hardware = std::thread::hardware_concurrency();
  for (const RunResult& r : results) {
    const double median_ms = r.Median();
    double secs = median_ms / 1000.0;
    // A run with more workers than cores measures scheduler thrash, not
    // scaling — the row stays in the data (marked) but gates must skip it.
    const bool oversubscribed = hardware > 0 && r.threads > hardware;
    json.BeginObject();
    json.Key("engine").String(r.engine);
    json.Key("threads").Uint(r.threads);
    json.Key("hardware_concurrency").Uint(hardware);
    json.Key("oversubscribed").Bool(oversubscribed);
    // wall_ms is the median; the min-max pair is its spread.
    json.Key("wall_ms").Double(median_ms);
    json.Key("wall_ms_min").Double(r.Min());
    json.Key("wall_ms_max").Double(r.Max());
    json.Key("nodes_generalized").Uint(r.nodes_generalized);
    json.Key("nodes_per_sec")
        .Double(secs > 0 ? static_cast<double>(r.nodes_generalized) / secs
                         : 0.0);
    json.Key("speedup_vs_1")
        .Double(median_ms > 0 ? baseline_ms(r.engine) / median_ms : 0.0);
    json.EndObject();
    std::cout << r.engine << " threads=" << r.threads << " wall_ms median="
              << median_ms << " [" << r.Min() << ", " << r.Max()
              << "] nodes=" << r.nodes_generalized
              << (oversubscribed ? " (oversubscribed)" : "") << "\n";
  }
  json.EndArray();
  json.EndObject();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  out << json.TakeString() << "\n";
  std::cout << "wrote " << out_path << "\n";

  if (with_trace) {
    std::string trace_path = out_path;
    const std::string suffix = ".json";
    if (trace_path.size() >= suffix.size() &&
        trace_path.compare(trace_path.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
      trace_path.resize(trace_path.size() - suffix.size());
    }
    trace_path += ".trace.json";
    WriteTrace(im, hs, rows, thread_counts.back(), trace_path);
  }
  return 0;
}

}  // namespace
}  // namespace psk

int main(int argc, char** argv) { return psk::Main(argc, argv); }
