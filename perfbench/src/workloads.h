// The benchmark's workloads. Each one builds its inputs from a seed,
// warms up, then either measures the end-to-end pipeline for a fixed time
// (untraced) or replays Anonymizer::Run's stage sequence call by call with
// a span around every call into a psk layer (traced).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "psk/common/result.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  /// false: end-to-end metrics; true: per-layer metrics from the replay.
  bool trace = false;
  /// Where the traced run writes its spans (JSON); empty = not written.
  std::string trace_path;
};

struct RunResult {
  /// Releases or jobs attempted, and those that errored, were shed or
  /// cancelled, or failed the benchmark's own correctness checks.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first few failure messages, for the log.
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  /// Lines for the human-readable summary (calibration, sample counts).
  std::vector<std::string> notes;
};

/// csv_release_100k, lattice_search_8qi, scheduler_jobs_2k.
const std::vector<std::string>& WorkloadNames();

/// Fails only when a workload cannot be set up at all; failures of
/// individual releases or jobs are counted in RunResult::failed.
psk::Result<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
