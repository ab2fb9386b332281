#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "calibrate.h"
#include "psk/algorithms/exhaustive.h"
#include "psk/algorithms/samarati.h"
#include "psk/anonymity/kanonymity.h"
#include "psk/anonymity/psensitive.h"
#include "psk/api/anonymizer.h"
#include "psk/common/memory_budget.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/synthetic.h"
#include "psk/generalize/generalize.h"
#include "psk/guard/guard.h"
#include "psk/hierarchy/hierarchy.h"
#include "psk/jobs/job.h"
#include "psk/metrics/metrics.h"
#include "psk/metrics/risk.h"
#include "psk/service/scheduler.h"
#include "psk/table/csv.h"
#include "psk/table/encoded.h"
#include "psk/trace/trace.h"
#include "release_check.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using MetricMap = std::map<std::string, double>;
using psk::AnonymizationAlgorithm;

constexpr double kMiB = 1024.0 * 1024.0;
/// Scheduler inputs: eight seed-derived Adult tables, cycled by job index.
constexpr size_t kSchedulerInputs = 8;
constexpr size_t kSchedulerClients = 4;
/// Jobs per JobScheduler instance. The scheduler keeps every job's record
/// (spec, report) until it is destroyed, so the workload starts a fresh
/// one every round to keep memory flat over a long run.
constexpr size_t kRoundJobs = 256;
constexpr size_t kMaxFailureMessages = 5;
/// Replays per traced run at most (the scheduler's 2k-row replays take
/// milliseconds; this keeps its span file a few MiB).
constexpr uint64_t kMaxReplays = 256;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Steady-clock nanoseconds; the scheduler's job timestamps, which may be
/// taken on any thread.
int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear interpolation between closest ranks (numpy's default).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Returns freed heap pages to the system, then resets this process's
/// peak resident set (VmHWM) to its current resident set (Linux
/// clear_refs value 5). PeakRssMib then reads the peak of what runs in
/// between, from a baseline that does not depend on what set-up left in
/// the allocator's free lists. Used before the untimed warm-up only: a
/// timed release after a trim would fault its memory back in.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM of this process, in MiB.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  return 0;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// "<n> <what> timed, seconds min/median/max a/b/c".
std::string SampleNote(const std::string& what,
                       const std::vector<double>& seconds) {
  char text[160];
  std::snprintf(text, sizeof(text),
                "%zu %s timed, seconds min/median/max %.4f/%.4f/%.4f",
                seconds.size(), what.c_str(), Quantile(seconds, 0),
                Median(seconds), Quantile(seconds, 1));
  return text;
}

void RecordFailure(RunResult* out, const std::string& message) {
  ++out->failed;
  if (out->failures.size() < kMaxFailureMessages) {
    out->failures.push_back(message);
  }
}

// ---------------------------------------------------------------------------
// Workload configuration and set-up.

enum class Kind { kCsvRelease, kLatticeSearch, kScheduler };

struct Config {
  Kind kind = Kind::kCsvRelease;
  size_t rows = 0;  ///< rows of each input table
  size_t k = 0;
  size_t p = 0;
  size_t max_suppression = 0;
  AnonymizationAlgorithm algorithm = AnonymizationAlgorithm::kSamarati;
  /// Search threads of a release; the scheduler's threads_per_job.
  size_t threads = 1;
  /// Ingest chunk size on the workload's path.
  size_t chunk_rows = 64 * 1024;
};

/// setup_s is the median of at least kMinSetups set-ups that take at
/// least kMinSetupSeconds together.
constexpr size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 3;
constexpr size_t kMaxSetups = 100;

Config MakeConfig(const std::string& workload) {
  Config c;
  if (workload == "csv_release_100k") {
    c.kind = Kind::kCsvRelease;
    c.rows = 100000;
    c.k = 3;
    c.p = 2;
    c.algorithm = AnonymizationAlgorithm::kSamarati;
    c.threads = 4;
  } else if (workload == "lattice_search_8qi") {
    c.kind = Kind::kLatticeSearch;
    c.rows = 20000;
    c.k = 5;
    c.p = 2;
    c.algorithm = AnonymizationAlgorithm::kExhaustive;
    c.threads = 4;
  } else {
    c.kind = Kind::kScheduler;
    c.rows = 2000;
    c.k = 3;
    c.p = 2;
    c.algorithm = AnonymizationAlgorithm::kSamarati;
    c.threads = 1;
    c.chunk_rows = 64;
  }
  c.max_suppression = c.rows / 100;
  return c;
}

ReleasePolicy PolicyFor(const Config& c) {
  return ReleasePolicy{c.k, c.p, c.max_suppression};
}

struct Inputs {
  psk::Schema schema;
  psk::HierarchySet hierarchies;
  std::vector<std::shared_ptr<const psk::Table>> tables;
  /// CSV rendering of each table: the csv workload's input, and the
  /// other workloads' CSV-ingest layer probe in the traced run.
  std::vector<std::string> csv;
  /// Scheduler only: digest of each table's direct Anonymizer::Run
  /// release, which every job on that table must reproduce.
  std::vector<uint64_t> reference_digests;
};

std::vector<std::shared_ptr<const psk::AttributeHierarchy>> HierarchyList(
    const psk::HierarchySet& set) {
  std::vector<std::shared_ptr<const psk::AttributeHierarchy>> list;
  for (size_t i = 0; i < set.size(); ++i) list.push_back(set.hierarchy_ptr(i));
  return list;
}

void Configure(const Config& c, const Inputs& in, psk::Anonymizer* anonymizer) {
  for (const auto& hierarchy : HierarchyList(in.hierarchies)) {
    anonymizer->AddHierarchy(hierarchy);
  }
  anonymizer->set_k(c.k)
      .set_p(c.p)
      .set_max_suppression(c.max_suppression)
      .set_algorithm(c.algorithm)
      .set_threads(c.threads);
}

psk::Result<Inputs> Setup(const Config& c, uint64_t seed) {
  Inputs in;
  if (c.kind == Kind::kScheduler) {
    PSK_ASSIGN_OR_RETURN(in.schema, psk::AdultSchema());
    PSK_ASSIGN_OR_RETURN(in.hierarchies, psk::AdultHierarchies(in.schema));
    for (size_t i = 0; i < kSchedulerInputs; ++i) {
      PSK_ASSIGN_OR_RETURN(psk::Table table,
                           psk::AdultGenerate(c.rows, MixSeed(seed, i)));
      in.csv.push_back(psk::WriteCsvString(table));
      in.tables.push_back(std::make_shared<const psk::Table>(std::move(table)));
    }
    for (const auto& table : in.tables) {
      psk::Anonymizer direct(*table);
      Configure(c, in, &direct);
      PSK_ASSIGN_OR_RETURN(psk::AnonymizationReport report, direct.Run());
      in.reference_digests.push_back(psk::TableDigest(report.masked));
    }
    return in;
  }
  psk::SyntheticSpec spec =
      c.kind == Kind::kCsvRelease
          ? psk::MakeUniformSpec(c.rows, /*num_key=*/3, /*key_card=*/20,
                                 /*num_conf=*/1, /*conf_card=*/50, 0.5)
          : psk::MakeUniformSpec(c.rows, /*num_key=*/8, /*key_card=*/10,
                                 /*num_conf=*/1, /*conf_card=*/50, 0.5);
  PSK_ASSIGN_OR_RETURN(psk::SyntheticData data,
                       psk::SyntheticGenerate(spec, seed));
  in.schema = data.table.schema();
  in.hierarchies = std::move(data.hierarchies);
  in.csv.push_back(psk::WriteCsvString(data.table));
  in.tables.push_back(
      std::make_shared<const psk::Table>(std::move(data.table)));
  return in;
}

/// Sets up again until *times holds at least `count` set-up timings
/// adding up to at least `seconds`, keeping the last inputs in *inputs.
psk::Status RepeatSetup(const Config& c, uint64_t seed, size_t count,
                        double seconds, std::vector<double>* times,
                        std::optional<Inputs>* inputs) {
  double total = 0;
  for (double t : *times) total += t;
  while (times->size() < count ||
         (total < seconds && times->size() < kMaxSetups)) {
    inputs->reset();
    Clock::time_point start = Clock::now();
    PSK_ASSIGN_OR_RETURN(*inputs, Setup(c, seed));
    times->push_back(Since(start));
    total += times->back();
  }
  return psk::Status::OK();
}

// ---------------------------------------------------------------------------
// The release path: ingest, then Anonymizer::Run.

/// Streams `table` as IngestChunks (a JobSpec::input_source).
psk::IngestChunkSource TableSource(std::shared_ptr<const psk::Table> table) {
  auto next_row = std::make_shared<size_t>(0);
  return [table, next_row](size_t max_rows,
                           psk::IngestChunk* chunk) -> psk::Result<size_t> {
    size_t rows = std::min(max_rows, table->num_rows() - *next_row);
    chunk->Reset(table->schema(), rows);
    for (size_t col = 0; col < table->num_columns(); ++col) {
      for (size_t row = *next_row; row < *next_row + rows; ++row) {
        chunk->columns[col].push_back(table->Get(row, col));
      }
    }
    *next_row += rows;
    return rows;
  };
}

/// Streams CSV text as IngestChunks. The reader views `text`, which must
/// outlive the source.
psk::Result<psk::IngestChunkSource> CsvSource(const std::string& text,
                                              const psk::Schema& schema) {
  PSK_ASSIGN_OR_RETURN(psk::CsvChunkReader reader,
                       psk::CsvChunkReader::OpenString(text, schema));
  auto shared = std::make_shared<psk::CsvChunkReader>(std::move(reader));
  return psk::IngestChunkSource(
      [shared](size_t max_rows, psk::IngestChunk* chunk) {
        return shared->NextChunk(max_rows, chunk);
      });
}

struct Release {
  psk::AnonymizationReport report;
  double ingest_s = 0;  ///< first ingest call until the table is loaded
  double run_s = 0;     ///< the Run() call
  uint64_t tracked_bytes = 0;  ///< MemoryBudget high water
};

/// A scheduler job on input `index`, streamed through input_source.
psk::JobSpec MakeJobSpec(const Config& c, const Inputs& in, size_t index) {
  psk::JobSpec spec;
  spec.input = psk::Table(in.schema);
  spec.input_source = TableSource(in.tables[index]);
  spec.ingest_chunk_rows = c.chunk_rows;
  spec.hierarchies = HierarchyList(in.hierarchies);
  spec.k = c.k;
  spec.p = c.p;
  spec.max_suppression = c.max_suppression;
  spec.algorithm = c.algorithm;
  spec.threads = c.threads;
  return spec;
}

/// One release as a user runs it, on the workload's own ingest path: the
/// csv workload streams its CSV text through Anonymizer(Schema)::Ingest;
/// the scheduler's input is drained the way a job drains it
/// (MaterializeJobInput at 64-row chunks) and handed to Anonymizer(Table),
/// which is the direct run a job is compared with; the lattice workload
/// hands its in-memory table to Anonymizer(Table).
psk::Result<Release> RunRelease(const Config& c, const Inputs& in,
                                size_t index, bool run_traced) {
  Release out;
  auto memory = std::make_shared<psk::MemoryBudget>();
  psk::RunBudget budget;
  budget.memory = memory;
  Clock::time_point start = Clock::now();
  std::optional<psk::Anonymizer> anonymizer;
  if (c.kind == Kind::kCsvRelease) {
    anonymizer.emplace(in.schema);
    anonymizer->set_budget(budget);
    PSK_ASSIGN_OR_RETURN(psk::CsvChunkReader reader,
                         psk::CsvChunkReader::OpenString(in.csv[index],
                                                         in.schema));
    psk::IngestChunk chunk;
    for (;;) {
      PSK_ASSIGN_OR_RETURN(size_t rows, reader.NextChunk(c.chunk_rows, &chunk));
      if (rows == 0) break;
      PSK_RETURN_IF_ERROR(anonymizer->Ingest(&chunk));
    }
  } else if (c.kind == Kind::kScheduler) {
    psk::JobSpec spec = MakeJobSpec(c, in, index);
    PSK_RETURN_IF_ERROR(psk::MaterializeJobInput(
        &spec, std::make_shared<psk::MemoryBudget>()));
    anonymizer.emplace(std::move(spec.input));
    anonymizer->set_budget(budget);
  } else {
    anonymizer.emplace(*in.tables[index]);
    anonymizer->set_budget(budget);
  }
  Configure(c, in, &*anonymizer);
  anonymizer->set_trace_enabled(run_traced);
  out.ingest_s = Since(start);
  Clock::time_point run_start = Clock::now();
  PSK_ASSIGN_OR_RETURN(out.report, anonymizer->Run());
  out.run_s = Since(run_start);
  out.tracked_bytes = memory->high_water();
  return out;
}

/// The benchmark's correctness check of one release: p-sensitive
/// k-anonymity at the workload's caps, a passed guard, and the expected
/// digest.
psk::Status CheckRelease(const Config& c, const psk::AnonymizationReport& report,
                         uint64_t expected_digest) {
  PSK_RETURN_IF_ERROR(VerifyRelease(report.masked, c.rows, PolicyFor(c)));
  if (!report.guard.passed) {
    return psk::Status::FailedPrecondition("guard did not pass the release");
  }
  if (psk::TableDigest(report.masked) != expected_digest) {
    return psk::Status::FailedPrecondition("release digest differs from reference");
  }
  return psk::Status::OK();
}

psk::GuardPolicy GuardPolicyFor(const Config& c) {
  psk::GuardPolicy policy;
  policy.k = c.k;
  policy.p = c.p;
  policy.max_suppression = c.max_suppression;
  if (c.p >= 2) policy.max_attribute_disclosures = 0;
  return policy;
}

/// The engine call of Run's first stage; picks the node the way
/// Anonymizer does (lowest height, then lexicographic).
psk::Result<psk::LatticeNode> Search(const Config& c, const psk::Table& im,
                                     const psk::HierarchySet& hierarchies,
                                     size_t threads, psk::SearchStats* stats) {
  psk::SearchOptions options;
  options.k = c.k;
  options.p = c.p;
  options.max_suppression = c.max_suppression;
  options.threads = threads;
  options.budget.memory = std::make_shared<psk::MemoryBudget>();
  if (c.algorithm == AnonymizationAlgorithm::kSamarati) {
    PSK_ASSIGN_OR_RETURN(psk::SearchResult result,
                         psk::SamaratiSearch(im, hierarchies, options));
    *stats = result.stats;
    if (!result.found) return psk::Status::FailedPrecondition("no node found");
    return result.node;
  }
  PSK_ASSIGN_OR_RETURN(psk::MinimalSetResult result,
                       psk::ExhaustiveSearch(im, hierarchies, options));
  *stats = result.stats;
  const psk::LatticeNode* best = nullptr;
  for (const psk::LatticeNode& node : result.minimal_nodes) {
    if (best == nullptr || node.Height() < best->Height() ||
        (node.Height() == best->Height() && node < *best)) {
      best = &node;
    }
  }
  if (best == nullptr) return psk::Status::FailedPrecondition("no node found");
  return *best;
}

// ---------------------------------------------------------------------------
// Untraced measurement of the release workloads.

psk::Result<RunResult> MeasureReleases(const Config& c, const Inputs& in,
                                       const RunOptions& options) {
  RunResult out;
  // Warm-up release: it gives peak_rss_mib, and its node, masked by the
  // replay's own Mask call on the set-up table, gives the reference
  // digest.
  ResetPeakRss();
  PSK_ASSIGN_OR_RETURN(Release warm, RunRelease(c, in, 0, false));
  double rss = PeakRssMib();
  if (!warm.report.node.has_value()) {
    return psk::Status::Internal("warm-up release has no lattice node");
  }
  PSK_ASSIGN_OR_RETURN(psk::MaskedMicrodata reference,
                       psk::Mask(*in.tables[0], in.hierarchies,
                                 *warm.report.node, c.k));
  uint64_t reference_digest = psk::TableDigest(reference.table);

  std::vector<double> walls;
  double wall_sum = 0;
  uint64_t tracked = 0;
  Clock::time_point begin = Clock::now();
  while (out.attempted == 0 || Since(begin) < options.seconds) {
    ++out.attempted;
    psk::Result<Release> release = RunRelease(c, in, 0, false);
    if (!release.ok()) {
      RecordFailure(&out, release.status().ToString());
      continue;
    }
    double wall = release->ingest_s + release->run_s;
    walls.push_back(wall);
    wall_sum += wall;
    tracked = std::max(tracked, release->tracked_bytes);
    psk::Status check = CheckRelease(c, release->report, reference_digest);
    if (!check.ok()) RecordFailure(&out, check.ToString());
  }
  out.metrics = {
      {"release_s", Median(walls), "s"},
      {"jobs_per_s", walls.empty() ? 0 : walls.size() / wall_sum, "1/s"},
      {"job_latency_p90_ms", Quantile(walls, 0.9) * 1000, "ms"},
      {"peak_tracked_mib", tracked / kMiB, "MiB"},
      {"peak_rss_mib", rss, "MiB"},
  };
  out.notes.push_back(SampleNote("releases", walls));
  return out;
}

// ---------------------------------------------------------------------------
// The scheduler workload: closed-loop clients over a JobScheduler.

psk::SchedulerOptions SchedulerOptionsFor(const Config& c) {
  psk::SchedulerOptions options;
  options.max_running = 2;
  options.threads_per_job = c.threads;
  return options;
}

struct JobSample {
  bool done = false;
  size_t input = 0;
  uint64_t id = 0;
  int64_t submit_ns = 0;
  std::atomic<int64_t> start_ns{0};  ///< written by the executor's on_start
  int64_t end_ns = 0;
  uint64_t memory_high_water = 0;
  psk::Status error = psk::Status::OK();
  psk::SchedulerJobResult result;
};

struct Round {
  std::unique_ptr<JobSample[]> samples;
  size_t jobs = 0;
  double wall_s = 0;
  psk::SchedulerStats stats;
};

/// Runs up to `jobs` jobs through a fresh JobScheduler from
/// kSchedulerClients closed-loop clients, each of which submits one job
/// and waits for it before submitting the next. Clients stop early at
/// `deadline`. Job j reads input j % 8 and cycles batch, normal,
/// interactive priority.
Round RunRound(const Config& c, const Inputs& in, size_t first_job,
               size_t jobs, Clock::time_point deadline) {
  Round round;
  round.jobs = jobs;
  round.samples = std::make_unique<JobSample[]>(jobs);
  Clock::time_point start = Clock::now();
  {
    psk::JobScheduler scheduler(SchedulerOptionsFor(c));
    std::atomic<size_t> next{0};
    auto client = [&] {
      for (;;) {
        size_t slot = next.fetch_add(1);
        if (slot >= jobs || Clock::now() >= deadline) return;
        JobSample& sample = round.samples[slot];
        size_t job = first_job + slot;
        sample.input = job % in.tables.size();
        psk::SchedulerJobRequest request;
        request.name = "job-" + std::to_string(job);
        request.spec = MakeJobSpec(c, in, sample.input);
        request.priority = static_cast<psk::JobPriority>(job % 3);
        request.on_start = [&sample] { sample.start_ns.store(SteadyNs()); };
        sample.submit_ns = SteadyNs();
        psk::Result<uint64_t> id = scheduler.Submit(std::move(request));
        if (id.ok()) {
          sample.id = *id;
          psk::Result<psk::SchedulerJobResult> result = scheduler.Wait(*id);
          sample.end_ns = SteadyNs();
          if (result.ok()) {
            sample.result = std::move(*result);
          } else {
            sample.error = result.status();
          }
          psk::Result<psk::SchedulerJobStatus> progress =
              scheduler.Progress(*id);
          if (progress.ok()) {
            sample.memory_high_water = progress->memory_high_water;
          }
        } else {
          sample.end_ns = SteadyNs();
          sample.error = id.status();
        }
        sample.done = true;
      }
    };
    std::vector<std::thread> clients;
    for (size_t i = 0; i < kSchedulerClients; ++i) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();
    round.stats = scheduler.stats();
  }
  round.wall_s = Since(start);
  return round;
}

/// Checks one finished job; OK when it completed with a release that
/// passes VerifyRelease and matches its input's direct-run digest.
psk::Status CheckJob(const Config& c, const Inputs& in, const JobSample& s) {
  PSK_RETURN_IF_ERROR(s.error);
  PSK_RETURN_IF_ERROR(s.result.status);
  if (s.result.state != psk::JobState::kCompleted) {
    return psk::Status::FailedPrecondition(
        std::string("job ended ") + psk::JobStateName(s.result.state));
  }
  return CheckRelease(c, s.result.report, in.reference_digests[s.input]);
}

psk::Result<RunResult> MeasureScheduler(const Config& c, const Inputs& in,
                                        const RunOptions& options) {
  RunResult out;
  // Warm-up round, whose peak resident set is reported.
  ResetPeakRss();
  RunRound(c, in, 0, kRoundJobs, Clock::time_point::max());
  double rss = PeakRssMib();

  std::vector<double> latencies;
  double wall = 0;
  uint64_t completed = 0;
  uint64_t tracked = 0;
  size_t next_job = 0;
  Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(options.seconds);
  while (out.attempted == 0 || Clock::now() < deadline) {
    // The first round ignores the deadline, so every run times some jobs.
    Round round =
        RunRound(c, in, next_job, kRoundJobs,
                 out.attempted == 0 ? Clock::time_point::max() : deadline);
    wall += round.wall_s;
    for (size_t i = 0; i < round.jobs; ++i) {
      const JobSample& s = round.samples[i];
      if (!s.done) continue;
      ++out.attempted;
      ++next_job;
      psk::Status check = CheckJob(c, in, s);
      if (!check.ok()) {
        RecordFailure(&out, check.ToString());
        continue;
      }
      ++completed;
      latencies.push_back(static_cast<double>(s.end_ns - s.submit_ns) / 1e9);
      tracked = std::max(tracked, s.memory_high_water);
    }
  }
  out.metrics = {
      {"release_s", Median(latencies), "s"},
      {"jobs_per_s", completed / wall, "1/s"},
      {"job_latency_p90_ms", Quantile(latencies, 0.9) * 1000, "ms"},
      {"peak_tracked_mib", tracked / kMiB, "MiB"},
      {"peak_rss_mib", rss, "MiB"},
  };
  out.notes.push_back(SampleNote("jobs", latencies));
  return out;
}

// ---------------------------------------------------------------------------
// Traced run: Anonymizer::Run's stage sequence replayed call by call.

/// The traced run's spans, in a psk::RunTrace driven from the replay
/// thread, plus the milliseconds of the current replay's spans by name.
struct Tracer {
  psk::RunTrace trace{"perfbench"};
  MetricMap ms;
  /// Time covered by the children of each open Span, innermost last.
  std::vector<int64_t> child_ns;
};

/// RAII span on the tracer's RunTrace, tagged with the replay or job id
/// (attribute "run"). Closing it records its self time (its duration minus
/// its children's) as the span's "self_ns" timing and adds its duration to
/// tracer->ms[name]. Spans nest and close innermost first.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t run)
      : tracer_(tracer), name_(name) {
    tracer_->trace.Begin(name);
    tracer_->trace.Attr("run", std::to_string(run));
    tracer_->child_ns.push_back(0);
    start_ns_ = tracer_->trace.NowNs();
  }
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent); returns its duration in milliseconds.
  double Stop() {
    if (open_) {
      int64_t ns = tracer_->trace.NowNs() - start_ns_;
      // Merged leaves may overlap (a round's concurrent jobs); self time
      // is then 0.
      int64_t self = std::max<int64_t>(0, ns - tracer_->child_ns.back());
      tracer_->child_ns.pop_back();
      tracer_->trace.Timing("self_ns", static_cast<uint64_t>(self));
      tracer_->trace.End();
      if (!tracer_->child_ns.empty()) tracer_->child_ns.back() += ns;
      ms_ = static_cast<double>(ns) / 1e6;
      tracer_->ms[name_] += ms_;
      open_ = false;
    }
    return ms_;
  }

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t start_ns_ = 0;
  bool open_ = true;
  double ms_ = 0;
};

/// A finished interval [start_ns, end_ns) of the tracer's clock, to be
/// merged as a leaf span with AddLeaves.
psk::TraceEvent Leaf(const char* name, int64_t start_ns, int64_t end_ns,
                     uint64_t run) {
  psk::TraceEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.duration_ns = end_ns - start_ns;
  event.attrs.emplace_back("run", std::to_string(run));
  return event;
}

/// Adds finished spans as leaf children of the innermost open Span.
void AddLeaves(Tracer* tracer, std::vector<psk::TraceEvent> events) {
  for (const psk::TraceEvent& event : events) {
    tracer->child_ns.back() += event.duration_ns;
  }
  tracer->trace.MergeEvents(std::move(events));
}

/// Parses input `index`'s CSV rendering at the workload's chunk size,
/// with a span around every reader and append call; counts the chunks.
psk::Result<psk::Table> IngestCsvTraced(const Config& c, const Inputs& in,
                                        size_t index, Tracer* tracer,
                                        uint64_t run, size_t* chunks) {
  psk::Table table(in.schema);
  std::optional<psk::CsvChunkReader> reader;
  {
    Span span(tracer, "table.csv_parse", run);
    PSK_ASSIGN_OR_RETURN(reader,
                         psk::CsvChunkReader::OpenString(in.csv[index],
                                                         in.schema));
  }
  psk::IngestChunk chunk;
  for (;;) {
    size_t rows = 0;
    {
      Span span(tracer, "table.csv_parse", run);
      PSK_ASSIGN_OR_RETURN(rows, reader->NextChunk(c.chunk_rows, &chunk));
    }
    if (rows == 0) break;
    Span span(tracer, "table.append", run);
    PSK_RETURN_IF_ERROR(table.AppendChunk(&chunk));
    ++*chunks;
  }
  return table;
}

/// The ingest step of the workload's path, spanned: CSV chunks (csv
/// workload), a table copy (lattice workload), or MaterializeJobInput at
/// 64-row chunks (scheduler jobs).
psk::Result<psk::Table> ReplayIngest(const Config& c, const Inputs& in,
                                     size_t index, Tracer* tracer,
                                     uint64_t run, size_t* chunks) {
  if (c.kind == Kind::kLatticeSearch) {
    Span span(tracer, "table.copy", run);
    return psk::Table(*in.tables[index]);
  }
  if (c.kind == Kind::kScheduler) {
    Span span(tracer, "jobs.materialize", run);
    psk::JobSpec spec = MakeJobSpec(c, in, index);
    PSK_RETURN_IF_ERROR(psk::MaterializeJobInput(
        &spec, std::make_shared<psk::MemoryBudget>()));
    return std::move(spec.input);
  }
  return IngestCsvTraced(c, in, index, tracer, run, chunks);
}

/// One job through a one-seat JobScheduler: the service layer's cost on a
/// release of this workload. Fills the service.* metrics.
psk::Status ProbeServiceJob(const Config& c, const Inputs& in, size_t index,
                            Tracer* tracer, MetricMap* m, uint64_t run,
                            uint64_t expected_digest) {
  psk::SchedulerOptions options = SchedulerOptionsFor(c);
  options.max_running = 1;
  // The hang watchdog cancels a job that sends no heartbeat for
  // hung_timeout (1 s by default). Mask, the guard and the scorecard send
  // none, and on a loaded host or a 1M-row input they can take longer than
  // that, so the default could cancel a healthy job; this probe measures
  // the service layer's cost, not the watchdog.
  options.hung_timeout = std::chrono::minutes(1);
  psk::RunTrace& trace = tracer->trace;
  std::atomic<int64_t> started{0};  // outlives the scheduler holding on_start
  psk::JobScheduler scheduler(options);
  psk::SchedulerJobRequest request;
  request.name = "probe";
  request.spec = MakeJobSpec(c, in, index);
  request.spec.input_source = nullptr;
  request.spec.input = *in.tables[index];
  request.on_start = [&started, &trace] { started.store(trace.NowNs()); };
  Span job(tracer, "service.job", run);
  int64_t submitted = trace.NowNs();
  PSK_ASSIGN_OR_RETURN(uint64_t id, scheduler.Submit(std::move(request)));
  PSK_ASSIGN_OR_RETURN(psk::SchedulerJobResult result, scheduler.Wait(id));
  int64_t ended = trace.NowNs();
  AddLeaves(tracer, {Leaf("service.queue_wait", submitted, started.load(), run),
                     Leaf("service.run", started.load(), ended, run)});
  job.Stop();
  PSK_RETURN_IF_ERROR(result.status);
  if (psk::TableDigest(result.report.masked) != expected_digest) {
    return psk::Status::FailedPrecondition("service job digest differs");
  }
  double queue_ms = static_cast<double>(started.load() - submitted) / 1e6;
  double run_ms = static_cast<double>(ended - started.load()) / 1e6;
  psk::SchedulerStats stats = scheduler.stats();
  (*m)["service.queue_wait_p50_ms"] = queue_ms;
  (*m)["service.queue_wait_p90_ms"] = queue_ms;
  (*m)["service.run_p50_ms"] = run_ms;
  (*m)["service.busy_ratio"] =
      run_ms / (static_cast<double>(ended - submitted) / 1e6 *
                static_cast<double>(options.max_running));
  (*m)["service.shed"] = static_cast<double>(stats.shed);
  (*m)["service.retries"] = static_cast<double>(stats.retries);
  return psk::Status::OK();
}

/// One replay of Run's stage sequence on input `index`, then the layer
/// probes. Per-layer values for this replay go into *m. `service` holds
/// the scheduler workload's service.* metrics from its traced round.
psk::Status Replay(const Config& c, const Inputs& in, size_t index,
                   uint64_t run, bool speedup_probe, const MetricMap& service,
                   Tracer* tracer, MetricMap* m) {
  tracer->ms.clear();
  MetricMap& ms = tracer->ms;
  const psk::Schema& schema = in.schema;
  std::vector<size_t> keys = schema.KeyIndices();
  std::vector<size_t> confs = schema.ConfidentialIndices();
  size_t chunks = 0;
  psk::Table im;
  std::optional<psk::HierarchySet> hierarchies;
  psk::SearchStats stats;
  psk::LatticeNode node;
  psk::MaskedMicrodata masked;
  double ingest_ms = 0;
  double release_ms = 0;
  {
    Span release(tracer, "release", run);
    Clock::time_point ingest_start = Clock::now();
    PSK_ASSIGN_OR_RETURN(im, ReplayIngest(c, in, index, tracer, run, &chunks));
    ingest_ms = Since(ingest_start) * 1000;
    {
      Span span(tracer, "hierarchy.preflight", run);
      PSK_ASSIGN_OR_RETURN(hierarchies,
                           psk::HierarchySet::Create(
                               schema, HierarchyList(in.hierarchies)));
      for (size_t i = 0; i < keys.size(); ++i) {
        PSK_RETURN_IF_ERROR(psk::ValidateHierarchyOverColumn(
            im, keys[i], hierarchies->hierarchy(i)));
      }
    }
    {
      Span span(tracer, "algorithms.search", run);
      PSK_ASSIGN_OR_RETURN(node,
                           Search(c, im, *hierarchies, c.threads, &stats));
    }
    {
      Span span(tracer, "generalize.mask", run);
      PSK_ASSIGN_OR_RETURN(masked, psk::Mask(im, *hierarchies, node, c.k));
      psk::Precision(node, *hierarchies);
    }
    {
      Span span(tracer, "guard.verify", run);
      psk::GuardReport guard;
      PSK_RETURN_IF_ERROR(psk::EnforceRelease(masked.table, im.num_rows(),
                                              GuardPolicyFor(c), &guard));
    }
    {
      Span span(tracer, "metrics.scorecard", run);
      const psk::Table& t = masked.table;
      {
        Span s(tracer, "metrics.anonymity_k", run);
        PSK_RETURN_IF_ERROR(psk::AnonymityK(t, keys).status());
      }
      {
        Span s(tracer, "metrics.sensitivity_p", run);
        PSK_RETURN_IF_ERROR(psk::SensitivityP(t, keys, confs).status());
      }
      {
        Span s(tracer, "metrics.disclosures", run);
        PSK_RETURN_IF_ERROR(
            psk::CountAttributeDisclosures(t, keys, confs).status());
      }
      {
        Span s(tracer, "metrics.marketer_risk", run);
        PSK_RETURN_IF_ERROR(psk::MarketerRisk(t, keys).status());
      }
      {
        Span s(tracer, "metrics.discernibility", run);
        PSK_RETURN_IF_ERROR(psk::DiscernibilityMetric(t, keys,
                                                      masked.suppressed,
                                                      im.num_rows())
                                .status());
      }
      {
        Span s(tracer, "metrics.avg_group_size", run);
        PSK_RETURN_IF_ERROR(
            psk::NormalizedAvgGroupSize(t, keys, c.k).status());
      }
    }
    release_ms = release.Stop();
  }
  PSK_RETURN_IF_ERROR(VerifyRelease(masked.table, c.rows, PolicyFor(c)));
  uint64_t digest = psk::TableDigest(masked.table);
  if (c.kind == Kind::kScheduler && digest != in.reference_digests[index]) {
    return psk::Status::FailedPrecondition(
        "replayed mask differs from the direct-run reference");
  }

  // Layer probes, outside the release span.
  {
    Span span(tracer, "table.encode", run);
    PSK_RETURN_IF_ERROR(
        psk::EncodedTable::Build(im, *hierarchies).status());
  }
  if (speedup_probe) {
    // The same search at the other lane count: 1 thread for the release
    // workloads, 4 for the scheduler's 1-thread jobs.
    size_t other = c.threads == 1 ? 4 : 1;
    psk::SearchStats other_stats;
    Span span(tracer, "algorithms.search_other_lanes", run);
    PSK_RETURN_IF_ERROR(
        Search(c, im, *hierarchies, other, &other_stats).status());
    double other_ms = span.Stop();
    double one_ms = other == 1 ? other_ms : ms["algorithms.search"];
    double four_ms = other == 1 ? ms["algorithms.search"] : other_ms;
    (*m)["algorithms.speedup_4t_vs_1t"] = one_ms / four_ms;
  }
  if (c.kind != Kind::kCsvRelease) {
    // Off the release path here: the same input's CSV rendering.
    Span probe(tracer, "probe.csv_ingest", run);
    PSK_RETURN_IF_ERROR(
        IngestCsvTraced(c, in, index, tracer, run, &chunks).status());
  }
  // The same input through the workload's own release path, untraced and
  // with the library's RunTrace on; api.run_call is the Run() call inside.
  double run_ms = 0;
  double direct_total_ms = 0;
  for (bool traced : {false, true}) {
    Span span(tracer, traced ? "api.run_traced" : "api.run", run);
    PSK_ASSIGN_OR_RETURN(Release direct, RunRelease(c, in, index, traced));
    int64_t end = tracer->trace.NowNs();
    AddLeaves(tracer, {Leaf(traced ? "api.run_traced_call" : "api.run_call",
                            end - static_cast<int64_t>(direct.run_s * 1e9),
                            end, run)});
    double total_ms = span.Stop();
    if (psk::TableDigest(direct.report.masked) != digest) {
      return psk::Status::FailedPrecondition(
          "Run() release differs from the replayed Mask output");
    }
    if (traced) {
      (*m)["api.run_trace_overhead_ratio"] = direct.run_s * 1000 / run_ms;
    } else {
      run_ms = direct.run_s * 1000;
      direct_total_ms = total_ms;
    }
  }
  if (c.kind == Kind::kScheduler) {
    // A job's run under the closed loop vs the same input's ingest and
    // Run() on this thread; both drain the input at 64-row chunks.
    (*m)["service.run_vs_direct_ratio"] =
        service.at("service.run_p50_ms") / direct_total_ms;
  } else {
    {
      Span span(tracer, "jobs.materialize", run);
      psk::JobSpec spec = MakeJobSpec(c, in, index);
      if (c.kind == Kind::kCsvRelease) {
        PSK_ASSIGN_OR_RETURN(spec.input_source,
                             CsvSource(in.csv[index], schema));
      }
      PSK_RETURN_IF_ERROR(psk::MaterializeJobInput(
          &spec, std::make_shared<psk::MemoryBudget>()));
    }
    PSK_RETURN_IF_ERROR(
        ProbeServiceJob(c, in, index, tracer, m, run, digest));
    (*m)["service.run_vs_direct_ratio"] =
        (*m)["service.run_p50_ms"] / run_ms;
  }

  double parse_ms = ms["table.csv_parse"];
  double append_ms = ms["table.append"];
  double encode_ms = ms["table.encode"];
  double search_ms = ms["algorithms.search"];
  double tail_ms = ms["generalize.mask"] + ms["guard.verify"] +
                   ms["metrics.scorecard"];
  double replayed_run_ms = ms["hierarchy.preflight"] + search_ms + tail_ms;
  (*m)["table.csv_parse_ms"] = parse_ms;
  (*m)["table.append_ms"] = append_ms;
  (*m)["table.ingest_rows_per_s"] =
      static_cast<double>(c.rows) / ((parse_ms + append_ms) / 1000);
  (*m)["table.chunks"] = static_cast<double>(chunks);
  (*m)["table.bytes"] = static_cast<double>(im.ApproxBytes());
  (*m)["table.encode_ms"] = encode_ms;
  (*m)["hierarchy.preflight_ms"] = ms["hierarchy.preflight"];
  (*m)["algorithms.search_ms"] = search_ms;
  (*m)["algorithms.search_self_ms"] = search_ms - encode_ms;
  double generalized = static_cast<double>(stats.nodes_generalized);
  double lookups =
      static_cast<double>(stats.nodes_cache_hits + stats.nodes_cache_misses);
  (*m)["algorithms.nodes_generalized"] = generalized;
  (*m)["algorithms.nodes_per_s"] = generalized / (search_ms / 1000);
  (*m)["algorithms.cache_hit_ratio"] =
      lookups == 0 ? 0 : static_cast<double>(stats.nodes_cache_hits) / lookups;
  (*m)["algorithms.condition2_prune_ratio"] =
      generalized == 0 ? 0 : stats.nodes_pruned_condition2 / generalized;
  (*m)["algorithms.satisfied_ratio"] =
      generalized == 0 ? 0 : stats.nodes_satisfied / generalized;
  (*m)["generalize.mask_ms"] = ms["generalize.mask"];
  (*m)["generalize.suppressed"] = static_cast<double>(masked.suppressed);
  (*m)["guard.verify_ms"] = ms["guard.verify"];
  for (const char* name :
       {"scorecard", "anonymity_k", "sensitivity_p", "disclosures",
        "marketer_risk", "discernibility", "avg_group_size"}) {
    std::string span = std::string("metrics.") + name;
    (*m)[span + "_ms"] = ms[span];
  }
  (*m)["api.overhead_ms"] = run_ms - replayed_run_ms;
  (*m)["jobs.materialize_ms"] = ms["jobs.materialize"];
  (*m)["bench.trace_overhead_ratio"] = release_ms / direct_total_ms;
  (*m)["bench.search_self_share"] = (search_ms - encode_ms) / release_ms;
  (*m)["bench.ingest_tail_share"] =
      (ingest_ms + encode_ms + tail_ms) / release_ms;
  return psk::Status::OK();
}

/// The scheduler's service layer under the closed loop, from one round
/// under a "service.round" span, with each job's queue wait (Submit →
/// on_start) and run (on_start → Wait return) as leaves tagged with its
/// job id.
void TraceSchedulerRound(const Config& c, const Inputs& in, size_t jobs,
                         Tracer* tracer, RunResult* out, MetricMap* m) {
  Span span(tracer, "service.round", 0);
  Round round = RunRound(c, in, 0, jobs, Clock::time_point::max());
  // The samples' steady-clock times, moved onto the trace's clock.
  int64_t offset = SteadyNs() - tracer->trace.NowNs();
  std::vector<psk::TraceEvent> leaves;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  double run_sum_ms = 0;
  for (size_t i = 0; i < round.jobs; ++i) {
    const JobSample& s = round.samples[i];
    if (!s.done) continue;
    ++out->attempted;
    psk::Status check = CheckJob(c, in, s);
    if (!check.ok()) {
      RecordFailure(out, check.ToString());
      continue;
    }
    int64_t start = s.start_ns.load();
    leaves.push_back(Leaf("service.queue_wait", s.submit_ns - offset,
                          start - offset, s.id));
    leaves.push_back(
        Leaf("service.run", start - offset, s.end_ns - offset, s.id));
    queue_ms.push_back(static_cast<double>(start - s.submit_ns) / 1e6);
    run_ms.push_back(static_cast<double>(s.end_ns - start) / 1e6);
    run_sum_ms += run_ms.back();
  }
  AddLeaves(tracer, std::move(leaves));
  (*m)["service.queue_wait_p50_ms"] = Quantile(queue_ms, 0.5);
  (*m)["service.queue_wait_p90_ms"] = Quantile(queue_ms, 0.9);
  (*m)["service.run_p50_ms"] = Quantile(run_ms, 0.5);
  (*m)["service.busy_ratio"] =
      run_sum_ms / (round.wall_s * 1000 *
                    static_cast<double>(SchedulerOptionsFor(c).max_running));
  (*m)["service.shed"] = static_cast<double>(round.stats.shed);
  (*m)["service.retries"] = static_cast<double>(round.stats.retries);
}

psk::Result<RunResult> TraceReplays(const Config& c, const Inputs& in,
                                    const RunOptions& options) {
  RunResult out;
  Tracer tracer;
  MetricMap service;  // scheduler: from the traced closed-loop round
  if (c.kind == Kind::kScheduler) {
    TraceSchedulerRound(c, in, kRoundJobs, &tracer, &out, &service);
  }
  std::map<std::string, std::vector<double>> samples;
  Clock::time_point begin = Clock::now();
  uint64_t replays = 0;
  while (replays == 0 ||
         (replays < kMaxReplays && Since(begin) < options.seconds)) {
    MetricMap m;
    size_t index = replays % in.tables.size();
    ++out.attempted;
    psk::Status status = Replay(c, in, index, replays,
                                /*speedup_probe=*/replays == 0, service,
                                &tracer, &m);
    ++replays;
    if (!status.ok()) {
      RecordFailure(&out, status.ToString());
      continue;
    }
    for (const auto& [name, value] : m) samples[name].push_back(value);
  }
  for (const auto& [name, value] : service) samples[name].push_back(value);
  for (const auto& [name, values] : samples) {
    std::string unit = "ms";
    if (name.ends_with("_ratio") || name.ends_with("_share") ||
        name.ends_with("speedup_4t_vs_1t")) {
      unit = "ratio";
    } else if (name.ends_with("_per_s")) {
      unit = "1/s";
    } else if (name == "table.bytes") {
      unit = "bytes";
    } else if (!name.ends_with("_ms")) {
      unit = "count";
    }
    out.metrics.push_back({name, Median(values), unit});
  }
  out.notes.push_back("replays: " + std::to_string(replays));
  if (!options.trace_path.empty()) {
    PSK_RETURN_IF_ERROR(tracer.trace.WriteJsonFile(options.trace_path));
    out.notes.push_back("spans written to " + options.trace_path);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "csv_release_100k", "lattice_search_8qi", "scheduler_jobs_2k"};
  return names;
}

psk::Result<RunResult> RunWorkload(const RunOptions& options) {
  if (std::find(WorkloadNames().begin(), WorkloadNames().end(),
                options.workload) == WorkloadNames().end()) {
    return psk::Status::InvalidArgument("unknown workload " +
                                        options.workload);
  }
  Config c = MakeConfig(options.workload);
  // setup_s is the median of set-ups made half before and half after the
  // measurement, so that one slow stretch of a noisy host does not set it.
  std::vector<double> setup_times;
  std::optional<Inputs> inputs;
  PSK_RETURN_IF_ERROR(RepeatSetup(c, options.seed, (kMinSetups + 1) / 2,
                                  kMinSetupSeconds / 2, &setup_times,
                                  &inputs));
  const Inputs& in = *inputs;
  HostCalibration calib = CalibrateHost();

  RunResult out;
  if (options.trace) {
    PSK_ASSIGN_OR_RETURN(out, TraceReplays(c, in, options));
    out.metrics.push_back({"host.calib_speedup_4t", calib.speedup_4t, "ratio"});
  } else {
    if (c.kind == Kind::kScheduler) {
      PSK_ASSIGN_OR_RETURN(out, MeasureScheduler(c, in, options));
    } else {
      PSK_ASSIGN_OR_RETURN(out, MeasureReleases(c, in, options));
    }
    std::optional<Inputs> discarded;
    PSK_RETURN_IF_ERROR(RepeatSetup(c, options.seed, kMinSetups,
                                    kMinSetupSeconds, &setup_times,
                                    &discarded));
    out.metrics.push_back({"setup_s", Median(setup_times), "s"});
    out.notes.push_back(SampleNote("set-ups", setup_times));
    out.notes.push_back("host.calib_speedup_4t " +
                        std::to_string(calib.speedup_4t) + " (1t " +
                        std::to_string(calib.ms_1t) + " ms, 4t " +
                        std::to_string(calib.ms_4t) + " ms)");
  }
  return out;
}

}  // namespace perfbench
