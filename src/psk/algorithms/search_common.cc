#include "psk/algorithms/search_common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>

#include "psk/common/failpoint.h"
#include "psk/common/thread_pool.h"
#include "psk/table/group_by.h"

namespace psk {

VerdictCache::~VerdictCache() {
  std::lock_guard<std::mutex> lock(mu_);
  if (memory_ != nullptr) memory_->Release(bytes_);
}

bool VerdictCache::Lookup(const std::string& key, NodeEvaluation* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  // Bump recency: splice moves the node to the front without invalidating
  // the iterators the map holds.
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->second;
  return true;
}

void VerdictCache::Insert(const std::string& key, const NodeEvaluation& eval) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.find(key) != map_.end()) return;  // first verdict wins
  uint64_t cost = EntryBytes(key);
  if (max_bytes_ != 0 && cost > max_bytes_) return;  // could never fit
  if (memory_ != nullptr) {
    Status charged = memory_->Charge(cost);
    if (!charged.ok()) {
      // The job is at its hard memory limit: losing a memoization is the
      // cheapest possible degradation, so drop the insert rather than
      // failing the evaluation that produced it.
      return;
    }
  }
  lru_.emplace_front(key, eval);
  map_.emplace(key, lru_.begin());
  bytes_ += cost;
  EvictToCapLocked();
}

void VerdictCache::set_max_bytes(uint64_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  max_bytes_ = max_bytes;
  EvictToCapLocked();
}

void VerdictCache::set_memory_budget(std::shared_ptr<MemoryBudget> budget) {
  std::lock_guard<std::mutex> lock(mu_);
  if (memory_ != nullptr) memory_->Release(bytes_);
  memory_ = std::move(budget);
  if (memory_ != nullptr && bytes_ > 0) {
    // Re-charge existing contents best effort: if the budget rejects
    // them, keep the entries (they exist either way) — the next insert's
    // eviction pressure will shrink the books back into line.
    memory_->Charge(bytes_).ok();
  }
}

void VerdictCache::EvictToCapLocked() {
  if (max_bytes_ == 0) return;
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    auto& victim = lru_.back();
    uint64_t cost = EntryBytes(victim.first);
    map_.erase(victim.first);
    lru_.pop_back();
    bytes_ = bytes_ > cost ? bytes_ - cost : 0;
    if (memory_ != nullptr) memory_->Release(cost);
  }
}

std::string SnapshotNodeKey(const LatticeNode& node) {
  std::string key;
  for (size_t i = 0; i < node.levels.size(); ++i) {
    if (i > 0) key.push_back(',');
    key += std::to_string(node.levels[i]);
  }
  return key;
}

bool AbsorbBudgetStop(const Status& status, SearchStats* stats) {
  if (!IsBudgetExhausted(status)) return false;
  if (!stats->partial) {
    stats->partial = true;
    stats->stop_reason = status.code();
  }
  return true;
}

const char* CheckStageName(CheckStage stage) {
  switch (stage) {
    case CheckStage::kPassed:
      return "passed";
    case CheckStage::kCondition1:
      return "condition1";
    case CheckStage::kCondition2:
      return "condition2";
    case CheckStage::kKAnonymity:
      return "kanonymity";
    case CheckStage::kGroupDetail:
      return "group_detail";
  }
  return "unknown";
}

void RecordStatsCounters(RunTrace* trace, const SearchStats& stats) {
  if (trace == nullptr) return;
  trace->Counter("nodes_generalized", stats.nodes_generalized);
  trace->Counter("nodes_pruned_condition2", stats.nodes_pruned_condition2);
  trace->Counter("nodes_rejected_kanonymity",
                 stats.nodes_rejected_kanonymity);
  trace->Counter("nodes_rejected_detail", stats.nodes_rejected_detail);
  trace->Counter("nodes_satisfied", stats.nodes_satisfied);
  trace->Counter("nodes_skipped", stats.nodes_skipped);
  trace->Counter("nodes_cache_hits", stats.nodes_cache_hits);
  trace->Counter("nodes_cache_misses", stats.nodes_cache_misses);
  trace->Counter("replay_ticks", stats.replay_ticks);
  trace->Counter("heights_probed", stats.heights_probed);
  trace->Counter("subset_nodes_evaluated", stats.subset_nodes_evaluated);
  trace->Attr("partial", stats.partial ? "true" : "false");
  trace->Attr("stop_reason", StatusCodeToString(stats.stop_reason));
}

/// One lane of a NodeSweeper: the per-node evaluation body plus the
/// state that must not be shared between concurrently running lanes. The
/// encoded table, the Condition 2 bound, the enforcer, the verdict cache
/// and the snapshot are read from the sweeper.
class NodeSweeper::Lane {
 public:
  explicit Lane(NodeSweeper& sweeper) : sweeper_(sweeper) {}

  /// Attaches the scratch-growth accountant (no-op without a memory
  /// budget); EvaluateEncoded delta-resizes it as the group-by buffers
  /// grow.
  Status Init() {
    return scratch_reservation_.Reserve(sweeper_.options_.budget.memory, 0);
  }

  /// Evaluates one node, updating stats(): snapshot replay, then the
  /// verdict cache, then the charged evaluation body.
  Result<NodeEvaluation> Evaluate(const LatticeNode& node);

  /// Counts one budget-free fast-forward (see NodeSweeper::TickReplay).
  Status TickReplay() {
    ++stats.replay_ticks;
    if (++replay_hits_since_check_ < kReplayCheckInterval) {
      return Status::OK();
    }
    replay_hits_since_check_ = 0;
    // Deadline/cancellation only — a fast-forward costs no real work, so
    // the node/row budget is not charged.
    return sweeper_.enforcer_->Check();
  }

  /// Upper bound on row workers per group-by; resolved to the pool's fair
  /// share at each evaluation. MUST stay 1 whenever this lane evaluates
  /// inside a ThreadPool task — a nested ParallelFor can deadlock the
  /// pool — so only lane 0, on the control thread, ever holds more.
  size_t row_workers = 1;
  SearchStats stats;
  /// Lock-free per-lane event buffer, merged by FlushTraceEvents.
  TraceEventBuffer trace_buffer;

 private:
  /// The charged evaluation body behind Evaluate.
  Result<NodeEvaluation> EvaluateEncoded(const LatticeNode& node);

  /// Records one per-node trace event (caller checked tracing is on).
  /// `path` is "encoded"/"cache"/"replay".
  void RecordEvalEvent(const std::string& key, const char* path,
                       const NodeEvaluation& eval, int64_t start_ns);

  NodeSweeper& sweeper_;
  EncodedWorkspace ws_;
  EncodedDistinctScratch distinct_scratch_;
  /// Scratch-buffer charge, delta-resized after every evaluation.
  MemoryReservation scratch_reservation_;
  uint64_t replay_hits_since_check_ = 0;
};

void NodeSweeper::Lane::RecordEvalEvent(const std::string& key,
                                        const char* path,
                                        const NodeEvaluation& eval,
                                        int64_t start_ns) {
  TraceEvent event;
  event.name = "eval";
  event.order_key = key;
  event.start_ns = start_ns;
  event.duration_ns = sweeper_.options_.trace->NowNs() - start_ns;
  event.attrs.emplace_back("node", key);
  event.attrs.emplace_back("path", path);
  event.attrs.emplace_back("stage", CheckStageName(eval.stage));
  trace_buffer.Record(std::move(event));
}

Result<NodeEvaluation> NodeSweeper::Lane::Evaluate(const LatticeNode& node) {
  if (!sweeper_.condition1_holds_) {
    return Status::FailedPrecondition(
        "Condition 1 fails for the requested p; no node can satisfy it");
  }
  RunTrace* trace = sweeper_.options_.trace;
  // Every lane shares the sweeper's cache, so a key is always needed.
  std::string key = SnapshotNodeKey(node);
  int64_t trace_start = trace != nullptr ? trace->NowNs() : 0;
  if (sweeper_.checkpointing_) {
    // Checkpointing means one lane, so this lane owns the snapshot.
    auto cached = sweeper_.snapshot_.verdicts.find(key);
    if (cached != sweeper_.snapshot_.verdicts.end()) {
      // Resume fast-forward: recount the stored verdict into the stats
      // exactly as the original evaluation did, so a resumed run finishes
      // with the same counters as an uninterrupted one. No budget charge —
      // no table was generalized — but deadline and cancellation are still
      // polled so a replay of a large snapshot can be stopped.
      PSK_RETURN_IF_ERROR(TickReplay());
      const NodeEvaluation& eval = cached->second;
      ++stats.nodes_generalized;
      // Recount the cache miss the original evaluation made, so the
      // resumed run's totals converge on the uninterrupted run's.
      ++stats.nodes_cache_misses;
      switch (eval.stage) {
        case CheckStage::kKAnonymity:
          ++stats.nodes_rejected_kanonymity;
          break;
        case CheckStage::kCondition2:
          ++stats.nodes_pruned_condition2;
          break;
        case CheckStage::kGroupDetail:
          ++stats.nodes_rejected_detail;
          break;
        default:
          break;
      }
      if (eval.satisfied) ++stats.nodes_satisfied;
      // Replayed once; any further request this run is a plain re-request
      // and must not recount, so it goes to the skip-semantics cache.
      sweeper_.cache_->Insert(key, eval);
      if (trace != nullptr) RecordEvalEvent(key, "replay", eval, trace_start);
      sweeper_.TickCheckpoint();
      return eval;
    }
  }
  NodeEvaluation hit;
  if (sweeper_.cache_->Lookup(key, &hit)) {
    // Already evaluated (and counted) once in this run — re-serve the
    // verdict for free, still honoring deadline/cancellation.
    PSK_RETURN_IF_ERROR(TickReplay());
    ++stats.nodes_cache_hits;
    if (trace != nullptr) RecordEvalEvent(key, "cache", hit, trace_start);
    return hit;
  }
  ++stats.nodes_cache_misses;
  PSK_ASSIGN_OR_RETURN(NodeEvaluation eval, EvaluateEncoded(node));
  // Completed verdicts enter the snapshot so the next checkpoint persists
  // them; a budget stop inside the body never reaches here, keeping the
  // snapshot free of half-finished evaluations.
  sweeper_.cache_->Insert(key, eval);
  if (trace != nullptr) RecordEvalEvent(key, "encoded", eval, trace_start);
  if (sweeper_.checkpointing_) {
    sweeper_.snapshot_.verdicts.emplace(std::move(key), eval);
  }
  sweeper_.TickCheckpoint();
  return eval;
}

Result<NodeEvaluation> NodeSweeper::Lane::EvaluateEncoded(
    const LatticeNode& node) {
  // Torture seam: a hard error in the middle of a sweep, after earlier
  // nodes did real work (SearchOptions::failure_stats must keep it).
  PSK_FAIL_POINT("algorithms.node.evaluate");
  const SearchOptions& options = sweeper_.options_;
  const EncodedTable& encoded = *sweeper_.encoded_;
  // Budget checkpoint: every node evaluation groups the whole table, so
  // the node is the natural unit of work to account.
  PSK_RETURN_IF_ERROR(
      sweeper_.enforcer_->Charge(1, sweeper_.im_.num_rows()));
  ++stats.nodes_generalized;
  // Fine decomposition axis: grant the group-by its row workers, resolved
  // against the pool's current fair share so a saturated pool degrades to
  // the sequential path instead of queueing. Verdicts are identical at
  // any lane count (GroupByCodesSliced is bit-identical to sequential).
  ws_.min_rows_per_slice = options.min_rows_per_slice;
  ws_.row_workers = row_workers <= 1
                        ? 1
                        : ThreadPool::Shared().FairShareWorkers(row_workers);
  PSK_RETURN_IF_ERROR(encoded.GroupByNode(node, &ws_));
  // GroupByCodes scratch memory seam: charge only growth (the buffers are
  // reused across evaluations, so this settles after warm-up). Exceeding
  // the hard limit here surfaces as kResourceExhausted — a budget stop
  // the sweep absorbs into a best-so-far partial result.
  PSK_RETURN_IF_ERROR(scratch_reservation_.Resize(ws_.ApproxBytes()));
  const EncodedGroups& groups = ws_.groups;

  NodeEvaluation eval;
  // k-anonymity gate: suppression may remove at most TS tuples.
  size_t violating = groups.RowsInGroupsSmallerThan(options.k);
  eval.suppressed = violating;
  if (violating > options.max_suppression) {
    eval.stage = CheckStage::kKAnonymity;
    ++stats.nodes_rejected_kanonymity;
    return eval;
  }

  // Surviving groups form the masked microdata.
  size_t num_groups = groups.GroupsAtLeast(options.k);
  eval.num_groups = num_groups;

  if (options.p >= 2) {
    // Condition 2 on the *post-suppression* group count. (Algorithm 3 as
    // printed counts groups before suppression; suppression can only
    // remove whole groups, so the post-suppression count is tighter and
    // still sound against the IM-level maxGroups bound of Theorem 2.)
    if (options.use_conditions &&
        static_cast<uint64_t>(num_groups) > sweeper_.max_groups_) {
      eval.stage = CheckStage::kCondition2;
      ++stats.nodes_pruned_condition2;
      return eval;
    }
    // Counting-sort distinct scan over surviving groups, stopping at the
    // first group with fewer than p distinct values in some column.
    if (!IsPSensitiveEncoded(groups, encoded, options.p, options.k,
                             &distinct_scratch_)) {
      eval.stage = CheckStage::kGroupDetail;
      ++stats.nodes_rejected_detail;
      return eval;
    }
  }

  eval.satisfied = true;
  eval.stage = CheckStage::kPassed;
  ++stats.nodes_satisfied;
  return eval;
}

NodeSweeper::NodeSweeper(const Table& initial_microdata,
                         const HierarchySet& hierarchies,
                         SearchOptions options)
    : im_(initial_microdata),
      hierarchies_(hierarchies),
      options_(std::move(options)) {}

NodeSweeper::~NodeSweeper() = default;

Status NodeSweeper::Init() {
  if (options_.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (options_.p < 1) return Status::InvalidArgument("p must be >= 1");
  if (options_.p > options_.k) {
    return Status::InvalidArgument("p must be <= k");
  }
  if (im_.schema().KeyIndices().empty()) {
    return Status::FailedPrecondition(
        "the schema declares no key (quasi-identifier) attributes");
  }
  if (options_.p >= 2 && im_.schema().ConfidentialIndices().empty()) {
    return Status::FailedPrecondition(
        "p >= 2 requires at least one confidential attribute");
  }

  // Encode the table once and share it across lanes — the encoding is
  // immutable after Build, so concurrent GroupByNode calls (each with a
  // per-lane workspace) are race-free. A failed build is the search's
  // error.
  {
    TraceSpan span(options_.trace, "encode");
    PSK_ASSIGN_OR_RETURN(EncodedTable built,
                         EncodedTable::Build(im_, hierarchies_));
    encoded_ = std::make_shared<const EncodedTable>(std::move(built));
    span.Attr("path", "encoded");
    span.Counter("rows", im_.num_rows());
  }
  // EncodedTable::Build memory seam: one charge for the whole search. A
  // rejected charge fails Init with kResourceExhausted before any node is
  // evaluated — the fallback chain decides what runs instead.
  PSK_RETURN_IF_ERROR(encoded_reservation_.Reserve(options_.budget.memory,
                                                   encoded_->ApproxBytes()));

  if (options_.p >= 2) {
    // Theorems 1 and 2: bounds computed on the initial microdata are valid
    // for every masked microdata derived by generalization + suppression.
    // The encoded overload counts over dictionary codes and yields the
    // same statistics as the Value path.
    PSK_ASSIGN_OR_RETURN(FrequencyStats stats,
                         FrequencyStats::Compute(*encoded_));
    max_p_ = stats.MaxP();
    condition1_holds_ = options_.p <= max_p_;
    if (condition1_holds_) {
      PSK_ASSIGN_OR_RETURN(max_groups_, stats.MaxGroups(options_.p));
    }
  }

  enforcer_ = std::make_shared<BudgetEnforcer>(options_.budget);
  // An externally owned cache (SearchOptions::verdict_cache) lets a
  // scheduler watch bytes_used() and Shrink() the cache mid-run; a
  // private cache is wired to the job's memory budget here so its
  // inserts are accounted either way.
  cache_ = options_.verdict_cache;
  if (cache_ == nullptr) {
    cache_ = std::make_shared<VerdictCache>();
    if (options_.budget.memory != nullptr) {
      cache_->set_memory_budget(options_.budget.memory);
    }
  }

  // Checkpointed runs stay sequential: the snapshot has one owner, and
  // resume's deterministic-replay guarantee forbids non-deterministic
  // shard interleaving.
  checkpointing_ =
      options_.restore != nullptr || options_.checkpoint_sink != nullptr;
  if (options_.restore != nullptr) snapshot_ = *options_.restore;
  size_t num_lanes =
      checkpointing_ ? 1 : std::max<size_t>(options_.threads, 1);
  lanes_.clear();
  for (size_t l = 0; l < num_lanes; ++l) {
    lanes_.push_back(std::make_unique<Lane>(*this));
    PSK_RETURN_IF_ERROR(lanes_.back()->Init());
  }
  // Lane 0's direct evaluations (Evaluate, narrow sweeps) run on the
  // control thread, so they may use the fine axis; SweepNodes lowers the
  // cap to 1 around its pool regions.
  lanes_.front()->row_workers = num_lanes;
  return Status::OK();
}

Result<NodeEvaluation> NodeSweeper::Evaluate(const LatticeNode& node) {
  return lanes_.front()->Evaluate(node);
}

SearchStats* NodeSweeper::mutable_stats() { return &lanes_.front()->stats; }

bool NodeSweeper::LookupFact(const std::string& key, bool* value) const {
  auto it = snapshot_.facts.find(key);
  if (it == snapshot_.facts.end()) return false;
  *value = it->second;
  return true;
}

void NodeSweeper::RecordFact(const std::string& key, bool value) {
  if (!checkpointing_) return;
  snapshot_.facts[key] = value;
}

Status NodeSweeper::TickReplay() { return lanes_.front()->TickReplay(); }

void NodeSweeper::TickCheckpoint() {
  if (options_.checkpoint_sink == nullptr) return;
  if (++ticks_since_checkpoint_ < std::max<uint64_t>(
          options_.checkpoint_interval, 1)) {
    return;
  }
  FlushCheckpoint();
}

void NodeSweeper::FlushCheckpoint() {
  if (options_.checkpoint_sink == nullptr) return;
  ticks_since_checkpoint_ = 0;
  // Checkpointing forces a single sequential lane, so this always runs
  // on the control thread and may open spans on the trace directly.
  TraceSpan span(options_.trace, "checkpoint_io");
  span.Counter("verdicts", snapshot_.verdicts.size());
  span.Counter("facts", snapshot_.facts.size());
  options_.checkpoint_sink(snapshot_);
}

Result<MaskedMicrodata> NodeSweeper::Materialize(
    const LatticeNode& node) const {
  // Decode exactly once from the code vectors; byte-identical to Mask
  // (same memoized generalization, same row order).
  EncodedWorkspace ws;
  return DecodeMasked(*encoded_, node, options_.k, &ws);
}

Status NodeSweeper::Sweep(const std::vector<LatticeNode>& nodes,
                          std::vector<std::optional<NodeEvaluation>>* evals) {
  RunTrace* trace = options_.trace;
  if (trace == nullptr) return SweepNodes(nodes, evals);

  // Events still pending from direct Evaluate calls belong to the
  // engine's enclosing span, not to this sweep.
  FlushTraceEvents();
  trace->Begin("sweep");
  trace->Counter("nodes", nodes.size());
  Status status = SweepNodes(nodes, evals);
  FlushTraceEvents();
  trace->End();
  return status;
}

size_t NodeSweeper::BatchSize(size_t count, size_t active) const {
  if (active <= 1 || count == 0) return count == 0 ? 1 : count;
  // Nodes per task carrying ~kTargetBatchNs of measured work. Before the
  // first measurement, one node per task — the historical behavior — and
  // the first sweep's throughput sample corrects it from there.
  size_t by_time = 1;
  if (nodes_per_sec_ > 0) {
    by_time = static_cast<size_t>(nodes_per_sec_ * (kTargetBatchNs / 1e9));
    if (by_time < 1) by_time = 1;
  }
  // Never fewer tasks than workers, or lanes sit idle from the start.
  size_t max_batch = (count + active - 1) / active;
  return std::min(by_time, max_batch);
}

namespace {

/// Folds one sweep's measured per-lane throughput sample into the EWMA.
void UpdateThroughput(size_t evaluated, size_t lanes,
                      std::chrono::steady_clock::time_point begin,
                      double* nodes_per_sec) {
  if (evaluated == 0 || lanes == 0) return;
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - begin)
                    .count();
  if (secs <= 0) return;
  double sample = static_cast<double>(evaluated) / secs /
                  static_cast<double>(lanes);
  *nodes_per_sec =
      *nodes_per_sec > 0 ? 0.5 * (*nodes_per_sec + sample) : sample;
}

}  // namespace

Status NodeSweeper::SweepNodes(
    const std::vector<LatticeNode>& nodes,
    std::vector<std::optional<NodeEvaluation>>* evals) {
  evals->assign(nodes.size(), std::nullopt);
  size_t active = std::min(lanes_.size(), nodes.size());
  // Fair-share: when other sweeps are on the pool, take only an equal
  // split of it. Safe for correctness by the determinism contract (the
  // release and stats are identical for any worker count).
  if (active > 1) {
    active = ThreadPool::Shared().FairShareWorkers(active);
  }
  RunTrace* trace = options_.trace;
  const auto sweep_begin = std::chrono::steady_clock::now();

  if (active <= 1) {
    // Sequential over nodes, on the control thread — so the fine axis may
    // engage: when parallelism was requested but this sweep is too narrow
    // to shard (fewer nodes than workers, or the pool's fair share is
    // down to one lane right now), spend the lanes *inside* each node's
    // group-by instead. The cap is resolved against the live fair share
    // per evaluation; only a control thread may do this (a nested
    // ParallelFor from a pool task can deadlock).
    if (trace != nullptr && lanes_.size() > 1) {
      trace->Timing("row_workers", lanes_.size());
    }
    Status status = Status::OK();
    size_t evaluated = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      Result<NodeEvaluation> eval = Evaluate(nodes[i]);
      if (!eval.ok()) {
        status = eval.status();
        break;
      }
      (*evals)[i] = *eval;
      ++evaluated;
    }
    UpdateThroughput(evaluated, 1, sweep_begin, &nodes_per_sec_);
    return status;
  }

  // Coarse axis: nodes grouped into per-task batches (BatchSize) so one
  // pool dispatch amortizes over >= ~10ms of work. Dynamic scheduling is
  // safe for determinism because every node is evaluated regardless of
  // which worker draws which batch; verdicts land in per-index slots and
  // counter sums are order-independent. Lane 0 evaluates inside the
  // pool region here, so its row-worker cap must be 1.
  lanes_.front()->row_workers = 1;
  const size_t batch = BatchSize(nodes.size(), active);
  const size_t num_batches = (nodes.size() + batch - 1) / batch;
  std::atomic<bool> stop{false};
  std::vector<Status> worker_status(active, Status::OK());
  // Per-lane busy time; written only by the lane owning the slot.
  // Measured once per *batch*, so per-task dispatch overhead is counted
  // exactly once per batch rather than accumulating per node.
  std::vector<int64_t> busy_ns(trace != nullptr ? active : 0, 0);
  if (trace != nullptr) {
    // Scheduling observations are Timings (non-structural): batch size
    // and lane count depend on measured throughput and pool load, and
    // must never enter the StructureSignature.
    trace->Timing("workers", active);
    trace->Timing("queue_depth", ThreadPool::Shared().ApproxQueueDepth());
    trace->Timing("batch_size", batch);
    trace->Timing("batches", num_batches);
  }
  // Shards carry the owning job's CancelToken: a pool worker that draws a
  // shard of a cancelled job observes the token before doing any work and
  // drains it immediately, so one dead job's queued shards can never
  // stall a neighbor sharing the pool.
  const CancelToken* cancel = options_.budget.cancel.get();
  ThreadPool::Shared().ParallelFor(
      num_batches, active, [&](size_t worker, size_t b) {
        if (stop.load(std::memory_order_relaxed)) return;  // drain fast
        const size_t begin = b * batch;
        const size_t end = std::min(begin + batch, nodes.size());
        int64_t begin_ns = trace != nullptr ? trace->NowNs() : 0;
        for (size_t index = begin; index < end; ++index) {
          // Re-check between nodes so a long batch drains mid-flight —
          // batching must not widen cancellation latency past one node.
          if (stop.load(std::memory_order_relaxed)) break;
          if (cancel != nullptr && cancel->cancelled()) {
            if (worker_status[worker].ok()) {
              worker_status[worker] = Status::Cancelled(
                  "run cancelled by caller");
            }
            stop.store(true, std::memory_order_relaxed);
            break;
          }
          Result<NodeEvaluation> eval = lanes_[worker]->Evaluate(nodes[index]);
          if (!eval.ok()) {
            if (worker_status[worker].ok()) {
              worker_status[worker] = eval.status();
            }
            // A tripped enforcer poisons every later Charge anyway; the
            // flag just skips the pointless evaluations in between.
            stop.store(true, std::memory_order_relaxed);
            break;
          }
          (*evals)[index] = *eval;
        }
        if (trace != nullptr) {
          busy_ns[worker] += trace->NowNs() - begin_ns;
        }
      });
  // Restore lane 0's control-thread default for the direct evaluations
  // engines make between sweeps.
  lanes_.front()->row_workers = lanes_.size();
  if (trace != nullptr) {
    for (size_t w = 0; w < busy_ns.size(); ++w) {
      trace->Timing("w" + std::to_string(w) + "_busy_ns",
                    static_cast<uint64_t>(busy_ns[w]));
    }
  }
  size_t evaluated = 0;
  for (const std::optional<NodeEvaluation>& eval : *evals) {
    if (eval.has_value()) ++evaluated;
  }
  UpdateThroughput(evaluated, active, sweep_begin, &nodes_per_sec_);

  // Hard errors (first by worker order) outrank budget stops: they must
  // propagate, while a budget stop is a valid partial result.
  Status budget_stop = Status::OK();
  for (const Status& status : worker_status) {
    if (status.ok()) continue;
    if (IsBudgetExhausted(status)) {
      if (budget_stop.ok()) budget_stop = status;
    } else {
      return status;
    }
  }
  return budget_stop;
}

void NodeSweeper::FlushTraceEvents() {
  if (options_.trace == nullptr) return;
  std::vector<TraceEvent> events;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    if (lane->trace_buffer.empty()) continue;
    std::vector<TraceEvent> drained = lane->trace_buffer.Take();
    events.insert(events.end(), std::make_move_iterator(drained.begin()),
                  std::make_move_iterator(drained.end()));
  }
  if (!events.empty()) options_.trace->MergeEvents(std::move(events));
}

SearchStats NodeSweeper::MergedStats() const {
  SearchStats merged;
  for (const std::unique_ptr<Lane>& lane : lanes_) merged.Add(lane->stats);
  return merged;
}

Status NodeSweeper::PropagateHardError(Status status) const {
  if (options_.failure_stats != nullptr) {
    *options_.failure_stats = MergedStats();
  }
  return status;
}

}  // namespace psk
