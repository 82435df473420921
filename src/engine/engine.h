// Epoch-batched query serving engine: the multi-query driver of the query
// codec (core/query.h).
//
// QueryEngine, the one-shot driver, runs one query per VMAT execution, and
// every execution pays for an authenticated announcement plus a full tree
// formation. The Engine amortizes that: queries are submitted into a
// queue, and each serving round packs up to max_in_flight of them into ONE
// wide run_query() over the current *epoch* — a tree formed once by
// prepare_epoch() and shared until a revocation (or rekey) invalidates it.
// An epoch that only went stale (a one-shot execution or a fork ran in
// between) comes back from its snapshot instead of being re-formed. The
// combined execution's instance space is the concatenation of the packed
// queries' blocks, encoded, filled, validated and decoded by the same codec
// calls QueryEngine makes; every synopsis block keeps its own query nonce,
// so each query's synopses are exactly what a standalone execution would
// use and the per-execution security argument (Theorem 2 / Theorem 7) is
// unchanged — only the formation cost is shared. The Engine itself owns
// packing, admission, backoff and epochs.
//
// Disruption handling is the Theorem 7 retry loop: a disrupted execution
// revokes adversary key material, invalidates the epoch, and leaves the
// packed queries queued. Each query carries an execution budget (its
// deadline); the engine applies slow-start admission — after a disruption
// the next round packs a single query (so one disruption burns one query's
// attempt, not the whole batch's), and the window doubles per clean round
// back up to max_in_flight — plus a nominal exponential backoff counter
// (EngineStats::backoff) a deployment would sleep between rounds.
//
// Determinism contract: queries are packed in submission order, nonces are
// drawn serially before any parallel work, and the thread pool only builds
// per-block synopsis grids (pure PRG evaluation, disjoint column writes).
// Results are bit-identical for any VMAT_THREADS.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/coordinator.h"
#include "core/query.h"
#include "util/error.h"
#include "util/parallel.h"

namespace vmat {

struct EngineResult {
  std::uint64_t id{0};
  EngineQueryKind kind{EngineQueryKind::kCount};
  /// The estimate, when the query was answered. Exact for kMin/kMax.
  std::optional<double> estimate;
  /// kDeadlineExceeded / kBudgetExhausted / kUnavailable / kQueueFull /
  /// kInvalidArgument when the query was not answered.
  std::optional<Error> error;
  /// Executions this query participated in (clean and disrupted).
  int executions{0};
  /// Epoch that served the final execution (0 if never executed).
  std::uint64_t epoch_id{0};

  [[nodiscard]] bool answered() const noexcept { return estimate.has_value(); }
};

struct EngineConfig {
  /// Admission control: queries packed into one combined execution.
  std::uint32_t max_in_flight{16};
  /// Admission control: submissions beyond this fail with kQueueFull.
  std::size_t queue_depth{256};
  /// Width cap for one combined execution; a round stops packing when the
  /// next query's blocks would exceed it (the first query always fits).
  std::uint32_t max_instances_per_execution{8192};
  /// Default per-query execution budget (EngineQuery::max_executions = 0).
  int default_deadline{64};
  /// Nominal backoff doubling base/cap (rounds a deployment would wait
  /// between disrupted executions; surfaced via EngineStats::backoff).
  std::uint64_t backoff_base{1};
  std::uint64_t backoff_cap{64};
  /// Engine-level budget: drain() fails everything still pending with
  /// kBudgetExhausted once this many rounds have run.
  std::uint64_t max_rounds{100000};
};

/// Per-epoch rollup: formation cost plus everything served on that tree.
struct EpochRollup {
  std::uint64_t epoch_id{0};
  /// The epoch was restored from its snapshot instead of formed (see
  /// Epoch::restored): zero formation rounds/bytes (the tree was restored,
  /// not re-flooded).
  bool rearmed{false};
  int formation_rounds{0};
  std::uint64_t formation_bytes{0};
  std::uint64_t executions{0};
  std::uint64_t queries_served{0};
  std::uint64_t fabric_bytes{0};  ///< execution bytes (formation excluded)
  /// Metered counters: the formation slice plus every execution slice
  /// served under this epoch.
  ExecutionMetrics metrics;
};

struct EngineStats {
  std::uint64_t rounds{0};
  std::uint64_t executions{0};
  std::uint64_t disrupted_executions{0};
  /// Epochs served on, by how they were prepared (by this engine or
  /// before it saw them): formed, or restored from their formation
  /// snapshot — the zero-flooding recovery path.
  std::uint64_t epochs_formed{0};
  std::uint64_t epochs_rearmed{0};
  std::uint64_t queries_answered{0};
  std::uint64_t queries_failed{0};
  /// Current nominal backoff (0 after a clean round).
  std::uint64_t backoff{0};
  /// Current admission window (slow-start state).
  std::uint32_t window{1};
  std::uint64_t fabric_bytes{0};  ///< executions + epoch formations
};

class Engine {
 public:
  /// `coordinator` must outlive the engine. `pool` runs the per-block grid
  /// builds; nullptr = ThreadPool::shared().
  explicit Engine(VmatCoordinator* coordinator, EngineConfig config = {},
                  ThreadPool* pool = nullptr);

  /// Enqueue a query. Fails with kInvalidArgument (malformed payload) or
  /// kQueueFull (queue_depth reached) without enqueuing.
  Expected<std::uint64_t> submit(EngineQuery query);

  /// Serve every queued query to completion (answer, deadline, or engine
  /// budget), one epoch-batched round at a time. Returns results in
  /// submission order and empties the queue.
  std::vector<EngineResult> drain();

  // --- non-blocking serving seams (the vmatd daemon drives these) ---

  /// Ensure the serving epoch is ready without running any query
  /// (VmatCoordinator::prepare_epoch(): a no-op while ready, a restore from
  /// its snapshot when its tree is still current, a formation otherwise),
  /// and open a rollup for an epoch this engine has not served yet, also
  /// one the coordinator prepared before the engine saw it. This is the
  /// pipelining seam — a multiplexer calls it on an idle tenant so the
  /// tree formation overlaps other tenants' serving rounds and the next
  /// burst of queries lands on a warm epoch.
  void prepare();

  /// Run at most ONE serving round (prepare() + pack + one combined
  /// execution + settle) if any query is open. Returns true while open
  /// queries remain afterwards — callers interleave step() across engines
  /// instead of blocking in drain(). Settled queries stay queued until
  /// take_ready() collects them.
  bool step();

  /// Remove and return every settled query's result (submission order
  /// preserved among them); open queries stay queued. The incremental
  /// counterpart of drain() for callers that poll.
  std::vector<EngineResult> take_ready();

  /// submit() + drain(): accepted queries come back in request order;
  /// submissions rejected by admission control are appended after them as
  /// failed results (id 0), not thrown.
  std::vector<EngineResult> run_batch(std::vector<EngineQuery> queries);

  [[nodiscard]] std::size_t queued() const noexcept { return pending_.size(); }
  /// Queued queries not yet settled (queued() also counts settled results
  /// awaiting take_ready()).
  [[nodiscard]] std::size_t open_queries() const noexcept {
    std::size_t open = 0;
    for (const Pending& p : pending_)
      if (!p.done) ++open;
    return open;
  }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  /// One rollup per epoch this engine served on, in epoch order.
  [[nodiscard]] const std::vector<EpochRollup>& epoch_rollups() const noexcept {
    return epochs_;
  }

 private:
  struct Pending {
    std::uint64_t id{0};
    EngineQuery query;
    int executions{0};
    int deadline{0};
    bool done{false};
    EngineResult result;
    QueryProgress progress;
  };

  /// One serving round: ensure an epoch, pack up to the admission window,
  /// run one combined execution, settle the packed queries.
  void run_round();
  void settle_failure(Pending& p, Error error);

  VmatCoordinator* coordinator_;
  EngineConfig config_;
  ThreadPool* pool_;
  std::vector<Pending> pending_;
  std::vector<EpochRollup> epochs_;
  EngineStats stats_;
  std::uint64_t next_id_{1};
};

}  // namespace vmat
