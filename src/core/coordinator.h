// The VMAT execution driver — Figure 1's state machine, run by the trusted
// base station.
//
// Every execution follows Figure 1: an authenticated announcement and a
// tree formation, then a query block with fresh nonces — query
// announcement → aggregation → junk check → authenticated minimum
// broadcast → confirmation/SOF → veto check, and, on any trigger, the
// corresponding pinpointing/revocation protocol. A query block returns
// either per-instance minima (guaranteed correct, Theorem 2) or the
// keys/sensors revoked (guaranteed adversary-held, Theorem 6) — the
// Theorem 7 disjunction.
//
// Inputs take one form: a ValueTable of values and one of weights, both
// covering every node and `values.instances` wide. Three verbs reach the
// query block, each one formation prefix plus the same block:
//   * One-shot: execute() forms a tree and runs the block over it.
//   * Fork: snapshot_after_formation() forms a tree and captures it;
//     resume_from() restores the capture and runs the block, any number of
//     times, on this coordinator or on a compatible one.
//   * Serve: prepare_epoch() ensures a ready epoch; run_query() runs the
//     block over its tree until a revocation or rekey invalidates it.
// run_min(), resume_min() and run_until_result() are MIN and Theorem 7
// shorthands over those verbs. Every verb checks its inputs before any
// state moves: a rejected call forms nothing and draws no nonce.
//
// Why two formation verbs remain: a fork must reproduce a one-shot
// execute() bit for bit, so it rewinds the nonce stream and meters the
// formation into the outcome; an epoch serves consecutive queries with
// fresh nonces and meters the formation into the Epoch. Either way each
// query block draws its own query/confirmation nonces, so the
// per-execution security argument is unchanged — only the tree-formation
// cost is shared.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "attack/adversary.h"
#include "broadcast/auth_broadcast.h"
#include "core/aggregation.h"
#include "core/confirmation.h"
#include "core/phase_state.h"
#include "core/pinpoint.h"
#include "core/tree_formation.h"
#include "sim/network.h"
#include "sim/snapshot.h"
#include "trace/trace.h"

namespace vmat {

struct CoordinatorSpec {
  Level depth_bound{0};  ///< announced L; 0 = use the physical depth
  TreeMode tree_mode{TreeMode::kTimestamp};
  bool multipath{false};     ///< Section IV-D ring aggregation
  bool slotted_sof{true};    ///< false = unslotted ablation
  std::uint32_t instances{1};
  std::uint64_t seed{0x5eed};  ///< nonce/session generator seed
  /// How keyed predicate tests execute during pinpointing: the exact
  /// reachability collapse (fast, default) or the full fabric-level
  /// verified flood.
  PredicateTestMode predicate_mode{PredicateTestMode::kReachability};
};

class SimulationSpec;

enum class OutcomeKind : std::uint8_t { kResult, kRevocation };

enum class Trigger : std::uint8_t {
  kNone,               ///< clean run: result returned
  kVeto,               ///< Figure 1 step 8
  kJunkAggregation,    ///< Figure 1 step 4
  kJunkConfirmation,   ///< Figure 1 step 7
  kSelfIncrimination,  ///< valid-MAC message with impossible semantics
};

struct ExecutionOutcome {
  OutcomeKind kind{OutcomeKind::kResult};
  Trigger trigger{Trigger::kNone};
  /// Per-instance minima; kInfinity where no message arrived. Only
  /// meaningful when kind == kResult.
  std::vector<Reading> minima;
  std::vector<KeyIndex> revoked_keys;
  std::vector<NodeId> revoked_sensors;
  std::string reason;
  /// O(1) data-path flooding rounds (announcements + phases).
  int data_rounds{0};
  /// Pinpointing cost (zero for clean runs).
  CostMeter pinpoint_cost;
  /// Payload bytes moved by the fabric during this execution. Always equal
  /// to metrics.totals().bytes_sent — the fabric and the flight recorder
  /// meter the same frame-size definition (frame_size in sim/fabric.h).
  std::uint64_t fabric_bytes{0};
  /// Typed per-phase counters collected by the flight recorder for this
  /// execution (always metered, even with no recorder attached).
  ExecutionMetrics metrics;

  [[nodiscard]] bool produced_result() const noexcept {
    return kind == OutcomeKind::kResult;
  }
};

/// Validates the content of an aggregation message beyond its sensor-key
/// MAC (e.g. synopsis consistency). Returning false marks it spurious.
using ContentValidator = std::function<bool(const AggMessage&)>;

/// A served epoch: one authenticated announcement + tree formation whose
/// tree is shared by every run_query() until a revocation invalidates it.
struct Epoch {
  std::uint64_t id{0};       ///< 1-based epoch ordinal; 0 = none yet
  std::uint64_t session{0};  ///< the tree-formation session nonce
  /// Restored from the formation's snapshot instead of formed: this id
  /// spent no flooding rounds, and the formation fields below describe
  /// the formation it restored.
  bool restored{false};
  /// Flooding rounds spent on formation (announcement + tree phase).
  int formation_rounds{0};
  /// Metrics for the formation slice only; query executions meter their
  /// own slices into ExecutionOutcome::metrics.
  ExecutionMetrics metrics;
  /// Fabric bytes moved by the formation slice.
  std::uint64_t fabric_bytes{0};
  // Revocation/key-material state at formation (any change means the
  // formed tree may be stale).
  std::size_t revoked_keys{0};
  std::size_t revoked_sensors{0};
  std::uint64_t key_generation{0};
};

class VmatCoordinator {
 public:
  VmatCoordinator(Network* net, Adversary* adversary, CoordinatorSpec config);

  /// Construct from a validated SimulationSpec (throws
  /// std::invalid_argument with the joined validation report otherwise).
  VmatCoordinator(Network* net, Adversary* adversary,
                  const SimulationSpec& spec);

  // --- one-shot ---

  /// Formation, then one query block config().instances wide (kInfinity
  /// value = the node contributes nothing for that instance). `validate`
  /// defaults to "raw reading" semantics (weight must be 0). Orphans any
  /// prepared epoch's tree.
  [[nodiscard]] ExecutionOutcome execute(const ValueTable& values,
                                         const ValueTable& weights,
                                         const ContentValidator& validate = {});

  /// Plain MIN execute() over one reading per node (instances must be 1;
  /// byzantine sensors substitute their strategy's own_reading).
  [[nodiscard]] ExecutionOutcome run_min(const std::vector<Reading>& readings);

  /// Re-run execute() until it produces a result, revoking adversary keys
  /// along the way — the "strictly diminishing capability" loop. Throws
  /// after `max_executions` attempts.
  [[nodiscard]] std::vector<ExecutionOutcome> run_until_result(
      const ValueTable& values, const ValueTable& weights,
      const ContentValidator& validate = {}, int max_executions = 1000);

  // --- fork (post-formation snapshots, sim/snapshot.h) ---

  /// Run execute()'s prefix — fresh session nonce, authenticated
  /// announcement, tree formation — and capture the complete
  /// post-formation state. The coordinator is left mid-execution; finish
  /// it any number of times with resume_from(), on this coordinator or on
  /// any compatible one (same topology/keys/config; enforced by a
  /// fingerprint check). An attached recorder observes the prefix live here
  /// AND replayed by every restore — for one complete stream per fork,
  /// attach the recorder to the forking coordinator after the capture. The
  /// fork contract: the malicious *set* shaped formation and must stay
  /// fixed across forks — strategies may diverge post-formation (every
  /// PredicatedStrategy shares the honest tree-slot behavior), rebound via
  /// set_adversary().
  [[nodiscard]] Snapshot snapshot_after_formation();

  /// Restore the captured state and run one query block over it,
  /// `values.instances` wide. Bit-identical to the execute() that would
  /// have run the same prefix: same nonce stream, same stats, and — with a
  /// recorder attached — the same event stream, because the captured
  /// prefix events are replayed into the sink before the live phases run.
  [[nodiscard]] ExecutionOutcome resume_from(
      const Snapshot& snapshot, const ValueTable& values,
      const ValueTable& weights, const ContentValidator& validate = {});

  /// run_min()'s fork twin: the same per-node readings, finished via
  /// resume_from().
  [[nodiscard]] ExecutionOutcome resume_min(
      const Snapshot& snapshot, const std::vector<Reading>& readings);

  // --- serve (engine/engine.h drives these) ---

  /// Ensure a ready epoch and return it:
  ///   * a no-op while epoch_ready();
  ///   * a restore when the epoch went stale with no revocation or rekey
  ///     since its formation (an intervening one-shot execution or fork):
  ///     the tree comes back from the snapshot captured at formation, in
  ///     O(state) and zero flooding rounds. The nonce stream, the broadcast
  ///     chain cursor and the trace ordinals keep advancing across it, so a
  ///     restored epoch never reuses a nonce or a chain element;
  ///   * a formation otherwise: authenticated announcement + tree
  ///     formation under a fresh session nonce.
  /// A restore or a formation opens a new epoch id.
  const Epoch& prepare_epoch();

  /// A prepare_epoch() tree exists and no revocation / rekey / path-key
  /// change (or intervening execute() or fork) has stalled it.
  [[nodiscard]] bool epoch_ready() const noexcept;

  /// The current epoch (id 0 when none was prepared yet).
  [[nodiscard]] const Epoch& epoch() const noexcept { return epoch_; }

  /// One query block over the ready epoch's tree, `values.instances` wide
  /// (the serving engine packs many queries into one wide block), with
  /// fresh per-query nonces. Throws std::logic_error without a ready epoch.
  /// A kRevocation outcome invalidates the epoch.
  [[nodiscard]] ExecutionOutcome run_query(
      const ValueTable& values, const ValueTable& weights,
      const ContentValidator& validate = {});

  /// Rebind the adversary handle (fork fan-out swaps per-trial strategies;
  /// nullptr = no adversary). The malicious set must match the one the
  /// restored snapshot's tree was formed under — see
  /// snapshot_after_formation().
  void set_adversary(Adversary* adversary) noexcept { adversary_ = adversary; }

  [[nodiscard]] const AuditLog& audits() const noexcept { return audits_; }
  [[nodiscard]] Network& network() const noexcept { return *net_; }
  [[nodiscard]] const TreeResult& last_tree() const noexcept { return tree_; }
  [[nodiscard]] const CoordinatorSpec& config() const noexcept { return config_; }
  [[nodiscard]] Level effective_depth_bound() const noexcept {
    return depth_bound_;
  }

  [[nodiscard]] std::uint64_t fresh_nonce() noexcept;

  /// How many tree formations this coordinator has run (execute(),
  /// snapshot_after_formation() and a forming prepare_epoch() each form
  /// once; resumes and epoch restores never do). The campaign bench
  /// asserts fork-mode probes leave this at 1.
  [[nodiscard]] std::uint64_t formations_run() const noexcept {
    return formations_;
  }

  /// Attach a flight recorder: every subsequent verb records its full
  /// event stream into it (and fills its TraceContext from this deployment).
  /// Pass nullptr to stop recording; per-phase metrics are metered either
  /// way and land in ExecutionOutcome::metrics.
  void set_recorder(FlightRecorder* recorder);

 private:
  /// Sign at the base station and verify at every honest sensor; models one
  /// flooding round of choke-resistant authenticated broadcast.
  void authenticated_broadcast(const Bytes& payload, int& rounds,
                               Tracer tracer);

  /// Announcement broadcast + tree formation under a fresh session nonce
  /// (fills tree_); returns the session.
  std::uint64_t form_tree(int& rounds, Tracer tracer);

  /// The query block: query announcement → aggregation → minima
  /// announcement → confirmation → classification over the already-formed
  /// tree_, `values.instances` wide; `rounds_so_far` seeds
  /// ExecutionOutcome::data_rounds.
  [[nodiscard]] ExecutionOutcome run_query_phases(
      const ValueTable& values, const ValueTable& weights,
      const ContentValidator& validate, Tracer tracer, int rounds_so_far);

  /// Throws std::invalid_argument unless both tables cover every node and
  /// are `width` (>= 1) instances wide.
  void check_inputs(const char* verb, const ValueTable& values,
                    const ValueTable& weights, std::uint32_t width) const;

  /// run_min()/resume_min() input: one instance per node, byzantine
  /// sensors' readings replaced by their strategy's own_reading.
  [[nodiscard]] ValueTable min_values(const char* verb,
                                      const std::vector<Reading>& readings) const;

  /// The epoch's formed tree still matches the revocation/key state.
  [[nodiscard]] bool epoch_tree_current() const noexcept;

  /// Hash pinning the immutable deployment identity a snapshot belongs to.
  [[nodiscard]] std::uint64_t deployment_fingerprint() const;
  /// Copy the post-formation coordinator + network state (with the
  /// buffered prefix trace events) into a Snapshot.
  [[nodiscard]] Snapshot capture_snapshot(
      int rounds, std::vector<TraceEvent> prefix_events) const;
  /// Copy a snapshot back into this coordinator/network, replaying the
  /// buffered prefix events into an attached sink, and mark the epoch
  /// stale (its tree was just replaced). `epoch_ordinal` >= 0 rewrites the
  /// replayed kEpochBegin ordinal (an epoch restore continues the live
  /// epoch counter instead of rewinding it).
  void restore_snapshot(const Snapshot& snapshot, std::int64_t epoch_ordinal);

  Network* net_;
  // The adversary strategy is an input to an execution, not part of its
  // state: forks deliberately re-run it against restored state.
  // vmat-analyze: allow(snapshot-field-coverage) -- execution input
  Adversary* adversary_;
  // Construction-time config, covered by deployment_fingerprint().
  // vmat-analyze: allow(snapshot-field-coverage) -- fingerprint-pinned
  CoordinatorSpec config_;
  // vmat-analyze: allow(snapshot-field-coverage) -- fingerprint-pinned
  Level depth_bound_;
  std::uint64_t nonce_state_;
  // Diagnostic counter (formation-reuse accounting), not execution state:
  // a fork restoring a snapshot must NOT inherit the capturing
  // coordinator's count.
  // vmat-analyze: allow(snapshot-field-coverage) -- diagnostic counter
  std::uint64_t formations_{0};
  // Not captured: the query block's aggregation phase drops every row
  // (AuditLog::begin_aggregation) before anything reads one.
  // vmat-analyze: allow(snapshot-field-coverage) -- dropped before any read
  AuditLog audits_;
  TreeResult tree_;
  // The live epoch: it always describes the formation epoch_snapshot_
  // holds, so no restore may overwrite it. A fork marks it stale; an epoch
  // restore bumps its id.
  // vmat-analyze: allow(snapshot-field-coverage) -- live epoch descriptor
  Epoch epoch_;
  // vmat-analyze: allow(snapshot-field-coverage) -- live epoch descriptor
  bool epoch_stale_{true};
  AuthBroadcaster broadcaster_;
  /// The sensors' broadcast cursor. One serves them all: every
  /// non-revoked sensor accepts the same broadcasts in lockstep, and a
  /// revoked sensor never receives again.
  AuthReceiver receiver_;
  /// Shared by every component tracing one execution; the Tracer handles
  /// threaded through the phases all point here.
  TraceState trace_state_;
  /// The snapshot a forming prepare_epoch() captures, restored when the
  /// epoch goes stale with its tree still current. Never leaves the
  /// coordinator. Snapshot storage itself: capturing a snapshot inside a
  /// snapshot would recurse, so it deliberately skips this member.
  // vmat-analyze: allow(snapshot-field-coverage) -- snapshot storage
  std::optional<Snapshot> epoch_snapshot_;
};

}  // namespace vmat
