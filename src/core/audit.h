// Distributed audit trails (Sections IV-B, IV-C) and the predicates the
// pinpointing protocols evaluate against them (Figures 5 and 6).
//
// Each sensor stores, locally:
//  - for the aggregation phase, the tuples
//      ⟨level, message, sensor key, in-edge key, out-edge key⟩
//    split here into ReceivedRecord (what arrived from children, with the
//    in-edge key and the slot it arrived in) and ForwardRecord (what was
//    forwarded to which parent with which out-edge key);
//  - for the confirmation phase (SOF), the tuple
//      ⟨interval, message, sensor key, in-edge key, out-edge key⟩
//    as SofRecord.
//
// A keyed predicate test asks a yes/no question against these records; the
// honest evaluation lives here so that sensors, the base station, and the
// test engine all agree on semantics.
#pragma once

#include <optional>
#include <vector>

#include "core/messages.h"
#include "util/ids.h"

namespace vmat {

/// An aggregation message accepted from a child during the collection
/// window.
struct ReceivedRecord {
  AggMessage msg;
  KeyIndex in_edge{kNoKey};
  Interval slot{0};          ///< the slot it arrived in
  Level child_level{kNoLevel};  ///< L - slot + 1, fixed at record time
  NodeId claimed_sender;     ///< envelope `from` claim, unauthenticated
};

/// An aggregation message forwarded to a parent.
struct ForwardRecord {
  AggMessage msg;
  KeyIndex out_edge{kNoKey};
  NodeId parent;  ///< claimed parent id (tree-formation sender claim)
};

/// Audit state of one sensor for one SOF execution. A sensor handles at
/// most one veto (one-time flooding), so at most one record.
struct SofRecord {
  VetoMsg msg;
  bool originated{false};
  Interval received_interval{0};  ///< 0 when originated
  Interval forward_interval{0};   ///< the interval it was sent/forwarded in
  KeyIndex in_edge{kNoKey};
  std::vector<KeyIndex> out_edges;  ///< one per neighbor flooded
};

/// The distributed audit store for every sensor, in flat pooled form.
///
/// The pre-diet layout was a `std::vector<NodeAudit>` — per node two record
/// vectors plus an inline `std::optional<SofRecord>`, ~160 B of headers and
/// one-to-three heap blocks per node before a single record landed. At the
/// 10^5..10^6-sensor scale that dominated the resident set, so records now
/// live in shared pools:
///
///  - Received/forwarded rows append to per-shard pools (one pool per
///    phase-driver shard) and chain per node through u32 `next` links. A
///    node is owned by exactly one shard, so appends are race-free under
///    the phase drivers' level-parallel sharding, and per-node chain order
///    equals arrival order regardless of thread count (in-memory pool
///    layout varies with the shard plan; every observable iteration is
///    canonical per-node order).
///  - The SOF record is one optional pooled slot per node (at most one
///    veto per sensor per execution) — sparse, so a clean large-n run
///    stores zero SofRecords instead of n empty optionals.
///
/// Per node the log keeps a 24 B chain-head entry plus a 4 B level; all
/// record payloads are pooled. Appends for a given node must consistently
/// pass that node's owning shard index; serial callers (tests, the
/// hop-count tree baseline) use shard 0.
class AuditLog {
 public:
  AuditLog() = default;
  explicit AuditLog(std::uint32_t node_count)
      : nodes_(node_count), level_(node_count, kNoLevel) {}

  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  /// Start an aggregation phase: drop every record (rows, SOF, levels) and
  /// provision `shards` append pools.
  void begin_aggregation(std::size_t shards) {
    pools_.clear();
    pools_.resize(shards == 0 ? 1 : shards);
    const std::size_t n = nodes_.size();
    nodes_.assign(n, {});
    level_.assign(n, kNoLevel);
  }

  /// Start a confirmation (SOF) phase: drop SOF records only — the
  /// aggregation rows stay for pinpointing.
  void begin_sof(std::size_t shards) {
    if (pools_.size() < shards) pools_.resize(shards);
    if (pools_.empty()) pools_.resize(1);
    for (Pool& p : pools_) p.sof.clear();
    for (NodeState& s : nodes_) s.sof = kNil;
  }

  void set_level(NodeId node, Level level) { level_[node.value] = level; }
  [[nodiscard]] Level level(NodeId node) const {
    return level_[node.value];
  }

  // --- appends (race-free for distinct shard-owned nodes) ---

  void add_received(std::size_t shard, NodeId node, const ReceivedRecord& rec) {
    Pool& p = pools_[shard];
    NodeState& s = nodes_[node.value];
    const auto idx = static_cast<std::uint32_t>(p.recv.size());
    p.recv.push_back({rec, kNil});
    if (s.recv_head == kNil) {
      s.recv_head = idx;
      s.row_pool = static_cast<std::uint8_t>(shard);
    } else {
      p.recv[s.recv_tail].next = idx;
    }
    s.recv_tail = idx;
  }

  void add_forwarded(std::size_t shard, NodeId node, const ForwardRecord& rec) {
    Pool& p = pools_[shard];
    NodeState& s = nodes_[node.value];
    const auto idx = static_cast<std::uint32_t>(p.fwd.size());
    p.fwd.push_back({rec, kNil});
    if (s.fwd_head == kNil) {
      s.fwd_head = idx;
      s.row_pool = static_cast<std::uint8_t>(shard);
    } else {
      p.fwd[s.fwd_tail].next = idx;
    }
    s.fwd_tail = idx;
  }

  /// Record the node's one SOF tuple (callers check has_sof() first —
  /// one-time flooding handles at most one veto per node).
  void set_sof(std::size_t shard, NodeId node, SofRecord rec) {
    Pool& p = pools_[shard];
    NodeState& s = nodes_[node.value];
    s.sof = static_cast<std::uint32_t>(p.sof.size());
    s.sof_pool = static_cast<std::uint8_t>(shard);
    p.sof.push_back(std::move(rec));
  }

  [[nodiscard]] bool has_sof(NodeId node) const {
    return nodes_[node.value].sof != kNil;
  }
  [[nodiscard]] const SofRecord* sof(NodeId node) const {
    const NodeState& s = nodes_[node.value];
    if (s.sof == kNil) return nullptr;
    return &pools_[s.sof_pool].sof[s.sof];
  }
  /// Mutable SOF access (replay_tx appends out-edges on send success).
  /// Serial-only: pool growth elsewhere may relocate records.
  [[nodiscard]] SofRecord* sof_mut(NodeId node) {
    const NodeState& s = nodes_[node.value];
    if (s.sof == kNil) return nullptr;
    return &pools_[s.sof_pool].sof[s.sof];
  }

  // --- iteration, per-node arrival order ---

  template <class F>
  void for_each_received(NodeId node, F&& f) const {
    const NodeState& s = nodes_[node.value];
    if (s.recv_head == kNil) return;
    const Pool& p = pools_[s.row_pool];
    for (std::uint32_t i = s.recv_head; i != kNil; i = p.recv[i].next)
      f(p.recv[i].rec);
  }

  template <class F>
  void for_each_forwarded(NodeId node, F&& f) const {
    const NodeState& s = nodes_[node.value];
    if (s.fwd_head == kNil) return;
    const Pool& p = pools_[s.row_pool];
    for (std::uint32_t i = s.fwd_head; i != kNil; i = p.fwd[i].next)
      f(p.fwd[i].rec);
  }

  /// Materialized per-node copies, in arrival order — test assertions;
  /// cold paths only.
  [[nodiscard]] std::vector<ReceivedRecord> received_of(NodeId node) const {
    std::vector<ReceivedRecord> out;
    for_each_received(node, [&](const ReceivedRecord& r) { out.push_back(r); });
    return out;
  }
  [[nodiscard]] std::vector<ForwardRecord> forwarded_of(NodeId node) const {
    std::vector<ForwardRecord> out;
    for_each_forwarded(node, [&](const ForwardRecord& r) { out.push_back(r); });
    return out;
  }

 private:
  struct RecvRow {
    ReceivedRecord rec;
    std::uint32_t next;
  };
  struct FwdRow {
    ForwardRecord rec;
    std::uint32_t next;
  };
  struct Pool {
    std::vector<RecvRow> recv;
    std::vector<FwdRow> fwd;
    std::vector<SofRecord> sof;
  };
  struct NodeState {
    std::uint32_t recv_head{kNil}, recv_tail{kNil};
    std::uint32_t fwd_head{kNil}, fwd_tail{kNil};
    std::uint32_t sof{kNil};
    std::uint8_t row_pool{0};  ///< pool owning both row chains
    std::uint8_t sof_pool{0};
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;

  std::vector<Pool> pools_;
  std::vector<NodeState> nodes_;
  std::vector<Level> level_;
};

// --- predicates ---

enum class PredicateKind : std::uint8_t {
  /// Figure 5 (veto walk): "at level `level`, forwarded an aggregation
  /// message of instance `instance` with value <= v_max, using an out-edge
  /// key whose pool index is in [z_lo, z_hi]".
  kAggForwardedValue,

  /// Figure 6 (veto walk): "being a sensor at level `level`-1, received,
  /// from a child at level `level` (i.e. in slot L-level+1), an aggregation
  /// message of instance `instance` with value <= v_max". Combined with the
  /// id window below. The own-level clause keeps the walk's level
  /// decrement sound: an honest admitter is guaranteed to be exactly one
  /// level up the trail.
  kAggReceivedValue,

  /// Junk walk, aggregation: "at level `level`, forwarded *exactly* the
  /// message with identity `msg_hash`, using out-edge key `bound_edge`".
  kJunkAggForwarded,

  /// Junk walk, aggregation: "at level `level`, received exactly `msg_hash`
  /// with an in-edge key whose pool index is in [z_lo, z_hi]".
  kJunkAggReceived,

  /// Junk walk, confirmation: "in SOF interval `level`, sent/forwarded
  /// exactly `msg_hash` using out-edge key `bound_edge`".
  kJunkSofForwarded,

  /// Junk walk, confirmation: "received exactly `msg_hash` in SOF interval
  /// `level`, with an in-edge key whose pool index is in [z_lo, z_hi]".
  kJunkSofReceived,
};

/// A predicate disseminated by a keyed predicate test. `level` doubles as
/// the SOF interval for the kJunkSof* kinds. The id window [id_lo, id_hi]
/// applies to every kind (Figure 6 binary-searches on it; Figure 5 tests
/// key a single sensor via its sensor key, where the window is the full
/// range).
struct Predicate {
  PredicateKind kind{PredicateKind::kAggForwardedValue};
  std::uint32_t instance{0};
  Reading v_max{0};
  Level level{0};
  NodeId id_lo{0};
  NodeId id_hi{0};
  KeyIndex z_lo{0};
  KeyIndex z_hi{0};
  KeyIndex bound_edge{kNoKey};
  Digest msg_hash{};
};

/// Canonical encoding, part of the predicate test's broadcast and of the
/// reply MAC input.
[[nodiscard]] Bytes encode_predicate(const Predicate& p);

/// Honest evaluation of a predicate by sensor `self` against its audit
/// records. The key-possession part of the test is checked by the engine;
/// this is only the behavioural clause.
[[nodiscard]] bool evaluate_predicate(const Predicate& p, NodeId self,
                                      const AuditLog& audits);

}  // namespace vmat
