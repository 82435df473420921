// Post-formation execution snapshots.
//
// A Snapshot is a typed copy of what tree formation leaves behind and a
// query block reads: the formed tree, the coordinator's nonce-stream and
// broadcast-chain cursors, the trace counters and ordinals with the
// buffered prefix events, and the network's mutable state — key
// generation, edge-key slot table, revocation registry, fabric counters
// and loss-RNG position. Capture copies those members out; restore
// copy-assigns them back (vectors reuse the live objects' capacity). The
// coordinator restores in two places: a fork (resume_from) and a stale
// epoch whose tree is still current (prepare_epoch); the epoch's snapshot
// never leaves the coordinator.
//
// Precondition: the fabric is quiescent at capture. Both capture points
// follow tree formation's final Fabric::reset(), so no frame is in flight,
// no inbox holds anything and no per-slot budget is spent;
// Fabric::snapshot_save() throws std::logic_error otherwise, and every
// restore resets the fabric before copying its counters back.
//
// What is NOT captured (see DESIGN.md "Snapshots & fork execution"):
//   * Immutable deployment identity — topology CSR, key pool/ring material,
//     spec bits. These are *fingerprinted*: restore refuses a snapshot whose
//     fingerprint does not match the live deployment, and the key material
//     is additionally pinned by the captured key generation.
//   * Warm derived caches — MacContext key schedules stay warm across a
//     restore (they are pure functions of immutable key material).
//   * Audit rows. The query block's aggregation phase drops every row
//     (AuditLog::begin_aggregation) before anything reads one.
//   * The adversary. Forks rebind strategies via
//     VmatCoordinator::set_adversary(); the fork contract requires the
//     malicious *set* (which shaped formation) to stay fixed.
//   * The coordinator's live epoch descriptor. Every restore marks the
//     epoch stale; an epoch restore then re-opens it under a new id.
#pragma once

#include <cstdint>
#include <vector>

#include "broadcast/auth_broadcast.h"
#include "core/phase_state.h"
#include "sim/network.h"
#include "trace/trace.h"

namespace vmat {

/// A captured post-formation state: VmatCoordinator::resume_from()
/// finishes the execution it interrupted (the query block), once per
/// fork. Value type: copy the Snapshot to fork it across threads; restores
/// only read it, so concurrent restores may share one original.
class Snapshot {
 public:
  Snapshot() = default;

  /// Default-constructed: never captured (every deployment has at least
  /// the base station).
  [[nodiscard]] bool empty() const noexcept { return node_count_ == 0; }
  /// Deployment identity hash restore checks against (topology, key
  /// material spec, coordinator config).
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return node_count_;
  }
  /// Flooding rounds the captured prefix already spent (announcement +
  /// tree formation) — seeds ExecutionOutcome::data_rounds on resume.
  [[nodiscard]] int formation_rounds() const noexcept {
    return formation_rounds_;
  }

 private:
  friend class VmatCoordinator;

  std::uint64_t fingerprint_{0};
  std::uint32_t node_count_{0};
  int formation_rounds_{0};

  std::uint64_t nonce_state_{0};
  std::uint64_t broadcast_next_epoch_{0};
  /// The sensors' one broadcast cursor; the placeholder anchor is
  /// overwritten by every capture.
  AuthReceiver receiver_{Digest{}};

  ExecutionMetrics metrics_;
  TracePhase phase_{TracePhase::kNone};
  Interval slot_{0};
  std::int64_t executions_{0};
  std::int64_t epochs_{0};
  /// The prefix's event stream, replayed into a restoring sink.
  std::vector<TraceEvent> prefix_events_;

  TreeResult tree_;
  Network::SavedState network_;
};

/// FNV-1a-style accumulator for deployment fingerprints.
[[nodiscard]] inline std::uint64_t snapshot_mix(std::uint64_t h,
                                                std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace vmat
