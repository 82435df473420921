// Revocation registry with threshold-θ full-sensor revocation (Section VI-C).
//
// The base station revokes individual edge keys as pinpointing exposes them.
// Once θ keys of one sensor's ring are revoked, the whole sensor is revoked
// (its ring seed is announced), which marks every remaining key of its ring
// revoked as well — revoking those keys *before* they are used in attacks.
//
// The registry records how each key/sensor came to be revoked so that
// experiments can separate "individually revoked by pinpointing" from
// "revoked in bulk via a ring seed" (the >90% savings claim, Section I).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "keys/predistribution.h"
#include "trace/trace.h"
#include "util/ids.h"

namespace vmat {

enum class RevocationCause : std::uint8_t {
  kPinpointed,   ///< individually exposed by a pinpointing run
  kRingSeed,     ///< bulk-revoked when its holder's ring seed was announced
};

struct RevocationEvent {
  KeyIndex key;
  RevocationCause cause;
};

class RevocationRegistry {
 public:
  /// `threshold` is θ; 0 disables automatic full-sensor revocation.
  RevocationRegistry(const Predistribution* keys, std::uint32_t threshold);

  /// Revoke one edge key (Figure 5 Step 7 / Figure 6 Steps 2, 7, 12).
  /// Returns the sensors newly ring-revoked as a consequence (holders whose
  /// revoked-key count crossed θ, cascading).
  std::vector<NodeId> revoke_key(KeyIndex key);

  /// Announce a sensor's ring seed, revoking all keys in its ring.
  /// Returns any sensors additionally ring-revoked by the cascade (including
  /// `node` itself as the first element if it was not revoked before).
  std::vector<NodeId> revoke_sensor(NodeId node);

  // Both checks run once per frame (and once per node per slot); the
  // empty() test keeps the no-revocations common case to one load.
  [[nodiscard]] bool is_key_revoked(KeyIndex key) const noexcept {
    return !revoked_keys_.empty() && revoked_keys_.contains(key);
  }
  [[nodiscard]] bool is_sensor_revoked(NodeId node) const noexcept {
    return !revoked_sensors_.empty() && revoked_sensors_.contains(node);
  }

  [[nodiscard]] std::uint32_t threshold() const noexcept { return threshold_; }
  [[nodiscard]] std::size_t revoked_key_count() const noexcept {
    return revoked_keys_.size();
  }
  [[nodiscard]] const std::vector<RevocationEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const std::vector<NodeId>& revoked_sensors_in_order()
      const noexcept {
    return revoked_sensor_order_;
  }

  /// Number of *pinpointed* revoked keys currently in a sensor's ring —
  /// the count compared against θ. Bulk ring-seed revocations say nothing
  /// about the other holders of those keys and do not contribute.
  [[nodiscard]] std::uint32_t revoked_count(NodeId node) const noexcept;

  /// Bumped by every key or sensor revocation and by every snapshot_load(),
  /// so one value names one revocation state for as long as it is current.
  /// Caches derived from the revoked set (the predicate-test engine's
  /// base-station component) key on it.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  /// Attach (or detach) the flight recorder: key/sensor revocation events.
  void set_tracer(Tracer tracer) noexcept { tracer_ = tracer; }

  /// How many events were individual (pinpointed) revocations.
  [[nodiscard]] std::size_t pinpointed_key_count() const noexcept;

  // --- snapshots (sim/snapshot.h) ---

  /// The registry's full mutable state, as a snapshot copies it. The key
  /// material and θ are deployment identity and stay with the registry.
  struct SavedState {
    std::unordered_set<KeyIndex> revoked_keys;
    std::unordered_set<NodeId> revoked_sensors;
    std::vector<NodeId> revoked_sensor_order;
    std::unordered_map<NodeId, std::uint32_t> counts;
    std::vector<RevocationEvent> events;
  };
  void snapshot_save(SavedState& out) const;
  /// Replace all current state with a snapshot_save() copy.
  void snapshot_load(const SavedState& in);

 private:
  /// Mark one key revoked; push sensors that cross θ onto `newly`.
  void mark_key(KeyIndex key, RevocationCause cause,
                std::vector<NodeId>& newly);
  void mark_sensor(NodeId node, std::vector<NodeId>& newly);

  // Immutable deployment identity (the owning Network fingerprints the
  // key-material spec and pins it via key_generation).
  // vmat-analyze: allow(snapshot-field-coverage) -- fingerprint-pinned
  const Predistribution* keys_;
  // Construction-time config, part of the deployment fingerprint.
  // vmat-analyze: allow(snapshot-field-coverage) -- fingerprint-pinned
  std::uint32_t threshold_;
  // Trace sink handle, owned by the coordinator, not execution state.
  // vmat-analyze: allow(snapshot-field-coverage) -- trace sink, not state
  Tracer tracer_;
  // The hash containers below are snapshot-captured by value copy in
  // snapshot_save()/snapshot_load(). Nothing iterates them (lookups and
  // sizes only; the ordered views are the two vectors), so a copy's
  // bucket order is never observable.
  // vmat-lint: allow-file(snapshot-unsafe-state) -- copied; never iterated
  std::unordered_set<KeyIndex> revoked_keys_;
  std::unordered_set<NodeId> revoked_sensors_;
  std::vector<NodeId> revoked_sensor_order_;
  std::unordered_map<NodeId, std::uint32_t> counts_;
  std::vector<RevocationEvent> events_;
  // Cache-validity counter, not revocation state: a load bumps it rather
  // than copying it, so a restored state never reuses a live value.
  // vmat-analyze: allow(snapshot-field-coverage) -- bumped, never copied
  std::uint64_t generation_{0};
};

}  // namespace vmat
