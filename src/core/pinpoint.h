// Pinpointing and revocation (Section VI, Figures 4-6).
//
// All three walks share one skeleton: alternate
//   (1) a Figure-5-style binary search over one sensor's key ring to find
//       the edge key it used on the trail (keyed on its *sensor* key), and
//   (2) a Figure-6-style binary search over the holders of that edge key to
//       find the next sensor on the trail (keyed on the *edge* key, with a
//       final re-confirmation on the found sensor's own key to defeat
//       framing),
// using keyed predicate tests as the only communication primitive. Any
// failed whole-window test, any inconsistent binary-search step (both
// halves failing), and any failed re-confirmation pins the blame on a key
// the adversary provably holds:
//   - an edge key is revoked individually, or
//   - a sensor caught lying on its own sensor key is fully revoked (its
//     ring seed is announced).
//
// veto_triggered:            walks the aggregation trail from the vetoer
//                            toward the base station (levels decreasing).
// junk_triggered_aggregation: walks from the base station toward the junk's
//                            unknown source (levels increasing).
// junk_triggered_confirmation: walks the SOF trail from the base station
//                            toward the unknown veto source (intervals
//                            decreasing).
//
// Guarantees (Lemmas 4-5, Theorem 6): every revoked key is held by some
// malicious sensor; an honest sensor is never revoked; the walk terminates
// after O(L) search phases of O(log n) predicate tests each.
#pragma once

#include <string>
#include <vector>

#include "attack/adversary.h"
#include "core/audit.h"
#include "core/phase_state.h"
#include "core/predicate_test.h"
#include "sim/network.h"

namespace vmat {

struct PinpointOutcome {
  /// Edge keys individually revoked by this run (usually exactly one).
  std::vector<KeyIndex> revoked_keys;
  /// Sensors fully revoked (directly or through the θ-threshold cascade).
  std::vector<NodeId> revoked_sensors;
  /// Which rule fired, for diagnostics and tests.
  std::string reason;
  CostMeter cost;

  [[nodiscard]] bool revoked_anything() const noexcept {
    return !revoked_keys.empty() || !revoked_sensors.empty();
  }
};

class PinpointEngine {
 public:
  PinpointEngine(Network* net, Adversary* adversary,
                 const AuditLog* audits, const TreeResult* tree,
                 PredicateTestMode mode = PredicateTestMode::kReachability,
                 Tracer tracer = {});

  /// Figure 4: the base station received a legitimate (valid-MAC) veto.
  [[nodiscard]] PinpointOutcome veto_triggered(const VetoMsg& veto);

  /// The base station received a spurious aggregation message on edge key
  /// `bs_in_edge` in slot `bs_slot`.
  [[nodiscard]] PinpointOutcome junk_triggered_aggregation(
      const AggMessage& junk, KeyIndex bs_in_edge, Interval bs_slot);

  /// The base station received a spurious veto on `bs_in_edge` in SOF
  /// interval `bs_interval`.
  [[nodiscard]] PinpointOutcome junk_triggered_confirmation(
      const VetoMsg& junk, KeyIndex bs_in_edge, Interval bs_interval);

 private:
  /// Figure-5-style: binary-search `owner`'s ring for a key matching
  /// `probe` (whose z-window fields are filled in per step). Returns the
  /// found key, or kNoKey after revoking `owner` (whole-window failure or
  /// inconsistency — the sensor key lied).
  [[nodiscard]] KeyIndex find_edge_key(NodeId owner, Predicate probe,
                                       PredicateTestEngine& tests,
                                       PinpointOutcome& out,
                                       const char* what);

  /// Figure-6-style: binary-search the holders of `edge_key` for a sensor
  /// satisfying `probe` (id-window fields filled in per step), then
  /// re-confirm on its sensor key. Returns the found sensor, or kNoNode
  /// (represented as nullopt) after revoking `edge_key`.
  [[nodiscard]] std::optional<NodeId> find_holder(KeyIndex edge_key,
                                                  Predicate probe,
                                                  PredicateTestEngine& tests,
                                                  PinpointOutcome& out,
                                                  const char* what);

  void revoke_key(KeyIndex key, PinpointOutcome& out, std::string reason);
  void revoke_ring(NodeId node, PinpointOutcome& out, std::string reason);

  Network* net_;
  Adversary* adversary_;
  const AuditLog* audits_;
  const TreeResult* tree_;
  PredicateTestMode mode_;
  Tracer tracer_;
};

}  // namespace vmat
