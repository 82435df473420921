// Keyed predicate test (Yu, IPSN'09 — reviewed in Section VI-A).
//
// The base station asks: "is there a sensor that (i) holds key K and (ii)
// satisfies predicate P?". It authenticated-broadcasts
//     ⟨index of K, P, nonce N, H(MAC_K(N ‖ P))⟩,
// a holder of K satisfying P generates MAC_K(N ‖ P) as the "yes" reply and
// floods it; every sensor can verify a candidate reply against the hash
// token, so only the one legitimate reply can propagate — choking is
// structurally impossible. The test succeeds iff the base station receives
// the valid reply within two flooding rounds.
//
// Theorem 3 guarantees: an honest satisfying holder ⇒ success; no
// satisfying honest holder and no malicious holder ⇒ failure. A malicious
// holder can freely answer either way — the pinpointing protocols are built
// to be sound against that.
//
// The repliers are found from the base station's holder set for the key
// ("the base station knows the exact set of the t sensors holding K_e",
// Section VI-A): the single owner of a sensor key, or
// Predistribution::holders() of a pool or path key — never a scan of all
// n sensors. Both modes share that replier set.
//
// The engine offers two execution modes:
//  * kReachability (default): because exactly one byte string can
//    propagate (every forwarder verifies it against the token), flooding
//    degenerates to reachability: a replier succeeds iff it lies in, or
//    next to, the base station's component of active honest sensors.
//    Exact. A test costs O(holders of the tested key); the component is
//    one BFS per revocation state, reused by every test until the
//    registry's generation moves (a walk ends at its first revocation, so
//    all its tests share one BFS). The first test on a pool key also pays
//    holders()'s one-time O(n) derivation for that key.
//  * kMessageLevel: the flood actually runs on the fabric — repliers
//    broadcast MAC_K(N ‖ P), every honest sensor verifies candidate frames
//    against H(MAC_K(N ‖ P)) and one-time-forwards the first valid one.
//    Junk frames (wrong hash) die at the first honest hop, demonstrating
//    the choke-proofness mechanically. Tests assert both modes agree.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "attack/adversary.h"
#include "core/audit.h"
#include "sim/network.h"
#include "trace/trace.h"

namespace vmat {

/// Which key a test is keyed on.
struct KeySpec {
  enum class Type : std::uint8_t { kSensorKey, kPoolKey };
  Type type{Type::kSensorKey};
  NodeId sensor;   ///< for kSensorKey
  KeyIndex pool{kNoKey};  ///< for kPoolKey

  [[nodiscard]] static KeySpec sensor_key(NodeId id) {
    KeySpec s;
    s.type = Type::kSensorKey;
    s.sensor = id;
    return s;
  }
  [[nodiscard]] static KeySpec pool_key(KeyIndex k) {
    KeySpec s;
    s.type = Type::kPoolKey;
    s.pool = k;
    return s;
  }
};

/// Accumulates the control-plane cost of a pinpointing run.
struct CostMeter {
  int flooding_rounds{0};
  int predicate_tests{0};
  std::uint64_t control_bytes{0};

  void charge_broadcast(std::uint32_t node_count, std::size_t bytes) {
    flooding_rounds += 1;
    control_bytes += static_cast<std::uint64_t>(node_count) * bytes;
  }
};

enum class PredicateTestMode : std::uint8_t {
  kReachability,  ///< exact BFS collapse (default)
  kMessageLevel,  ///< full fabric-level verified one-time flood
};

class PredicateTestEngine {
 public:
  /// `audits` must outlive the engine and stay indexed by node id.
  PredicateTestEngine(Network* net, Adversary* adversary,
                      const AuditLog* audits, CostMeter* meter,
                      PredicateTestMode mode = PredicateTestMode::kReachability,
                      Tracer tracer = {});

  /// Run one keyed predicate test. Exact per Theorem 3 semantics plus
  /// Byzantine holders answering via the adversary strategy.
  [[nodiscard]] bool run(const KeySpec& key, const Predicate& predicate);

  /// The sensors that sent the valid reply in the last run(), ascending by
  /// id: unrevoked holders of its key that satisfied its predicate, or, if
  /// Byzantine, chose to answer yes.
  [[nodiscard]] std::span<const NodeId> last_repliers() const noexcept {
    return repliers_;
  }

 private:
  [[nodiscard]] const MacContext& key_context(const KeySpec& key) const;
  /// Fill repliers_ from the key's holders, in ascending id order; each
  /// unrevoked Byzantine holder's strategy is asked once.
  void collect_repliers(const KeySpec& key, const Predicate& predicate);
  [[nodiscard]] bool reaches_base_station();
  [[nodiscard]] bool flood_reply(const Mac& reply, const Digest& token);

  Network* net_;
  Adversary* adversary_;
  const AuditLog* audits_;
  CostMeter* meter_;
  PredicateTestMode mode_;
  Tracer tracer_;
  std::uint64_t nonce_{0};
  std::vector<NodeId> repliers_;
  /// Base-station component of active honest sensors (1 = reached), valid
  /// while the revocation registry's generation equals reached_generation_;
  /// empty until the first kReachability test that has a replier.
  std::vector<std::uint8_t> reached_;
  std::uint64_t reached_generation_{0};
};

}  // namespace vmat
