// Shared fixtures/helpers for the protocol-level tests.
#pragma once

#include <memory>
#include <unordered_set>

#include "attack/adversary.h"
#include "campaign/strategy.h"
#include "core/coordinator.h"
#include "core/predicate_test.h"
#include "sim/network.h"
#include "spec/simulation_spec.h"

namespace vmat::testing {

/// Dense key setup: every physical edge has a shared key with overwhelming
/// probability (r^2/u = 36), so the secure topology equals the physical
/// one and tests can reason about connectivity directly.
inline NetworkSpec dense_keys(std::uint32_t theta = 0,
                                std::uint64_t seed = 2024) {
  NetworkSpec cfg;
  cfg.keys.pool_size = 400;
  cfg.keys.ring_size = 120;
  cfg.keys.seed = seed;
  cfg.revocation_threshold = theta;
  return cfg;
}

/// Readings 100 + id, so the honest minimum is held by the smallest
/// participating sensor id and every reading is unique.
inline std::vector<Reading> default_readings(std::uint32_t n) {
  std::vector<Reading> readings(n);
  for (std::uint32_t i = 0; i < n; ++i)
    readings[i] = 100 + static_cast<Reading>(i);
  return readings;
}

/// One-instance MIN inputs: `readings` as the node-major values and zero
/// weights (raw-reading semantics).
struct MinInputs {
  ValueTable values;
  ValueTable weights;
};
inline MinInputs min_inputs(const std::vector<Reading>& readings) {
  const auto n = static_cast<std::uint32_t>(readings.size());
  MinInputs in{ValueTable(n, 1, 0), ValueTable(n, 1, 0)};
  in.values.data = readings;
  return in;
}

/// The correctness bound of Section III: the smallest reading among
/// *honest* non-revoked sensors. Malicious sensors may legitimately
/// under-report or hide their own readings, so a returned result must be
/// <= this value, with equality whenever the adversary does not
/// self-report anything smaller.
inline Reading true_min(const Network& net,
                        const std::vector<Reading>& readings,
                        const std::unordered_set<NodeId>& malicious = {}) {
  Reading best = kInfinity;
  for (std::uint32_t id = 1; id < net.node_count(); ++id) {
    if (malicious.contains(NodeId{id})) continue;
    if (!net.revocation().is_sensor_revoked(NodeId{id}))
      best = std::min(best, readings[id]);
  }
  return best;
}

/// True iff every revoked key is held by at least one malicious sensor and
/// every fully revoked sensor is malicious — the Lemma 4/5 soundness
/// condition (ignoring θ-cascades, which tests disable with θ = 0).
inline bool revocations_sound(const Network& net,
                              const std::unordered_set<NodeId>& malicious) {
  for (const auto& event : net.revocation().events()) {
    bool held = false;
    for (NodeId m : malicious)
      held = held || net.keys().node_holds(m, event.key);
    if (!held) return false;
  }
  for (NodeId s : net.revocation().revoked_sensors_in_order())
    if (!malicious.contains(s)) return false;
  return true;
}

/// The repliers of one keyed predicate test found by scanning all n
/// sensors: every unrevoked holder of the key, in id order, that satisfies
/// the predicate or, if Byzantine, answers yes. PredicateTestEngine walks
/// only the key's holder set; this scan is the oracle that walk is checked
/// against. Asks each Byzantine holder's strategy once, in the engine's
/// order.
inline std::vector<NodeId> full_scan_repliers(Network& net,
                                              Adversary* adversary,
                                              const AuditLog& audits,
                                              const KeySpec& key,
                                              const Predicate& predicate) {
  std::vector<NodeId> repliers;
  for (std::uint32_t id = 0; id < net.node_count(); ++id) {
    const NodeId node{id};
    const bool holds = key.type == KeySpec::Type::kSensorKey
                           ? node == key.sensor
                           : net.keys().node_holds(node, key.pool);
    if (!holds || net.revocation().is_sensor_revoked(node)) continue;
    const bool yes =
        byzantine(adversary, node)
            ? adversary->strategy().answer_predicate(adversary->view(),
                                                     predicate, node)
            : evaluate_predicate(predicate, node, audits);
    if (yes) repliers.push_back(node);
  }
  return repliers;
}

/// The small attacked deployment the exact-output pins run on: n=60 on
/// sparse rings, θ=8, and three sensors running the `choke` preset — long
/// enough runs pinpoint keys, fire θ, and revoke the base station's ring.
struct ChokedField {
  explicit ChokedField(std::uint32_t instances) : net(spec_for(instances)) {
    SimulationSpec spec = spec_for(instances);
    auto built = spec.build_adversary(net);
    adversary = std::move(built.value());
    spec.depth_bound(net.topology().depth(adversary->malicious()));
    coordinator = std::make_unique<VmatCoordinator>(&net, adversary.get(), spec);
  }

  static SimulationSpec spec_for(std::uint32_t instances) {
    SimulationSpec spec;
    spec.nodes(60).key_pool(5000, 50).revocation_threshold(8).seed(5);
    spec.instances(instances);
    const campaign::NamedAttack& choke = *campaign::find_attack("choke");
    spec.attack().compromised(3).placement_seed(9).policy(choke.policy).when(
        choke.when);
    return spec;
  }

  Network net;
  std::unique_ptr<Adversary> adversary;
  std::unique_ptr<VmatCoordinator> coordinator;
};

/// One step of the FNV-style fold the digest pins use.
inline std::uint64_t fold(std::uint64_t digest, std::uint64_t value) {
  return digest * 0x100000001b3ULL ^ value;
}

}  // namespace vmat::testing
