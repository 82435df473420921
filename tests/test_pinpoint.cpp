// Pinpointing/revocation tests (Lemmas 4-6): every walk ends by revoking
// key material the adversary provably holds, honest sensors are never
// revoked, and the walks stay sound against stonewalling, admit-all
// framing, and inconsistent answers.
#include <gtest/gtest.h>

#include <cmath>
#include <string_view>

#include "core/coordinator.h"
#include "helpers.h"

namespace vmat {
namespace {

using testing::default_readings;
using testing::dense_keys;
using testing::revocations_sound;
using testing::true_min;

/// Path A 0-1-2-3-4 (node 2 will be malicious) plus detour B 0-5-6-7-8-4:
/// the minimum at node 4 is tree-routed through node 2, while the honest
/// subgraph stays connected through the detour.
Topology forced_drop_topology() {
  Topology t(9);
  t.add_edge(NodeId{0}, NodeId{1});
  t.add_edge(NodeId{1}, NodeId{2});
  t.add_edge(NodeId{2}, NodeId{3});
  t.add_edge(NodeId{3}, NodeId{4});
  t.add_edge(NodeId{0}, NodeId{5});
  t.add_edge(NodeId{5}, NodeId{6});
  t.add_edge(NodeId{6}, NodeId{7});
  t.add_edge(NodeId{7}, NodeId{8});
  t.add_edge(NodeId{8}, NodeId{4});
  return t;
}

struct Scenario {
  Scenario(Topology topo, std::unordered_set<NodeId> malicious,
           std::unique_ptr<AdversaryStrategy> strategy,
           std::uint64_t seed = 100)
      : net(std::move(topo), dense_keys(/*theta=*/0, seed)),
        malicious_set(malicious),
        adv(&net, std::move(malicious), std::move(strategy)) {
    cfg.depth_bound = net.topology().depth(malicious_set);
    cfg.seed = seed;
    coordinator = std::make_unique<VmatCoordinator>(&net, &adv, cfg);
  }

  Network net;
  std::unordered_set<NodeId> malicious_set;
  Adversary adv;
  CoordinatorSpec cfg;
  std::unique_ptr<VmatCoordinator> coordinator;
};

std::vector<Reading> forced_drop_readings() {
  auto readings = default_readings(9);
  readings[4] = 1;  // the vetoer behind the malicious node
  return readings;
}

TEST(Pinpoint, SilentDropIsRevokedViaVetoWalk) {
  Scenario s(forced_drop_topology(), {NodeId{2}},
             campaign::make_named_strategy("silent", LiePolicy::kDenyAll));
  const auto out = s.coordinator->run_min(forced_drop_readings());
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kVeto);
  EXPECT_FALSE(out.revoked_keys.empty());
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, AdmitAllDraggingStillEndsInSoundRevocation) {
  Scenario s(forced_drop_topology(), {NodeId{2}},
             campaign::make_named_strategy("silent", LiePolicy::kAdmitAll));
  const auto out = s.coordinator->run_min(forced_drop_readings());
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_TRUE(!out.revoked_keys.empty() || !out.revoked_sensors.empty())
      << "walk must revoke something";
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, RandomAnswersStillEndInSoundRevocation) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Scenario s(forced_drop_topology(), {NodeId{2}},
               campaign::make_named_strategy("silent", LiePolicy::kRandom),
               1000 + seed);
    const auto out = s.coordinator->run_min(forced_drop_readings());
    ASSERT_EQ(out.kind, OutcomeKind::kRevocation) << "seed " << seed;
    EXPECT_TRUE(revocations_sound(s.net, s.malicious_set))
        << "seed " << seed << ": " << out.reason;
  }
}

TEST(Pinpoint, ValueDropPinpointedToo) {
  Scenario s(forced_drop_topology(), {NodeId{2}},
             campaign::make_named_strategy("drop", LiePolicy::kDenyAll));
  const auto out = s.coordinator->run_min(forced_drop_readings());
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kVeto);
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, JunkInjectionTriggersJunkWalk) {
  const auto topo = Topology::grid(4, 4);
  const auto malicious = choose_malicious(topo, 2, 7);
  Scenario s(topo, malicious,
             campaign::make_named_strategy("junk", LiePolicy::kDenyAll));
  const auto out = s.coordinator->run_min(default_readings(16));
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kJunkAggregation);
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, JunkInjectionWithFramingDoesNotHurtTheFramed) {
  const auto topo = Topology::grid(4, 4);
  const auto malicious = choose_malicious(topo, 2, 8);
  Scenario s(topo, malicious,
             campaign::make_named_strategy("junk", LiePolicy::kAdmitAll));
  const auto out = s.coordinator->run_min(default_readings(16));
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, ChokingAttackTriggersJunkConfirmationWalk) {
  Scenario s(forced_drop_topology(), {NodeId{2}},
             campaign::make_named_strategy("choke", LiePolicy::kDenyAll));
  const auto out = s.coordinator->run_min(forced_drop_readings());
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kJunkConfirmation);
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, ValidSelfVetoFromMaliciousSensorIsWalkedSoundly) {
  const auto topo = Topology::grid(4, 4);
  const auto malicious = choose_malicious(topo, 1, 9);
  Scenario s(topo, malicious,
             campaign::make_named_strategy("selfveto", LiePolicy::kDenyAll));
  const auto out = s.coordinator->run_min(default_readings(16));
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kVeto);
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, HonestSensorsNeverRevokedAcrossManyRuns) {
  // Repeat executions against the dropper until it is fully neutralized;
  // no honest key material may ever be revoked.
  Scenario s(forced_drop_topology(), {NodeId{2}},
             campaign::make_named_strategy("silent", LiePolicy::kDenyAll));
  const auto readings = forced_drop_readings();
  const auto [values, weights] = testing::min_inputs(readings);
  const auto history = s.coordinator->run_until_result(values, weights);
  ASSERT_GE(history.size(), 2u);  // at least one revocation, then a result
  EXPECT_TRUE(history.back().produced_result());
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set));
  for (std::size_t i = 0; i + 1 < history.size(); ++i)
    EXPECT_TRUE(history[i].revoked_keys.size() +
                    history[i].revoked_sensors.size() >
                0)
        << "execution " << i << " neither produced nor revoked";
}

TEST(Pinpoint, ResultAfterRecoveryIsCorrect) {
  Scenario s(forced_drop_topology(), {NodeId{2}},
             campaign::make_named_strategy("silent", LiePolicy::kDenyAll));
  const auto readings = forced_drop_readings();
  const auto [values, weights] = testing::min_inputs(readings);
  const auto history = s.coordinator->run_until_result(values, weights);
  // The final result includes node 4's reading: it was never revoked and
  // the network routes around the neutralized dropper.
  EXPECT_EQ(history.back().minima[0],
            true_min(s.net, readings, s.malicious_set));
}

TEST(Pinpoint, MessageLevelPredicateModeGivesSameOutcome) {
  // Run the same drop scenario with the full fabric-level predicate-test
  // flood instead of the reachability collapse: identical revocations.
  auto run_with = [&](PredicateTestMode mode) {
    Scenario s(forced_drop_topology(), {NodeId{2}},
               campaign::make_named_strategy("silent", LiePolicy::kDenyAll));
    CoordinatorSpec cfg = s.cfg;
    cfg.predicate_mode = mode;
    VmatCoordinator coordinator(&s.net, &s.adv, cfg);
    return coordinator.run_min(forced_drop_readings());
  };
  const auto fast = run_with(PredicateTestMode::kReachability);
  const auto full = run_with(PredicateTestMode::kMessageLevel);
  ASSERT_EQ(fast.kind, OutcomeKind::kRevocation);
  ASSERT_EQ(full.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(fast.trigger, full.trigger);
  EXPECT_EQ(fast.revoked_keys, full.revoked_keys);
  EXPECT_EQ(fast.reason, full.reason);
}

TEST(Pinpoint, CostStaysWithinTheoremSixBounds) {
  Scenario s(forced_drop_topology(), {NodeId{2}},
             campaign::make_named_strategy("silent", LiePolicy::kDenyAll));
  const auto out = s.coordinator->run_min(forced_drop_readings());
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  // O(L log n) predicate tests: L+1 walk steps, each O(log r + log n)
  // tests; generous constant-factor ceiling.
  const int L = s.coordinator->effective_depth_bound();
  const double bound =
      12.0 * (L + 2) *
      (std::log2(static_cast<double>(s.net.keys().config().pool_size)) + 4);
  EXPECT_LE(out.pinpoint_cost.predicate_tests, bound);
  EXPECT_GE(out.pinpoint_cost.predicate_tests, 1);
}

/// Digest of one attacked streak: 30 run_min executions on n=100, f=4,
/// θ=8 sparse rings under a named preset. It folds every ExecutionOutcome
/// field pinpointing decides (kind, minima, revoked keys and sensors,
/// reason, pinpoint cost, fabric bytes), so a change to how predicate
/// tests are run that moves any walk shows up here. `disrupted` counts the
/// executions that produced no result.
std::uint64_t streak_outcome_digest(std::string_view attack_name,
                                    int& disrupted) {
  SimulationSpec spec;
  spec.nodes(100).key_pool(1000, 60).revocation_threshold(8).seed(11);
  const campaign::NamedAttack& attack = *campaign::find_attack(attack_name);
  spec.attack().compromised(4).placement_seed(3).policy(attack.policy).when(
      attack.when);
  Network net(spec);
  auto built = spec.build_adversary(net);
  if (!built.has_value()) {
    ADD_FAILURE() << built.error().to_string();
    return 0;
  }
  const std::unique_ptr<Adversary>& adv = built.value();
  spec.depth_bound(net.topology().depth(adv->malicious()));
  VmatCoordinator coordinator(&net, adv.get(), spec);
  const auto readings = default_readings(net.node_count());
  using testing::fold;
  std::uint64_t digest = 0;
  disrupted = 0;
  for (int execution = 0; execution < 30; ++execution) {
    const ExecutionOutcome out = coordinator.run_min(readings);
    if (!out.produced_result()) ++disrupted;
    digest = fold(digest, static_cast<std::uint64_t>(out.kind));
    for (const Reading minimum : out.minima)
      digest = fold(digest, static_cast<std::uint64_t>(minimum));
    digest = fold(digest, out.revoked_keys.size());
    for (const KeyIndex key : out.revoked_keys) digest = fold(digest, key.value);
    digest = fold(digest, out.revoked_sensors.size());
    for (const NodeId sensor : out.revoked_sensors)
      digest = fold(digest, sensor.value);
    for (const char c : out.reason)
      digest = fold(digest, static_cast<unsigned char>(c));
    digest = fold(digest, static_cast<std::uint64_t>(
                              out.pinpoint_cost.flooding_rounds));
    digest = fold(digest, static_cast<std::uint64_t>(
                              out.pinpoint_cost.predicate_tests));
    digest = fold(digest, out.pinpoint_cost.control_bytes);
    digest = fold(digest, out.fabric_bytes);
  }
  return digest;
}

TEST(Pinpoint, AttackedStreakOutcomesMatchRecordedDigests) {
  // Recorded before predicate tests were narrowed from every sensor to the
  // tested key's holders: the walks, their costs and their revocations
  // must not move.
  struct Recorded {
    std::string_view attack;
    std::uint64_t digest;
    int disrupted;
  };
  const Recorded recorded[] = {
      {"junk", 0x024e84322634ff81, 28},
      {"choke", 0xc85d740a40761c6d, 29},
      {"selfveto", 0x91c590acdc9729d6, 25},
  };
  for (const Recorded& r : recorded) {
    int disrupted = 0;
    const std::uint64_t digest = streak_outcome_digest(r.attack, disrupted);
    EXPECT_EQ(digest, r.digest) << r.attack;
    EXPECT_EQ(disrupted, r.disrupted) << r.attack;
  }
}

}  // namespace
}  // namespace vmat
