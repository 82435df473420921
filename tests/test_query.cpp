// Query-engine tests: COUNT/SUM/AVERAGE end to end over the network, the
// anti-fabrication path, and the retry loop under attack.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "campaign/runner.h"
#include "core/query.h"
#include "engine/engine.h"
#include "helpers.h"

namespace vmat {
namespace {

using testing::dense_keys;

struct QueryFixture {
  explicit QueryFixture(std::uint32_t instances = 60,
                        Adversary* adversary = nullptr, Level L = 0)
      : net(Topology::grid(6, 6), dense_keys()) {
    CoordinatorSpec cfg;
    cfg.instances = instances;
    if (L > 0) cfg.depth_bound = L;
    coordinator = std::make_unique<VmatCoordinator>(&net, adversary, cfg);
    queries = std::make_unique<QueryEngine>(coordinator.get());
  }

  Network net;
  std::unique_ptr<VmatCoordinator> coordinator;
  std::unique_ptr<QueryEngine> queries;
};

TEST(Query, CountRecoversPredicateCardinality) {
  QueryFixture fx(100);
  std::vector<std::uint8_t> predicate(36, 0);
  for (std::uint32_t id = 1; id <= 20; ++id) predicate[id] = 1;
  const auto out = fx.queries->count(predicate);
  ASSERT_TRUE(out.answered());
  EXPECT_NEAR(*out.estimate, 20.0, 20.0 * 0.35);
}

TEST(Query, CountZeroIsExact) {
  QueryFixture fx(30);
  const std::vector<std::uint8_t> predicate(36, 0);
  const auto out = fx.queries->count(predicate);
  ASSERT_TRUE(out.answered());
  EXPECT_EQ(*out.estimate, 0.0);
}

TEST(Query, SumRecoversTotal) {
  QueryFixture fx(100);
  std::vector<std::int64_t> readings(36, 0);
  std::int64_t total = 0;
  for (std::uint32_t id = 1; id < 36; ++id) {
    readings[id] = id % 7 + 1;
    total += readings[id];
  }
  const auto out = fx.queries->sum(readings);
  ASSERT_TRUE(out.answered());
  EXPECT_NEAR(*out.estimate, static_cast<double>(total), total * 0.35);
}

TEST(Query, SumRejectsNegativeReadings) {
  QueryFixture fx(10);
  std::vector<std::int64_t> readings(36, 1);
  readings[3] = -2;
  EXPECT_THROW((void)fx.queries->sum(readings), std::invalid_argument);
}

TEST(Query, AverageCombinesSumAndCount) {
  QueryFixture fx(100);
  std::vector<std::int64_t> readings(36, 0);
  for (std::uint32_t id = 1; id < 36; ++id) readings[id] = 10;
  const auto out = fx.queries->average(readings);
  ASSERT_TRUE(out.answered());
  EXPECT_NEAR(*out.estimate, 10.0, 10.0 * 0.35);
}

TEST(Query, FabricatedSynopsisIsRejectedAndSignerRevoked) {
  // A malicious sensor signs a synopsis that does not match its claimed
  // weight: the base station detects it via the public PRG and revokes the
  // signer outright (Section VIII anti-fabrication).
  class FabricateSynopsis final : public PolicyStrategy {
   public:
    FabricateSynopsis() : PolicyStrategy(LiePolicy::kDenyAll) {}
    void on_agg_slot(AdversaryView& view, const AggCtx& ctx) override {
      const NodeId m = *view.malicious().begin();
      const Level level = ctx.tree->level[m.value];
      if (level < 1 || ctx.slot != ctx.tree->depth_bound - level + 1) return;
      // Claim weight 1 but report synopsis value 0 (smaller than any
      // legitimate synopsis) with a *valid* sensor-key MAC.
      AggMessage fake;
      fake.origin = m;
      fake.instance = 0;
      fake.value = 0;
      fake.weight = 1;
      fake.mac = compute_mac(view.sensor_key(m),
                             agg_mac_input(ctx.config->nonce, 0, 0, 1));
      const Bytes frame = encode(AggBundle{{fake}});
      for (const ParentLink& link : ctx.tree->parents[m.value])
        (void)view.inject(m, link.claimed_id, m, link.edge_key, frame);
    }
  };

  Network net(Topology::grid(6, 6), dense_keys());
  Adversary adv(&net, {NodeId{8}}, std::make_unique<FabricateSynopsis>());
  CoordinatorSpec cfg;
  cfg.instances = 20;
  cfg.depth_bound = net.topology().depth({NodeId{8}});
  VmatCoordinator coordinator(&net, &adv, cfg);
  QueryEngine queries(&coordinator);

  std::vector<std::uint8_t> predicate(36, 1);
  predicate[0] = 0;
  const auto out = queries.count(predicate);
  EXPECT_FALSE(out.answered());
  EXPECT_EQ(out.exec.trigger, Trigger::kSelfIncrimination);
  ASSERT_FALSE(out.exec.revoked_sensors.empty());
  EXPECT_EQ(out.exec.revoked_sensors.front(), NodeId{8});
}

TEST(Query, CountUntilAnsweredDefeatsDropper) {
  const auto topo = Topology::grid(6, 6);
  const auto malicious = choose_malicious(topo, 2, 5);
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious,
                campaign::make_named_strategy("silent", LiePolicy::kDenyAll));
  CoordinatorSpec cfg;
  cfg.instances = 40;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);
  QueryEngine queries(&coordinator);

  std::vector<std::uint8_t> predicate(36, 0);
  std::uint32_t honest_true = 0;
  for (std::uint32_t id = 1; id < 36; ++id) {
    if (malicious.contains(NodeId{id})) continue;
    predicate[id] = 1;
    ++honest_true;
  }
  const auto out = queries.count_until_answered(predicate, /*max=*/600);
  ASSERT_TRUE(out.answered());
  EXPECT_NEAR(*out.estimate, static_cast<double>(honest_true),
              honest_true * 0.45);
  EXPECT_TRUE(testing::revocations_sound(net, malicious));
}

TEST(Query, MinAndMaxReadings) {
  QueryFixture fx(20);  // multi-instance coordinator serves MIN/MAX too
  std::vector<Reading> readings(36, 0);
  for (std::uint32_t id = 1; id < 36; ++id)
    readings[id] = 50 + static_cast<Reading>((id * 7) % 90);
  Reading lo = kInfinity, hi = -1;
  for (std::uint32_t id = 1; id < 36; ++id) {
    lo = std::min(lo, readings[id]);
    hi = std::max(hi, readings[id]);
  }
  const auto mn = fx.queries->min_reading(readings);
  ASSERT_TRUE(mn.answered());
  EXPECT_EQ(*mn.estimate, static_cast<double>(lo));
  const auto mx = fx.queries->max_reading(readings);
  ASSERT_TRUE(mx.answered());
  EXPECT_EQ(*mx.estimate, static_cast<double>(hi));
}

TEST(Query, MinWithNoReadingIsUnavailableNotDisrupted) {
  // Every sensor reports kInfinity, so the execution produces a result with
  // no reading in it: that is no data (the Engine's kUnavailable for the
  // same case), not a disruption.
  QueryFixture fx(4);
  const auto out = fx.queries->min_reading(std::vector<Reading>(36, kInfinity));
  ASSERT_TRUE(out.exec.produced_result());
  EXPECT_FALSE(out.answered());
  ASSERT_TRUE(out.error.has_value());
  EXPECT_EQ(out.error->code, ErrorCode::kUnavailable);
  EXPECT_EQ(out.error->message, "min/max: no reading arrived");

  EngineQuery query;
  query.kind = EngineQueryKind::kMin;
  query.raw.assign(36, kInfinity);
  Engine engine(fx.coordinator.get());
  const auto results = engine.run_batch({query});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].error, out.error);
}

TEST(Query, DisruptedOutcomeCarriesTheExecutionReason) {
  Network net(Topology::grid(6, 6), dense_keys());
  Adversary adv(&net, {NodeId{8}},
                campaign::make_named_strategy("junk", LiePolicy::kDenyAll));
  CoordinatorSpec cfg;
  cfg.instances = 4;
  cfg.depth_bound = net.topology().depth({NodeId{8}});
  VmatCoordinator coordinator(&net, &adv, cfg);
  QueryEngine queries(&coordinator);
  const auto out = queries.min_reading(testing::default_readings(36));
  ASSERT_FALSE(out.exec.produced_result());
  ASSERT_TRUE(out.error.has_value());
  EXPECT_EQ(out.error->code, ErrorCode::kDisrupted);
  EXPECT_EQ(out.error->message, out.exec.reason);
}

TEST(Query, MaxUnderDropAttackIsNeverInflatedOrSilentlyLowered) {
  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 2, 4);
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious,
                campaign::make_named_strategy("silent", LiePolicy::kDenyAll));
  CoordinatorSpec cfg;
  cfg.instances = 1;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);
  QueryEngine queries(&coordinator);
  std::vector<Reading> readings(25, 10);
  readings[0] = 0;
  readings[24] = 99;
  for (int e = 0; e < 200; ++e) {
    const auto out = queries.max_reading(readings);
    if (!out.answered()) continue;  // revocation round
    // A returned MAX covers every honest reading (drops are caught by the
    // negated-min veto) and cannot exceed anything any sensor signed.
    Reading honest_max = 0;
    for (std::uint32_t id = 1; id < 25; ++id)
      if (!malicious.contains(NodeId{id}) &&
          !net.revocation().is_sensor_revoked(NodeId{id}))
        honest_max = std::max(honest_max, readings[id]);
    EXPECT_GE(*out.estimate, static_cast<double>(honest_max));
    EXPECT_LE(*out.estimate, 99.0);
    return;
  }
  FAIL() << "never answered";
}

TEST(Query, QuantileViaBinarySearchedCounts) {
  QueryFixture fx(100);
  std::vector<std::int64_t> readings(36, 0);
  for (std::uint32_t id = 1; id < 36; ++id) readings[id] = id;  // 1..35
  const auto median = fx.queries->quantile(readings, 0.5, 64);
  ASSERT_TRUE(median.answered());
  // COUNT noise (~10%) can shift the rank boundary by a few values.
  EXPECT_NEAR(*median.estimate, 18.0, 5.0);
  const auto p90 = fx.queries->quantile(readings, 0.9, 64);
  ASSERT_TRUE(p90.answered());
  EXPECT_NEAR(*p90.estimate, 32.0, 4.0);
}

TEST(Query, QuantileValidatesArguments) {
  QueryFixture fx(10);
  std::vector<std::int64_t> readings(36, 1);
  EXPECT_THROW((void)fx.queries->quantile(readings, 0.0, 10),
               std::invalid_argument);
  EXPECT_THROW((void)fx.queries->quantile(readings, 1.0, 10),
               std::invalid_argument);
  EXPECT_THROW((void)fx.queries->quantile(readings, 0.5, 0),
               std::invalid_argument);
  readings[3] = 11;  // outside [0, 10]
  EXPECT_THROW((void)fx.queries->quantile(readings, 0.5, 10),
               std::invalid_argument);
}

TEST(Query, QuantileOfEmptyPopulationIsZero) {
  QueryFixture fx(10);
  const std::vector<std::int64_t> readings(36, 0);
  const auto out = fx.queries->quantile(readings, 0.5, 16);
  ASSERT_TRUE(out.answered());
  EXPECT_EQ(*out.estimate, 0.0);
}

TEST(Query, MaliciousSelfReadingIsNotAnAttack) {
  // A malicious sensor picking an adversarial (but valid) weight for itself
  // shifts the estimate only by its own contribution — the query still
  // completes (it is not "interference" per Section III).
  class SelfWeight final : public PolicyStrategy {
   public:
    SelfWeight() : PolicyStrategy(LiePolicy::kDenyAll) {}
    // Behaves honestly in all phases (tree participation inherited); its
    // influence comes only from the weight the query assigns it below.
  };
  QueryFixture fx(60);
  std::vector<std::uint8_t> predicate(36, 0);
  for (std::uint32_t id = 1; id <= 10; ++id) predicate[id] = 1;
  const auto out = fx.queries->count(predicate);
  ASSERT_TRUE(out.answered());
  EXPECT_NEAR(*out.estimate, 10.0, 10 * 0.5);
}

TEST(Query, KindsReproduceParentDigests) {
  // All six kinds, twice round, through one QueryEngine on the attacked
  // field; the digest folds every outcome's execution and estimate bits.
  // Recorded before the query codec moved into one module.
  testing::ChokedField field(16);
  QueryEngine queries(field.coordinator.get());
  const std::uint32_t n = field.net.node_count();
  std::vector<std::uint8_t> predicate(n, 0);
  std::vector<std::int64_t> readings(n, 0);
  for (std::uint32_t id = 1; id < n; ++id) {
    predicate[id] = id % 3 == 0 ? 1 : 0;
    readings[id] = (id * 37) % 50;
  }
  const auto raw = testing::default_readings(n);

  std::uint64_t digest = 0;
  auto add = [&digest](const QueryOutcome& out) {
    digest = testing::fold(digest, campaign::outcome_digest(out.exec));
    digest = testing::fold(
        digest, out.answered() ? std::bit_cast<std::uint64_t>(*out.estimate)
                               : 0x6e6f6e65u);
  };
  for (int round = 0; round < 2; ++round) {
    add(queries.count(predicate));
    add(queries.sum(readings));
    add(queries.average(readings));
    add(queries.min_reading(raw));
    add(queries.max_reading(raw));
    add(queries.quantile(readings, 0.5, 63));
  }
  EXPECT_EQ(digest, 0x7654c462b1ca95baULL);
}

}  // namespace
}  // namespace vmat
