// Set-sampling protocol tests (the [29] comparator): membership is
// deterministic with the right density, estimates are accurate, Byzantine
// members cannot ruin the estimate beyond their own self-reports, and
// non-members cannot influence it at all.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/set_sampling.h"
#include "helpers.h"

namespace vmat {
namespace {

using testing::dense_keys;

struct Fx {
  explicit Fx(std::uint32_t side = 8, Adversary* adv = nullptr)
      : net(Topology::grid(side, side), dense_keys()),
        protocol(&net, adv, {.tests_per_level = 48, .key_seed = 3}) {}

  Network net;
  SetSamplingProtocol protocol;
};

TEST(SetSampling, MembershipDeterministicWithRightDensity) {
  Fx fx;
  int level0 = 0, level3 = 0;
  constexpr std::uint32_t kTests = 60;
  for (std::uint32_t t = 0; t < kTests; ++t) {
    for (std::uint32_t id = 1; id < fx.net.node_count(); ++id) {
      EXPECT_EQ(fx.protocol.is_member(NodeId{id}, t, 0),
                fx.protocol.is_member(NodeId{id}, t, 0));
      level0 += fx.protocol.is_member(NodeId{id}, t, 0) ? 1 : 0;
      level3 += fx.protocol.is_member(NodeId{id}, t, 3) ? 1 : 0;
    }
  }
  const double n_samples = kTests * (fx.net.node_count() - 1);
  EXPECT_NEAR(level0 / n_samples, 0.5, 0.03);    // 2^-1
  EXPECT_NEAR(level3 / n_samples, 0.0625, 0.01);  // 2^-4
}

TEST(SetSampling, HonestCountWithinFactor) {
  Fx fx;
  std::vector<std::uint8_t> predicate(64, 0);
  for (std::uint32_t id = 1; id <= 20; ++id) predicate[id] = 1;
  const auto run = fx.protocol.count(predicate);
  EXPECT_NEAR(run.estimate, 20.0, 20.0 * 0.6);
  EXPECT_EQ(run.levels, 6u);  // log2(64)
  EXPECT_EQ(run.flooding_rounds, 12);
}

TEST(SetSampling, ZeroCountExact) {
  Fx fx;
  const std::vector<std::uint8_t> predicate(64, 0);
  EXPECT_EQ(fx.protocol.count(predicate).estimate, 0.0);
}

TEST(SetSampling, SilentByzantineMembersCannotSuppress) {
  // Byzantine sensors refuse to answer and refuse to relay — but honest
  // replies flood around them, so the estimate barely moves (they only
  // remove their own contributions).
  const auto topo = Topology::grid(8, 8);
  const auto malicious = choose_malicious(topo, 4, 5);
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious,
                campaign::make_named_strategy("silent", LiePolicy::kDenyAll));
  SetSamplingProtocol protocol(&net, &adv, {.tests_per_level = 48,
                                            .key_seed = 3});
  std::vector<std::uint8_t> predicate(64, 1);
  predicate[0] = 0;
  std::uint32_t honest_true = 0;
  for (std::uint32_t id = 1; id < 64; ++id)
    if (!malicious.contains(NodeId{id})) ++honest_true;
  const auto run = protocol.count(predicate);
  EXPECT_NEAR(run.estimate, static_cast<double>(honest_true),
              honest_true * 0.6);
}

TEST(SetSampling, AdmitAllByzantineOnlyAddsSelfReports) {
  // Byzantine members always answering "yes" is equivalent to them all
  // claiming their reading satisfies the predicate — the estimate moves by
  // at most ~f, never collapses.
  const auto topo = Topology::grid(8, 8);
  const auto malicious = choose_malicious(topo, 4, 6);
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious,
                campaign::make_named_strategy("silent", LiePolicy::kAdmitAll));
  SetSamplingProtocol protocol(&net, &adv, {.tests_per_level = 48,
                                            .key_seed = 3});
  std::vector<std::uint8_t> predicate(64, 0);
  for (std::uint32_t id = 1; id <= 30; ++id) predicate[id] = 1;
  const auto run = protocol.count(predicate);
  // Upper bound: true positives among honest + all f fakers.
  EXPECT_LT(run.estimate, (30.0 + 4.0) * 1.8);
  EXPECT_GT(run.estimate, 30.0 * 0.4);
}

TEST(SetSampling, NeverNeedsPinpointing) {
  // The tolerance property: whatever the adversary does, the query always
  // completes in the same Ω(log n) rounds; there is no disruption path.
  const auto topo = Topology::grid(8, 8);
  const auto malicious = choose_malicious(topo, 6, 7);
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious,
                campaign::make_named_strategy("choke", LiePolicy::kRandom));
  SetSamplingProtocol protocol(&net, &adv, {});
  std::vector<std::uint8_t> predicate(64, 1);
  predicate[0] = 0;
  const auto run = protocol.count(predicate);
  EXPECT_EQ(run.flooding_rounds, 12);
  EXPECT_GT(run.estimate, 0.0);
  EXPECT_EQ(net.revocation().revoked_key_count(), 0u);
}

TEST(SetSampling, ValidatesInputs) {
  Fx fx;
  EXPECT_THROW((void)fx.protocol.count(std::vector<std::uint8_t>(3, 1)),
               std::invalid_argument);
  Network net(Topology::line(4), dense_keys());
  EXPECT_THROW(SetSamplingProtocol(nullptr, nullptr, {}),
               std::invalid_argument);
  EXPECT_THROW(SetSamplingProtocol(&net, nullptr, {.tests_per_level = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vmat
