// Theorem 7 property sweep for *synopsis* (COUNT) queries: the multi-
// instance pipeline under every attack family must either answer within
// the estimator's statistical bounds or soundly revoke, and always
// converge. Complements the plain-MIN sweep in test_properties.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <tuple>

#include "core/query.h"
#include "helpers.h"

namespace vmat {
namespace {

using testing::dense_keys;
using testing::revocations_sound;

enum class Family { kSilent, kValueDrop, kJunk, kChoke, kRandom };

/// Per family: the test-name label, and the named attack
/// (campaign::named_attacks) it runs with predicate-test answers `lie`;
/// Random (RandomByzantine) has none.
struct FamilyInfo {
  const char* name;
  std::string_view attack;
  LiePolicy lie;
};

constexpr FamilyInfo kFamilies[] = {
    {"Silent", "silent", LiePolicy::kDenyAll},
    {"ValueDrop", "drop", LiePolicy::kAdmitAll},
    {"Junk", "junk", LiePolicy::kRandom},
    {"Choke", "choke", LiePolicy::kDenyAll},
    {"Random", "", LiePolicy::kDenyAll},
};

const char* family_name(Family f) {
  return kFamilies[static_cast<std::size_t>(f)].name;
}

std::unique_ptr<AdversaryStrategy> make_strategy(Family f,
                                                 std::uint64_t seed) {
  if (f == Family::kRandom)
    return std::make_unique<RandomByzantineStrategy>(seed);
  const FamilyInfo& info = kFamilies[static_cast<std::size_t>(f)];
  return campaign::make_named_strategy(info.attack, info.lie);
}

using Params = std::tuple<Family, std::uint64_t>;

class SynopsisSweep : public ::testing::TestWithParam<Params> {};

TEST_P(SynopsisSweep, CountQueriesConvergeAndStaySound) {
  const Family family = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());

  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 2, seed + 31);
  Network net(topo, dense_keys(0, seed));
  Adversary adv(&net, malicious, make_strategy(family, seed));
  CoordinatorSpec cfg;
  cfg.instances = 40;
  cfg.depth_bound = topo.depth(malicious);
  cfg.seed = seed;
  VmatCoordinator coordinator(&net, &adv, cfg);
  QueryEngine queries(&coordinator);

  std::vector<std::uint8_t> predicate(25, 0);
  std::uint32_t honest_true = 0;
  for (std::uint32_t id = 1; id < 25; ++id) {
    predicate[id] = 1;
    if (!malicious.contains(NodeId{id})) ++honest_true;
  }

  for (int e = 0; e < 500; ++e) {
    const QueryOutcome out = queries.count(predicate);
    ASSERT_TRUE(revocations_sound(net, malicious))
        << "seed " << seed << ": " << out.exec.reason;
    if (!out.answered()) {
      ASSERT_FALSE(out.exec.revoked_keys.empty() &&
                   out.exec.revoked_sensors.empty())
          << "disrupted but revoked nothing: " << out.exec.reason;
      continue;
    }
    // Answered: within the 40-instance estimator's generous tail, against
    // the population the adversary could legally shape (honest_true .. all
    // 24 sensors self-reporting true).
    EXPECT_GT(*out.estimate, honest_true * 0.35) << "seed " << seed;
    EXPECT_LT(*out.estimate, 24 * 2.2) << "seed " << seed;
    return;
  }
  FAIL() << "never answered within 500 executions";
}

INSTANTIATE_TEST_SUITE_P(
    Families, SynopsisSweep,
    ::testing::Combine(::testing::Values(Family::kSilent, Family::kValueDrop,
                                         Family::kJunk, Family::kChoke,
                                         Family::kRandom),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::string(family_name(std::get<0>(info.param))) +
             std::to_string(std::get<1>(info.param));
    });

TEST(SynopsisSweepLarge, GeometricNetworkFiveByzantines) {
  const auto topo = Topology::random_geometric(80, 0.24, 11);
  const auto malicious = choose_malicious(topo, 5, 13);
  Network net(topo, dense_keys(0, 11));
  Adversary adv(&net, malicious,
                std::make_unique<RandomByzantineStrategy>(99));
  CoordinatorSpec cfg;
  cfg.instances = 30;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);
  QueryEngine queries(&coordinator);
  std::vector<std::uint8_t> predicate(net.node_count(), 1);
  predicate[0] = 0;
  const auto out = queries.count_until_answered(predicate, 500);
  ASSERT_TRUE(out.answered());
  EXPECT_TRUE(revocations_sound(net, malicious));
  EXPECT_GT(*out.estimate, (net.node_count() - 6) * 0.3);
}

}  // namespace
}  // namespace vmat
