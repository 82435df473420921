// MonitorService tests: epoch loop, retry accounting, adversary grind-down
// across epochs, and health statistics.
#include <gtest/gtest.h>

#include "core/monitor.h"
#include "helpers.h"

namespace vmat {
namespace {

using testing::dense_keys;

struct MonitorFixture {
  explicit MonitorFixture(std::unordered_set<NodeId> malicious = {},
                          std::unique_ptr<AdversaryStrategy> strategy = nullptr)
      : net(Topology::grid(5, 5), dense_keys()) {
    if (strategy != nullptr)
      adversary.emplace(&net, std::move(malicious), std::move(strategy));
    CoordinatorSpec cfg;
    cfg.instances = 40;
    cfg.depth_bound = net.physical_depth();
    coordinator = std::make_unique<VmatCoordinator>(
        &net, adversary.has_value() ? &*adversary : nullptr, cfg);
    queries = std::make_unique<QueryEngine>(coordinator.get());
    monitor = std::make_unique<MonitorService>(queries.get(), &net);
  }

  Network net;
  std::optional<Adversary> adversary;
  std::unique_ptr<VmatCoordinator> coordinator;
  std::unique_ptr<QueryEngine> queries;
  std::unique_ptr<MonitorService> monitor;
};

TEST(Monitor, HonestEpochsAnswerWithoutRetries) {
  MonitorFixture fx;
  std::vector<std::uint8_t> predicate(25, 0);
  for (std::uint32_t id = 1; id <= 12; ++id) predicate[id] = 1;
  for (int e = 0; e < 3; ++e) {
    const auto report = fx.monitor->run_count_epoch(predicate);
    EXPECT_TRUE(report.answered());
    EXPECT_EQ(report.disruptions, 0);
    EXPECT_EQ(report.keys_revoked, 0u);
    EXPECT_NEAR(*report.estimate, 12.0, 12.0 * 0.5);
  }
  EXPECT_EQ(fx.monitor->epochs(), 3);
  EXPECT_EQ(fx.monitor->answered_epochs(), 3u);
  EXPECT_EQ(fx.monitor->total_disruptions(), 0);
}

TEST(Monitor, EpochNumbersAndHistoryAccumulate) {
  MonitorFixture fx;
  std::vector<std::int64_t> readings(25, 2);
  readings[0] = 0;
  (void)fx.monitor->run_sum_epoch(readings);
  (void)fx.monitor->run_average_epoch(readings);
  ASSERT_EQ(fx.monitor->history().size(), 2u);
  EXPECT_EQ(fx.monitor->history()[0].epoch, 1);
  EXPECT_EQ(fx.monitor->history()[1].epoch, 2);
}

TEST(Monitor, AdversaryGetsGroundDownAcrossEpochs) {
  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 2, 9);
  MonitorFixture fx(malicious,
      campaign::make_named_strategy("silent", LiePolicy::kDenyAll));
  std::vector<std::uint8_t> predicate(25, 1);
  predicate[0] = 0;

  // Early epochs may exhaust their whole retry budget (each retry still
  // revokes a key — progress); once the droppers' key material is burned
  // through, epochs answer instantly and stay clean.
  int total_disruptions = 0;
  bool clean_epoch_seen = false;
  std::size_t previous_keys = 0;
  for (int e = 0; e < 20 && !clean_epoch_seen; ++e) {
    const auto report = fx.monitor->run_count_epoch(predicate);
    total_disruptions += report.disruptions;
    if (!report.answered()) {
      // A budget-exhausted epoch must have revoked one key per retry.
      EXPECT_EQ(report.keys_revoked,
                static_cast<std::size_t>(report.disruptions));
    }
    EXPECT_GE(fx.net.revocation().revoked_key_count(), previous_keys);
    previous_keys = fx.net.revocation().revoked_key_count();
    clean_epoch_seen = report.answered() && report.disruptions == 0;
  }
  EXPECT_TRUE(clean_epoch_seen)
      << "adversary never fully neutralized in 20 epochs";
  EXPECT_EQ(fx.monitor->total_disruptions(), total_disruptions);
  EXPECT_TRUE(testing::revocations_sound(fx.net, malicious));
}

TEST(Monitor, ValidatesConstruction) {
  MonitorFixture fx;
  EXPECT_THROW(MonitorService(nullptr, &fx.net), std::invalid_argument);
  EXPECT_THROW(MonitorService(fx.queries.get(), nullptr),
               std::invalid_argument);
  EXPECT_THROW(MonitorService(fx.queries.get(), &fx.net, {.max_retries_per_epoch = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vmat
