// Serving-engine tests: epoch-batched execution, bit-identical results
// across thread pools, epoch invalidation on revocation, deadlines and
// slow-start admission under a choking adversary, and admission control.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <type_traits>

#include "engine/engine.h"
#include "helpers.h"
#include "spec/simulation_spec.h"
#include "trace/checker.h"

namespace vmat {
namespace {

using testing::dense_keys;

constexpr std::uint32_t kNodes = 36;

struct EngineFixture {
  explicit EngineFixture(std::uint32_t instances = 60,
                         Adversary* adversary = nullptr,
                         EngineConfig config = {}, ThreadPool* pool = nullptr)
      : net(Topology::grid(6, 6), dense_keys()) {
    CoordinatorSpec cfg;
    cfg.instances = instances;
    coordinator = std::make_unique<VmatCoordinator>(&net, adversary, cfg);
    engine = std::make_unique<Engine>(coordinator.get(), config, pool);
  }

  Network net;
  std::unique_ptr<VmatCoordinator> coordinator;
  std::unique_ptr<Engine> engine;
};

std::vector<EngineQuery> mixed_batch() {
  std::vector<EngineQuery> batch;
  {
    EngineQuery q;
    q.kind = EngineQueryKind::kCount;
    q.predicate.assign(kNodes, 0);
    for (std::uint32_t id = 1; id <= 20; ++id) q.predicate[id] = 1;
    batch.push_back(q);
  }
  {
    EngineQuery q;
    q.kind = EngineQueryKind::kSum;
    q.readings.assign(kNodes, 0);
    for (std::uint32_t id = 1; id < kNodes; ++id) q.readings[id] = id % 7 + 1;
    batch.push_back(q);
  }
  {
    EngineQuery q;
    q.kind = EngineQueryKind::kAverage;
    q.readings.assign(kNodes, 0);
    for (std::uint32_t id = 1; id < kNodes; ++id) q.readings[id] = 10;
    batch.push_back(q);
  }
  {
    EngineQuery q;
    q.kind = EngineQueryKind::kMin;
    q.raw = testing::default_readings(kNodes);
    batch.push_back(q);
  }
  {
    EngineQuery q;
    q.kind = EngineQueryKind::kMax;
    q.raw = testing::default_readings(kNodes);
    batch.push_back(q);
  }
  return batch;
}

TEST(Engine, BatchAnswersMatchQuerySemantics) {
  EngineFixture fx(100);
  const auto results = fx.engine->run_batch(mixed_batch());
  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) ASSERT_TRUE(r.answered()) << to_string(r.kind);

  std::int64_t total = 0;
  for (std::uint32_t id = 1; id < kNodes; ++id) total += id % 7 + 1;
  EXPECT_NEAR(*results[0].estimate, 20.0, 20.0 * 0.35);
  EXPECT_NEAR(*results[1].estimate, static_cast<double>(total), total * 0.35);
  EXPECT_NEAR(*results[2].estimate, 10.0, 10.0 * 0.35);
  EXPECT_EQ(*results[3].estimate, 101.0);   // min of 100 + id over id >= 1
  EXPECT_EQ(*results[4].estimate, 135.0);   // max of 100 + id, id <= 35
}

TEST(Engine, BatchReproducesParentDigests) {
  // One mixed batch of all six kinds, twice over, on the attacked field;
  // the digest folds every result and the engine counters. Recorded before
  // the query codec moved into one module.
  testing::ChokedField field(16);
  Engine engine(field.coordinator.get());
  const std::uint32_t n = field.net.node_count();
  std::vector<EngineQuery> batch;
  for (int round = 0; round < 2; ++round)
    for (const EngineQueryKind kind :
         {EngineQueryKind::kCount, EngineQueryKind::kSum,
          EngineQueryKind::kAverage, EngineQueryKind::kMin,
          EngineQueryKind::kMax, EngineQueryKind::kQuantile}) {
      EngineQuery q;
      q.kind = kind;
      q.predicate.assign(n, 0);
      q.readings.assign(n, 0);
      for (std::uint32_t id = 1; id < n; ++id) {
        q.predicate[id] = id % 3 == 0 ? 1 : 0;
        q.readings[id] = (id * 37) % 50;
      }
      q.raw = testing::default_readings(n);
      q.domain_max = 63;
      batch.push_back(std::move(q));
    }

  std::uint64_t digest = 0;
  for (const EngineResult& r : engine.run_batch(std::move(batch))) {
    digest = testing::fold(digest, r.id);
    digest = testing::fold(digest, static_cast<std::uint64_t>(r.kind));
    digest = testing::fold(
        digest, r.answered() ? std::bit_cast<std::uint64_t>(*r.estimate)
                             : 0x6e6f6e65u);
    digest = testing::fold(
        digest, r.error ? static_cast<std::uint64_t>(r.error->code) + 1 : 0);
    digest = testing::fold(digest, static_cast<std::uint64_t>(r.executions));
    digest = testing::fold(digest, r.epoch_id);
  }
  const EngineStats& stats = engine.stats();
  for (const std::uint64_t counter :
       {stats.rounds, stats.executions, stats.disrupted_executions,
        stats.epochs_formed, stats.epochs_rearmed, stats.queries_answered,
        stats.queries_failed, stats.fabric_bytes})
    digest = testing::fold(digest, counter);
  EXPECT_EQ(digest, 0x3e81fc091c06a71aULL);
}

TEST(Engine, WholeBatchSharesOneEpoch) {
  EngineFixture fx(60);
  const auto results = fx.engine->run_batch(mixed_batch());
  for (const auto& r : results) ASSERT_TRUE(r.answered());

  const EngineStats& stats = fx.engine->stats();
  EXPECT_EQ(stats.epochs_formed, 1u);
  EXPECT_TRUE(fx.coordinator->epoch_ready());
  ASSERT_EQ(fx.engine->epoch_rollups().size(), 1u);
  const EpochRollup& rollup = fx.engine->epoch_rollups().front();
  EXPECT_EQ(rollup.executions, stats.executions);
  EXPECT_EQ(rollup.queries_served, results.size());
  EXPECT_EQ(rollup.formation_bytes + rollup.fabric_bytes, stats.fabric_bytes);
  // Every query has the same serving epoch.
  for (const auto& r : results) EXPECT_EQ(r.epoch_id, rollup.epoch_id);
}

TEST(Engine, BitIdenticalAcrossThreadPools) {
  std::vector<std::vector<EngineResult>> runs;
  const std::size_t hw = default_thread_count();
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, hw}) {
    ThreadPool pool(threads);
    EngineFixture fx(60, nullptr, {}, &pool);
    runs.push_back(fx.engine->run_batch(mixed_batch()));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].size(), runs[0].size());
    for (std::size_t j = 0; j < runs[0].size(); ++j) {
      ASSERT_EQ(runs[i][j].answered(), runs[0][j].answered());
      // Bit-identical, not approximately equal: same nonce streams, same
      // PRG blocks, same serial execution whatever the pool width.
      EXPECT_EQ(*runs[i][j].estimate, *runs[0][j].estimate);
      EXPECT_EQ(runs[i][j].executions, runs[0][j].executions);
    }
  }
}

TEST(Engine, QuantileViaBatchedCountProbes) {
  EngineFixture fx(100);
  EngineQuery q;
  q.kind = EngineQueryKind::kQuantile;
  q.readings.assign(kNodes, 0);
  for (std::uint32_t id = 1; id < kNodes; ++id) q.readings[id] = id;
  q.q = 0.5;
  q.domain_max = 64;
  const auto results = fx.engine->run_batch({q});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].answered());
  // Median of 1..35 is 18; the COUNT estimator's (ε,δ) error widens it.
  EXPECT_NEAR(*results[0].estimate, 18.0, 8.0);
  // The probes amortize over one epoch (no revocations happened).
  EXPECT_EQ(fx.engine->stats().epochs_formed, 1u);
  EXPECT_GT(fx.engine->stats().executions, 3u);
}

TEST(Engine, EpochInvalidatedByRevocationAndRekey) {
  EngineFixture fx(1);
  (void)fx.coordinator->prepare_epoch();
  EXPECT_TRUE(fx.coordinator->epoch_ready());

  // Any key revocation may burn an edge of the formed tree.
  (void)fx.net.revocation().revoke_key(KeyIndex{5});
  EXPECT_FALSE(fx.coordinator->epoch_ready());

  (void)fx.coordinator->prepare_epoch();
  EXPECT_TRUE(fx.coordinator->epoch_ready());

  // Rekeying replaces the key material the tree's edges authenticated with.
  (void)fx.net.rekey(dense_keys(0, 77).keys);
  EXPECT_FALSE(fx.coordinator->epoch_ready());

  // A one-shot execute() forms its own tree and orphans the epoch's.
  (void)fx.coordinator->prepare_epoch();
  const auto readings = testing::default_readings(kNodes);
  (void)fx.coordinator->run_min(readings);
  EXPECT_FALSE(fx.coordinator->epoch_ready());
}

TEST(Engine, RunQueryWithoutEpochThrows) {
  EngineFixture fx(1);
  const ValueTable values(kNodes, 1, 1);
  const ValueTable weights(kNodes, 1, 0);
  EXPECT_THROW((void)fx.coordinator->run_query(values, weights),
               std::logic_error);
}

TEST(Engine, ServesEpochPreparedOutsideTheEngine) {
  Network net(Topology::grid(6, 6), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  (void)coordinator.prepare_epoch();
  Engine engine(&coordinator);

  // The engine never prepared this epoch itself; it must still open a
  // rollup for it before serving.
  EngineQuery query;
  query.kind = EngineQueryKind::kMin;
  query.raw = testing::default_readings(kNodes);
  const auto results = engine.run_batch({query});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].answered());
  EXPECT_EQ(results[0].estimate.value(), 101.0);
  EXPECT_EQ(results[0].epoch_id, 1u);
  EXPECT_EQ(coordinator.formations_run(), 1u);
  ASSERT_EQ(engine.epoch_rollups().size(), 1u);
  EXPECT_EQ(engine.epoch_rollups()[0].epoch_id, 1u);
  EXPECT_EQ(engine.epoch_rollups()[0].executions, 1u);
  EXPECT_EQ(engine.epoch_rollups()[0].queries_served, 1u);
}

TEST(Engine, ChokingAdversaryTriggersBackoffThenAnswers) {
  Network net(Topology::grid(6, 6), dense_keys());
  Adversary adv(&net, {NodeId{14}, NodeId{21}},
                campaign::make_named_strategy("choke", LiePolicy::kDenyAll));
  CoordinatorSpec cfg;
  cfg.instances = 40;
  VmatCoordinator coordinator(&net, &adv, cfg);
  EngineConfig config;
  config.max_in_flight = 4;
  Engine engine(&coordinator, config);

  std::vector<EngineQuery> batch;
  for (int i = 0; i < 4; ++i) {
    EngineQuery q;
    q.kind = EngineQueryKind::kCount;
    q.predicate.assign(kNodes, 1);
    q.predicate[0] = 0;
    q.max_executions = 600;  // Theorem 7: each disruption revokes material
    batch.push_back(q);
  }
  const auto results = engine.run_batch(batch);

  // Theorem 7 loop: every disruption revoked adversary material, so all
  // queries eventually answered within the default deadline.
  for (const auto& r : results) {
    ASSERT_TRUE(r.answered());
    EXPECT_NEAR(*r.estimate, 35.0, 35.0 * 0.40);
  }
  const EngineStats& stats = engine.stats();
  EXPECT_GT(stats.disrupted_executions, 0u);
  // Each disruption invalidated the epoch; a fresh tree was formed.
  EXPECT_GT(stats.epochs_formed, 1u);
  // The run ended clean, so slow-start recovered.
  EXPECT_GT(stats.window, 1u);
}

TEST(Engine, DeadlineExceededUnderPersistentDisruption) {
  Network net(Topology::grid(6, 6), dense_keys());
  Adversary adv(&net, {NodeId{14}},
                campaign::make_named_strategy("choke", LiePolicy::kDenyAll));
  CoordinatorSpec cfg;
  cfg.instances = 10;
  VmatCoordinator coordinator(&net, &adv, cfg);
  Engine engine(&coordinator);

  EngineQuery q;
  q.kind = EngineQueryKind::kCount;
  q.predicate.assign(kNodes, 1);
  q.predicate[0] = 0;
  q.max_executions = 1;  // one attempt only — the first choke kills it
  const auto results = engine.run_batch({q});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].answered());
  ASSERT_TRUE(results[0].error.has_value());
  EXPECT_EQ(results[0].error->code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(results[0].executions, 1);
  EXPECT_EQ(engine.stats().window, 1u);
}

TEST(Engine, StepServesIncrementallyAndTakeReadyPreservesOrder) {
  EngineFixture fx(100);
  std::vector<std::uint64_t> ids;
  for (EngineQuery& q : mixed_batch())
    ids.push_back(*fx.engine->submit(std::move(q)));

  // Drive the serving seams the way the daemon does: one round at a time,
  // collecting settled results between rounds.
  std::vector<EngineResult> collected;
  bool more = true;
  while (more) {
    more = fx.engine->step();
    for (EngineResult& r : fx.engine->take_ready())
      collected.push_back(std::move(r));
  }
  EXPECT_EQ(fx.engine->open_queries(), 0u);
  EXPECT_EQ(fx.engine->queued(), 0u);

  ASSERT_EQ(collected.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(collected[i].id, ids[i]);  // submission order preserved
    EXPECT_TRUE(collected[i].answered());
  }
  // take_ready() on a drained engine is an empty no-op.
  EXPECT_TRUE(fx.engine->take_ready().empty());
}

TEST(Engine, TakeReadyMidServeKeepsOpenQueryPayloadsIntact) {
  // Regression: take_ready() used to compact the pending queue with an
  // unconditional move-assignment, which self-moved (and gutted) the first
  // open query's payload vectors whenever nothing settled ahead of it —
  // exactly the daemon's poll-between-rounds pattern under disruption.
  Network net(Topology::grid(6, 6), dense_keys());
  Adversary adv(&net, {NodeId{14}, NodeId{21}},
                campaign::make_named_strategy("choke", LiePolicy::kDenyAll));
  CoordinatorSpec cfg;
  cfg.instances = 40;
  VmatCoordinator coordinator(&net, &adv, cfg);
  Engine engine(&coordinator);

  EngineQuery q;
  q.kind = EngineQueryKind::kCount;
  q.predicate.assign(kNodes, 1);
  q.predicate[0] = 0;
  q.max_executions = 600;
  ASSERT_TRUE(engine.submit(q).has_value());

  std::vector<EngineResult> collected;
  bool more = true;
  while (more) {
    // Poll even when nothing settled: the empty-take path is the trigger.
    for (EngineResult& r : engine.take_ready())
      collected.push_back(std::move(r));
    more = engine.step();
  }
  for (EngineResult& r : engine.take_ready()) collected.push_back(std::move(r));

  ASSERT_EQ(collected.size(), 1u);
  ASSERT_TRUE(collected[0].answered());
  EXPECT_NEAR(*collected[0].estimate, 35.0, 35.0 * 0.40);
  EXPECT_GT(engine.stats().disrupted_executions, 0u);
}

TEST(Engine, StepSettlesEverythingOnceRoundBudgetExhausts) {
  Network net(Topology::grid(6, 6), dense_keys());
  Adversary adv(&net, {NodeId{14}},
                campaign::make_named_strategy("choke", LiePolicy::kDenyAll));
  CoordinatorSpec cfg;
  cfg.instances = 10;
  VmatCoordinator coordinator(&net, &adv, cfg);
  EngineConfig config;
  config.max_rounds = 1;
  Engine engine(&coordinator, config);

  EngineQuery q;
  q.kind = EngineQueryKind::kCount;
  q.predicate.assign(kNodes, 1);
  q.predicate[0] = 0;
  q.max_executions = 50;  // far beyond the engine budget
  ASSERT_TRUE(engine.submit(q).has_value());

  EXPECT_TRUE(engine.step());   // round 1: disrupted, query stays open
  EXPECT_FALSE(engine.step());  // budget check fires before a second round
  const auto results = engine.take_ready();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].error.has_value());
  EXPECT_EQ(results[0].error->code, ErrorCode::kBudgetExhausted);
  EXPECT_EQ(engine.stats().rounds, 1u);
  EXPECT_EQ(engine.stats().queries_failed, 1u);
}

TEST(Engine, DeadlineOnDisruptedRoundSettlesExactlyOnce) {
  // Boundary: the deadline lands on the same disrupted round that
  // invalidates the epoch. The query must settle kDeadlineExceeded exactly
  // once — not get retried on the re-formed epoch, not settle twice.
  Network net(Topology::grid(6, 6), dense_keys());
  Adversary adv(&net, {NodeId{14}},
                campaign::make_named_strategy("choke", LiePolicy::kDenyAll));
  CoordinatorSpec cfg;
  cfg.instances = 10;
  VmatCoordinator coordinator(&net, &adv, cfg);
  Engine engine(&coordinator);

  EngineQuery q;
  q.kind = EngineQueryKind::kCount;
  q.predicate.assign(kNodes, 1);
  q.predicate[0] = 0;
  q.max_executions = 2;  // both attempts disrupted; the second is terminal
  ASSERT_TRUE(engine.submit(q).has_value());

  while (engine.step()) {}
  EXPECT_FALSE(coordinator.epoch_ready());  // that round revoked material
  const auto results = engine.take_ready();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].answered());
  ASSERT_TRUE(results[0].error.has_value());
  EXPECT_EQ(results[0].error->code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(results[0].executions, 2);
  EXPECT_EQ(engine.stats().queries_failed, 1u);  // settled exactly once
  EXPECT_EQ(engine.stats().rounds, 2u);
  EXPECT_EQ(engine.open_queries(), 0u);
}

TEST(Engine, PrepareWarmsEpochAheadAndRearmsAfterOneShot) {
  EngineFixture fx(40);
  // Pipelining seam: prepare() forms the epoch before any query arrives...
  fx.engine->prepare();
  EXPECT_TRUE(fx.coordinator->epoch_ready());
  EXPECT_EQ(fx.engine->stats().epochs_formed, 1u);
  fx.engine->prepare();  // ...and is a no-op while the epoch stays ready.
  EXPECT_EQ(fx.engine->stats().epochs_formed, 1u);

  // A one-shot execution orphans the epoch's tree WITHOUT moving key
  // material — the only situation an epoch restore covers.
  const ValueTable values(kNodes, 40, kInfinity);
  const ValueTable weights(kNodes, 40, 0);
  (void)fx.coordinator->execute(values, weights);
  EXPECT_FALSE(fx.coordinator->epoch_ready());
  fx.engine->prepare();
  EXPECT_TRUE(fx.coordinator->epoch_ready());
  EXPECT_EQ(fx.engine->stats().epochs_rearmed, 1u);
  EXPECT_EQ(fx.engine->stats().epochs_formed, 1u);  // restored, not re-formed
  ASSERT_EQ(fx.engine->epoch_rollups().size(), 2u);
  EXPECT_TRUE(fx.engine->epoch_rollups().back().rearmed);
  EXPECT_EQ(fx.engine->epoch_rollups().back().formation_bytes, 0u);

  // Queries land on the re-armed epoch and serve normally.
  EngineQuery q;
  q.kind = EngineQueryKind::kCount;
  q.predicate.assign(kNodes, 1);
  q.predicate[0] = 0;
  const auto results = fx.engine->run_batch({q});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].answered());
  EXPECT_EQ(fx.engine->stats().epochs_formed, 1u);
}

TEST(Engine, AdmissionControlRejectsOverflowAndBadPayloads) {
  EngineConfig config;
  config.queue_depth = 2;
  EngineFixture fx(10, nullptr, config);

  EngineQuery ok;
  ok.kind = EngineQueryKind::kCount;
  ok.predicate.assign(kNodes, 1);
  EXPECT_TRUE(fx.engine->submit(ok).has_value());
  EXPECT_TRUE(fx.engine->submit(ok).has_value());
  const auto overflow = fx.engine->submit(ok);
  ASSERT_FALSE(overflow.has_value());
  EXPECT_EQ(overflow.error().code, ErrorCode::kQueueFull);

  EngineQuery bad;
  bad.kind = EngineQueryKind::kCount;
  bad.predicate.assign(kNodes - 1, 1);  // does not cover all nodes
  const auto invalid = fx.engine->submit(bad);
  ASSERT_FALSE(invalid.has_value());
  EXPECT_EQ(invalid.error().code, ErrorCode::kInvalidArgument);

  EngineQuery negative;
  negative.kind = EngineQueryKind::kSum;
  negative.readings.assign(kNodes, -1);
  EXPECT_FALSE(fx.engine->submit(negative).has_value());

  const auto results = fx.engine->drain();
  EXPECT_EQ(results.size(), 2u);
}

TEST(Engine, ServingTraceSatisfiesInvariantCheckers) {
  EngineFixture fx(40);
  FlightRecorder recorder;
  fx.coordinator->set_recorder(&recorder);
  const auto results = fx.engine->run_batch(mixed_batch());
  fx.coordinator->set_recorder(nullptr);
  for (const auto& r : results) ASSERT_TRUE(r.answered());

  // The recording holds one epoch slice plus the execution slices; both
  // kinds must satisfy the trace-invariant checker.
  const CheckReport report = check_trace(recorder);
  EXPECT_TRUE(report.ok()) << report.to_string();
  bool saw_epoch = false;
  for (const TraceEvent& e : recorder.events())
    saw_epoch = saw_epoch || e.kind == TraceEventKind::kEpochBegin;
  EXPECT_TRUE(saw_epoch);
}

TEST(Engine, SimulationSpecConstructsWholeStack) {
  SimulationSpec spec;
  spec.nodes(36)
      .topology(TopologyKind::kGrid)
      .key_pool(400, 120)
      .instances(40)
      .seed(2024);
  ASSERT_TRUE(spec.check().has_value());
  Network net(spec);
  VmatCoordinator coordinator(&net, nullptr, spec);
  Engine engine(&coordinator);

  EngineQuery q;
  q.kind = EngineQueryKind::kCount;
  q.predicate.assign(36, 1);
  q.predicate[0] = 0;
  const auto results = engine.run_batch({q});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].answered());
  EXPECT_NEAR(*results[0].estimate, 35.0, 35.0 * 0.40);
}

TEST(Engine, SimulationSpecValidateReportsTypedErrors) {
  SimulationSpec spec;
  spec.nodes(1).key_pool(10, 20).loss(1.5).instances(0);
  const auto errors = spec.validate();
  EXPECT_GE(errors.size(), 4u);
  for (const Error& e : errors) EXPECT_EQ(e.code, ErrorCode::kInvalidSpec);
  EXPECT_FALSE(spec.check().has_value());
  EXPECT_THROW((void)Network(spec), std::invalid_argument);
}

}  // namespace
}  // namespace vmat
