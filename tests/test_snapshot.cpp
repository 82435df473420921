// Snapshot tests: a fork (snapshot_after_formation + resume_from) must be
// bit-identical to the execute() that would have run the same prefix —
// same stats, same trace stream, for any thread count — and a restored
// epoch must continue the live nonce/ordinal streams. The
// SnapshotParallel suite runs concurrent forks and is picked up by the
// sanitizer CI matrix (ctest -R 'Parallel|ThreadPool|TrialSeed').
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "engine/engine.h"
#include "helpers.h"
#include "sim/snapshot.h"
#include "util/parallel.h"

namespace vmat {
namespace {

using testing::default_readings;
using testing::dense_keys;
using testing::revocations_sound;
using testing::true_min;

void expect_same_outcome(const ExecutionOutcome& a, const ExecutionOutcome& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.trigger, b.trigger);
  EXPECT_EQ(a.minima, b.minima);
  EXPECT_EQ(a.revoked_keys, b.revoked_keys);
  EXPECT_EQ(a.revoked_sensors, b.revoked_sensors);
  EXPECT_EQ(a.data_rounds, b.data_rounds);
  EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
  EXPECT_TRUE(a.metrics == b.metrics);
}

/// Per-trial readings so forked trials are distinct queries, not reruns.
std::vector<Reading> trial_readings(std::uint32_t n, std::size_t trial) {
  std::vector<Reading> readings(n);
  for (std::uint32_t i = 0; i < n; ++i)
    readings[i] = 100 + static_cast<Reading>((i * 13 + trial * 101) % 500);
  return readings;
}

/// Override intra-execution threads for one test, restoring the default.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t threads) {
    set_intra_execution_threads(threads);
  }
  ~ScopedThreads() { set_intra_execution_threads(0); }
};

TEST(Snapshot, ForkMatchesScratchBitIdentical) {
  const auto topo = Topology::grid(6, 6);
  const auto readings = default_readings(36);

  FlightRecorder scratch_rec;
  Network scratch_net(topo, dense_keys());
  VmatCoordinator scratch(&scratch_net, nullptr, CoordinatorSpec{});
  scratch.set_recorder(&scratch_rec);
  const auto want = scratch.run_min(readings);
  ASSERT_EQ(want.kind, OutcomeKind::kResult);
  EXPECT_EQ(want.minima[0], true_min(scratch_net, readings));

  Network fork_net(topo, dense_keys());
  VmatCoordinator forker(&fork_net, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = forker.snapshot_after_formation();
  EXPECT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot.node_count(), 36u);

  // Attached after the capture, the recorder receives the replayed prefix
  // plus the live query phases: one complete stream, equal to scratch's.
  FlightRecorder fork_rec;
  forker.set_recorder(&fork_rec);
  const auto got = forker.resume_min(snapshot, readings);

  expect_same_outcome(want, got);
  EXPECT_EQ(scratch_rec.events(), fork_rec.events());

  // Capture after history: a disrupted execution first fills the audit
  // log, the revocation registry and the fabric counters, and the capture
  // must carry exactly what the next execution reads of them.
  SCOPED_TRACE("capture after a revoking execution");
  auto choke = [] {
    return campaign::make_named_strategy("choke", LiePolicy::kDenyAll);
  };
  const std::unordered_set<NodeId> malicious{NodeId{14}};

  Network twin_net(topo, dense_keys());
  Adversary twin_adv(&twin_net, malicious, choke());
  VmatCoordinator twin(&twin_net, &twin_adv, CoordinatorSpec{});
  ASSERT_EQ(twin.run_min(readings).kind, OutcomeKind::kRevocation);
  FlightRecorder twin_rec;
  twin.set_recorder(&twin_rec);
  const auto want_after = twin.run_min(readings);

  Network history_net(topo, dense_keys());
  Adversary history_adv(&history_net, malicious, choke());
  VmatCoordinator history(&history_net, &history_adv, CoordinatorSpec{});
  ASSERT_EQ(history.run_min(readings).kind, OutcomeKind::kRevocation);
  ASSERT_GT(history_net.revocation().revoked_key_count(), 0u);
  ASSERT_GT(history_net.fabric().total_bytes(), 0u);
  const Snapshot after = history.snapshot_after_formation();
  FlightRecorder history_rec;
  history.set_recorder(&history_rec);
  const auto got_after = history.resume_min(after, readings);

  expect_same_outcome(want_after, got_after);
  EXPECT_EQ(twin_rec.events(), history_rec.events());
}

TEST(Snapshot, RepeatedForksFromOneSnapshotAreIdentical) {
  Network net(Topology::grid(6, 6), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = coordinator.snapshot_after_formation();

  const auto readings = default_readings(36);
  const auto first = coordinator.resume_min(snapshot, readings);
  const auto second = coordinator.resume_min(snapshot, readings);
  expect_same_outcome(first, second);

  // Forks are real per-trial work: a different query reads differently.
  auto other = readings;
  other[3] = 42;
  const auto third = coordinator.resume_min(snapshot, other);
  ASSERT_EQ(third.kind, OutcomeKind::kResult);
  EXPECT_EQ(third.minima[0], 42);
  EXPECT_EQ(first.minima[0], 101);
}

TEST(Snapshot, ForkOnSeparateDeploymentMatches) {
  const auto topo = Topology::grid(6, 6);
  Network net_a(topo, dense_keys());
  VmatCoordinator a(&net_a, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = a.snapshot_after_formation();

  // A compatible twin deployment (same topology/keys/config) restores the
  // buffer captured elsewhere — the fan-out sharing mode.
  Network net_b(topo, dense_keys());
  VmatCoordinator b(&net_b, nullptr, CoordinatorSpec{});

  const auto readings = default_readings(36);
  const auto from_a = a.resume_min(snapshot, readings);
  const auto from_b = b.resume_min(snapshot, readings);
  expect_same_outcome(from_a, from_b);
}

TEST(Snapshot, DivergentStrategiesMatchScratch) {
  const auto topo = Topology::grid(5, 5);
  const std::unordered_set<NodeId> malicious{NodeId{7}, NodeId{12}};
  const auto readings = default_readings(25);

  auto make_strategy = [](std::string_view attack) {
    return campaign::make_named_strategy(attack, LiePolicy::kDenyAll);
  };

  // One snapshot, formed under the factory strategy; every named attack
  // shares the honest tree-slot behavior, so the prefix is strategy-blind.
  Network fork_net(topo, dense_keys());
  Adversary factory_adv(&fork_net, malicious, make_strategy("silent"));
  VmatCoordinator forker(&fork_net, &factory_adv, CoordinatorSpec{});
  const Snapshot snapshot = forker.snapshot_after_formation();

  for (const campaign::NamedAttack& attack : campaign::named_attacks()) {
    Network scratch_net(topo, dense_keys());
    Adversary scratch_adv(&scratch_net, malicious, make_strategy(attack.name));
    VmatCoordinator scratch(&scratch_net, &scratch_adv, CoordinatorSpec{});
    const auto want = scratch.run_min(readings);

    Adversary fork_adv(&fork_net, malicious, make_strategy(attack.name));
    forker.set_adversary(&fork_adv);
    const auto got = forker.resume_min(snapshot, readings);

    expect_same_outcome(want, got);
    if (got.kind == OutcomeKind::kRevocation) {
      EXPECT_TRUE(revocations_sound(fork_net, malicious));
    }
  }
  forker.set_adversary(&factory_adv);
}

TEST(Snapshot, ForkStreamIsThreadCountInvariant) {
  const auto topo = Topology::grid(6, 6);
  const auto readings = default_readings(36);

  Network net(topo, dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = coordinator.snapshot_after_formation();

  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);

  std::vector<std::vector<TraceEvent>> streams;
  std::vector<ExecutionOutcome> outcomes;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ScopedThreads scoped(threads);
    recorder.clear();
    outcomes.push_back(coordinator.resume_min(snapshot, readings));
    streams.push_back(recorder.events());
  }
  coordinator.set_recorder(nullptr);

  expect_same_outcome(outcomes[0], outcomes[1]);
  EXPECT_EQ(streams[0], streams[1]);
}

TEST(Snapshot, ResumeRejectsEmptySnapshot) {
  Network net(Topology::grid(4, 4), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  EXPECT_THROW((void)coordinator.resume_min(Snapshot{}, default_readings(16)),
               std::invalid_argument);
}

TEST(Snapshot, ResumeRejectsIncompatibleDeployment) {
  const auto topo = Topology::grid(5, 5);
  Network net_a(topo, dense_keys());
  VmatCoordinator a(&net_a, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = a.snapshot_after_formation();

  // Different key-ring seed: same node count, different deployment
  // identity — the fingerprint check must refuse the restore.
  Network net_b(topo, dense_keys(/*theta=*/0, /*seed=*/9999));
  VmatCoordinator b(&net_b, nullptr, CoordinatorSpec{});
  EXPECT_THROW((void)b.resume_min(snapshot, default_readings(25)),
               std::invalid_argument);
}

TEST(Snapshot, RestoreRejectsStaleKeyMaterial) {
  Network net(Topology::grid(5, 5), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = coordinator.snapshot_after_formation();

  // Re-keying with the *same* spec keeps the fingerprint but bumps the
  // key generation: the captured state references retired key material.
  net.rekey(dense_keys().keys);
  EXPECT_THROW((void)coordinator.resume_min(snapshot, default_readings(25)),
               std::invalid_argument);
}

/// One row of the prepare_epoch() transition table: how the epoch is
/// disturbed after its formation, and what the next prepare_epoch() does.
struct EpochTransition {
  const char* name;
  void (*disturb)(Network& net, VmatCoordinator& coordinator);
  std::uint64_t id_delta;
  std::uint64_t formations_delta;
  bool restored;
};

TEST(Snapshot, PrepareEpochTransitions) {
  const EpochTransition table[] = {
      {"ready epoch: no-op", [](Network&, VmatCoordinator&) {}, 0, 0, false},
      {"one-shot execution: restore",
       [](Network&, VmatCoordinator& c) {
         (void)c.run_min(default_readings(25));
       },
       1, 0, true},
      {"fork: restore",
       [](Network&, VmatCoordinator& c) {
         const Snapshot snapshot = c.snapshot_after_formation();
         (void)c.resume_min(snapshot, default_readings(25));
       },
       1, 0, true},
      {"key revocation: formation",
       [](Network& net, VmatCoordinator&) {
         (void)net.revocation().revoke_key(KeyIndex{5});
       },
       1, 1, false},
      {"sensor revocation: formation",
       [](Network& net, VmatCoordinator&) {
         (void)net.revocation().revoke_sensor(NodeId{5});
       },
       1, 1, false},
      {"rekey: formation",
       [](Network& net, VmatCoordinator&) {
         (void)net.rekey(dense_keys(0, 77).keys);
       },
       1, 1, false},
  };
  for (const EpochTransition& row : table) {
    SCOPED_TRACE(row.name);
    Network net(Topology::grid(5, 5), dense_keys());
    VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
    const Epoch& formed = coordinator.prepare_epoch();
    ASSERT_EQ(formed.id, 1u);
    ASSERT_FALSE(formed.restored);
    ASSERT_EQ(coordinator.formations_run(), 1u);

    row.disturb(net, coordinator);
    EXPECT_EQ(coordinator.epoch_ready(), row.id_delta == 0);
    const std::uint64_t formations = coordinator.formations_run();
    const Epoch& epoch = coordinator.prepare_epoch();
    EXPECT_TRUE(coordinator.epoch_ready());
    EXPECT_EQ(epoch.id, 1 + row.id_delta);
    EXPECT_EQ(coordinator.formations_run(), formations + row.formations_delta);
    EXPECT_EQ(epoch.restored, row.restored);
  }
}

TEST(Snapshot, RearmContinuesEpochOrdinalsAndResults) {
  const std::uint32_t n = 25;
  Network net(Topology::grid(5, 5), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);

  const auto readings = default_readings(n);
  ValueTable values(n, 1, 0);
  values.data = readings;
  const ValueTable weights(n, 1, 0);

  (void)coordinator.prepare_epoch();
  const auto served = coordinator.run_query(values, weights);
  ASSERT_EQ(served.kind, OutcomeKind::kResult);

  // An intervening one-shot execution stales the epoch without touching
  // revocations — exactly the case an epoch restore exists for.
  const auto one_shot = coordinator.run_min(readings);
  ASSERT_EQ(one_shot.kind, OutcomeKind::kResult);
  ASSERT_FALSE(coordinator.epoch_ready());

  ASSERT_TRUE(coordinator.prepare_epoch().restored);
  EXPECT_TRUE(coordinator.epoch_ready());
  EXPECT_EQ(coordinator.epoch().id, 2u);

  const auto reserved = coordinator.run_query(values, weights);
  ASSERT_EQ(reserved.kind, OutcomeKind::kResult);
  EXPECT_EQ(reserved.minima, served.minima);
  coordinator.set_recorder(nullptr);

  // The replayed kEpochBegin continues the live epoch ordinal stream
  // (0 for the formed epoch, 1 for the restored one) — no rewinds.
  std::vector<std::int64_t> epoch_ordinals;
  for (const TraceEvent& e : recorder.events())
    if (e.kind == TraceEventKind::kEpochBegin) epoch_ordinals.push_back(e.value);
  EXPECT_EQ(epoch_ordinals, (std::vector<std::int64_t>{0, 1}));
}

TEST(Snapshot, RestoredEpochVerifiesAcrossBroadcastSegments) {
  const std::uint32_t n = 25;
  Network net(Topology::grid(5, 5), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const auto readings = default_readings(n);
  ValueTable values(n, 1, 0);
  values.data = readings;
  const ValueTable weights(n, 1, 0);

  // The epoch's snapshot holds the sensors' broadcast cursor at epoch 1.
  ASSERT_FALSE(coordinator.prepare_epoch().restored);
  // Two broadcasts per one-shot execution: 160 executions carry the live
  // cursor to epoch 322, past the first segment boundary.
  for (int i = 0; i < 160; ++i)
    ASSERT_EQ(coordinator.execute(values, weights).kind, OutcomeKind::kResult);
  static_assert(2 * 160 + 1 > kSegmentLength);

  // The restore rewinds the cursor into segment 0 and keeps the
  // broadcaster in segment 1: the next announcement must verify across
  // the boundary.
  ASSERT_TRUE(coordinator.prepare_epoch().restored);
  const auto out = coordinator.run_query(values, weights);
  ASSERT_EQ(out.kind, OutcomeKind::kResult);
  EXPECT_EQ(out.minima.front(), true_min(net, readings));
}

TEST(Snapshot, EngineRearmsStaleEpochWithoutRevocation) {
  Network net(Topology::grid(6, 6), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  Engine engine(&coordinator);

  EngineQuery query;
  query.kind = EngineQueryKind::kMin;
  query.raw = default_readings(36);

  const auto first = engine.run_batch({query});
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(first[0].answered());
  EXPECT_EQ(first[0].estimate.value(), 101.0);
  EXPECT_EQ(engine.stats().epochs_formed, 1u);
  EXPECT_EQ(engine.stats().epochs_rearmed, 0u);

  // Stale the epoch (one-shot execution between serving rounds), then
  // serve again: the engine restores the epoch from its snapshot instead
  // of paying another announcement + tree formation.
  const auto one_shot = coordinator.run_min(default_readings(36));
  ASSERT_EQ(one_shot.kind, OutcomeKind::kResult);

  const auto second = engine.run_batch({query});
  ASSERT_EQ(second.size(), 1u);
  ASSERT_TRUE(second[0].answered());
  EXPECT_EQ(second[0].estimate.value(), 101.0);
  EXPECT_EQ(engine.stats().epochs_formed, 1u);
  EXPECT_EQ(engine.stats().epochs_rearmed, 1u);

  const auto& rollups = engine.epoch_rollups();
  ASSERT_EQ(rollups.size(), 2u);
  EXPECT_FALSE(rollups[0].rearmed);
  EXPECT_TRUE(rollups[1].rearmed);
  EXPECT_EQ(rollups[1].formation_rounds, 0);
  EXPECT_EQ(rollups[1].formation_bytes, 0u);
}

TEST(Snapshot, EngineReformsAfterRevocation) {
  Network net(Topology::grid(6, 6), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  Engine engine(&coordinator);

  EngineQuery query;
  query.kind = EngineQueryKind::kMin;
  query.raw = default_readings(36);

  (void)engine.run_batch({query});
  ASSERT_EQ(engine.stats().epochs_formed, 1u);

  // A revocation invalidates the formed tree: the snapshot references a
  // pre-revocation membership, so the engine's next epoch is formed.
  (void)net.revocation().revoke_sensor(NodeId{5});
  EXPECT_FALSE(coordinator.epoch_ready());

  const auto after = engine.run_batch({query});
  ASSERT_EQ(after.size(), 1u);
  ASSERT_TRUE(after[0].answered());
  EXPECT_EQ(after[0].estimate.value(), 101.0);
  EXPECT_EQ(engine.stats().epochs_formed, 2u);
  EXPECT_EQ(engine.stats().epochs_rearmed, 0u);
  ASSERT_EQ(engine.epoch_rollups().size(), 2u);
  EXPECT_FALSE(engine.epoch_rollups()[1].rearmed);
}

// Named for the sanitizer CI matrix: `ctest -R 'Parallel|ThreadPool|...'`
// runs this suite under -DVMAT_SANITIZE=thread.
TEST(SnapshotParallel, ConcurrentForksAreIsolated) {
  const auto topo = Topology::grid(6, 6);
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kTrialsPerWorker = 3;

  // Scratch expectations, computed serially.
  std::vector<ExecutionOutcome> want(kWorkers * kTrialsPerWorker);
  for (std::size_t trial = 0; trial < want.size(); ++trial) {
    Network net(topo, dense_keys());
    VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
    want[trial] = coordinator.run_min(trial_readings(36, trial));
  }

  // One shared snapshot; each worker forks it on a private deployment.
  Network capture_net(topo, dense_keys());
  VmatCoordinator capturer(&capture_net, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = capturer.snapshot_after_formation();

  std::vector<ExecutionOutcome> got(want.size());
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Network net(topo, dense_keys());
      VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
      for (std::size_t i = 0; i < kTrialsPerWorker; ++i) {
        const std::size_t trial = w * kTrialsPerWorker + i;
        got[trial] = coordinator.resume_min(snapshot, trial_readings(36, trial));
      }
    });
  }
  for (auto& worker : workers) worker.join();

  for (std::size_t trial = 0; trial < want.size(); ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_same_outcome(want[trial], got[trial]);
  }
}

}  // namespace
}  // namespace vmat
