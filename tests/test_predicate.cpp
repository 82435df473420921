// Keyed predicate test: honest evaluation semantics over audit records and
// the Theorem 3 engine guarantees (success iff a satisfying honest holder
// exists, modulo Byzantine holders who may answer either way).
#include <gtest/gtest.h>

#include "core/aggregation.h"
#include "core/predicate_test.h"
#include "core/tree_formation.h"
#include "helpers.h"

namespace vmat {
namespace {

using testing::default_readings;
using testing::dense_keys;

// --- evaluate_predicate unit tests over hand-built audits ---

// Node 5 sits at level 3 with one received and one forwarded record
// (serial build: shard 0).
AuditLog sample_audits() {
  AuditLog audits(8);
  audits.begin_aggregation(1);
  audits.set_level(NodeId{5}, 3);
  ReceivedRecord r;
  r.msg.origin = NodeId{9};
  r.msg.instance = 0;
  r.msg.value = 42;
  r.in_edge = KeyIndex{17};
  r.slot = 2;
  r.child_level = 4;
  audits.add_received(0, NodeId{5}, r);
  ForwardRecord f;
  f.msg = r.msg;
  f.out_edge = KeyIndex{23};
  f.parent = NodeId{2};
  audits.add_forwarded(0, NodeId{5}, f);
  return audits;
}

TEST(Predicate, AggForwardedMatchesLevelValueAndWindow) {
  const AuditLog audit = sample_audits();
  Predicate p;
  p.kind = PredicateKind::kAggForwardedValue;
  p.instance = 0;
  p.v_max = 42;
  p.level = 3;
  p.id_lo = NodeId{0};
  p.id_hi = NodeId{100};
  p.z_lo = KeyIndex{20};
  p.z_hi = KeyIndex{25};
  EXPECT_TRUE(evaluate_predicate(p, NodeId{5}, audit));
  p.v_max = 41;  // smaller bound
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
  p.v_max = 42;
  p.level = 4;  // wrong level
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
  p.level = 3;
  p.z_hi = KeyIndex{22};  // out-edge outside window
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
  p.z_hi = KeyIndex{25};
  p.id_lo = p.id_hi = NodeId{6};  // id window excludes self
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
  p.id_lo = NodeId{0};
  p.id_hi = NodeId{100};
  p.instance = 1;  // wrong instance
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
}

TEST(Predicate, AggReceivedRequiresOwnLevelOneBelow) {
  const AuditLog audit = sample_audits();  // own level 3, child level 4
  Predicate p;
  p.kind = PredicateKind::kAggReceivedValue;
  p.instance = 0;
  p.v_max = 50;
  p.level = 4;  // child level; admitter must sit at 3
  p.id_lo = NodeId{0};
  p.id_hi = NodeId{100};
  EXPECT_TRUE(evaluate_predicate(p, NodeId{5}, audit));
  p.level = 5;  // would require own level 4
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
}

TEST(Predicate, JunkAggKindsBindExactIdentityAndEdge) {
  const AuditLog audit = sample_audits();
  const Digest id_hash = message_identity(audit.forwarded_of(NodeId{5})[0].msg);
  Predicate p;
  p.kind = PredicateKind::kJunkAggForwarded;
  p.level = 3;
  p.bound_edge = KeyIndex{23};
  p.msg_hash = id_hash;
  p.id_lo = NodeId{0};
  p.id_hi = NodeId{100};
  EXPECT_TRUE(evaluate_predicate(p, NodeId{5}, audit));
  p.bound_edge = KeyIndex{17};
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
  p.bound_edge = KeyIndex{23};
  p.msg_hash[0] ^= 1;
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));

  Predicate q;
  q.kind = PredicateKind::kJunkAggReceived;
  q.level = 3;
  q.z_lo = KeyIndex{17};
  q.z_hi = KeyIndex{17};
  q.msg_hash = id_hash;
  q.id_lo = NodeId{0};
  q.id_hi = NodeId{100};
  EXPECT_TRUE(evaluate_predicate(q, NodeId{5}, audit));
  q.z_lo = q.z_hi = KeyIndex{18};
  EXPECT_FALSE(evaluate_predicate(q, NodeId{5}, audit));
}

TEST(Predicate, SofKindsMatchIntervalAndEdges) {
  AuditLog audit(8);
  audit.begin_aggregation(1);
  SofRecord rec;
  rec.msg.origin = NodeId{4};
  rec.msg.value = 7;
  rec.msg.level = 2;
  rec.originated = false;
  rec.received_interval = 2;
  rec.forward_interval = 3;
  rec.in_edge = KeyIndex{31};
  rec.out_edges = {KeyIndex{40}, KeyIndex{41}};
  audit.set_sof(0, NodeId{6}, rec);
  const Digest id_hash = message_identity(rec.msg);

  Predicate p;
  p.kind = PredicateKind::kJunkSofForwarded;
  p.level = 3;
  p.bound_edge = KeyIndex{41};
  p.msg_hash = id_hash;
  p.id_lo = NodeId{0};
  p.id_hi = NodeId{100};
  EXPECT_TRUE(evaluate_predicate(p, NodeId{6}, audit));
  p.level = 2;
  EXPECT_FALSE(evaluate_predicate(p, NodeId{6}, audit));
  p.level = 3;
  p.bound_edge = KeyIndex{42};
  EXPECT_FALSE(evaluate_predicate(p, NodeId{6}, audit));

  Predicate q;
  q.kind = PredicateKind::kJunkSofReceived;
  q.level = 2;
  q.z_lo = KeyIndex{31};
  q.z_hi = KeyIndex{31};
  q.msg_hash = id_hash;
  q.id_lo = NodeId{0};
  q.id_hi = NodeId{100};
  EXPECT_TRUE(evaluate_predicate(q, NodeId{6}, audit));
  // Originators never satisfy the received kind.
  audit.sof_mut(NodeId{6})->originated = true;
  EXPECT_FALSE(evaluate_predicate(q, NodeId{6}, audit));
}

TEST(Predicate, NoAuditNeverSatisfies) {
  const AuditLog empty(2);
  for (auto kind : {PredicateKind::kAggForwardedValue,
                    PredicateKind::kAggReceivedValue,
                    PredicateKind::kJunkAggForwarded,
                    PredicateKind::kJunkAggReceived,
                    PredicateKind::kJunkSofForwarded,
                    PredicateKind::kJunkSofReceived}) {
    Predicate p;
    p.kind = kind;
    p.id_lo = NodeId{0};
    p.id_hi = NodeId{100};
    p.v_max = kInfinity - 1;
    p.z_lo = KeyIndex{0};
    p.z_hi = KeyIndex{0xfffffff0};
    EXPECT_FALSE(evaluate_predicate(p, NodeId{1}, empty));
  }
}

// --- engine tests (Theorem 3) over a real aggregation run ---

struct EngineFixture {
  explicit EngineFixture(Topology topology = Topology::line(6),
                         const NetworkSpec& keys = dense_keys())
      : net(std::move(topology), keys), audits(net.node_count()) {
    (void)net.establish_path_keys();  // none needed on dense rings
    TreePhaseParams tp;
    tp.depth_bound = net.physical_depth();
    tp.session = 1;
    tree = run_tree_formation(net, nullptr, tp);
    AggConfig cfg;
    cfg.nonce = 0xaa;
    auto readings = default_readings(net.node_count());
    readings[5] = 1;
    ValueTable values(net.node_count(), 1, 0);
    const ValueTable weights(net.node_count(), 1, 0);
    for (std::uint32_t id = 0; id < net.node_count(); ++id)
      values.data[id] = readings[id];
    (void)run_aggregation(net, nullptr, tree, cfg, values, weights, audits);
  }

  Predicate forwarded_probe(Level level, Reading v_max) {
    Predicate p;
    p.kind = PredicateKind::kAggForwardedValue;
    p.v_max = v_max;
    p.level = level;
    p.id_lo = NodeId{0};
    p.id_hi = NodeId{0xffffffff};
    p.z_lo = KeyIndex{0};
    p.z_hi = KeyIndex{0xfffffff0};
    return p;
  }

  Network net;
  TreeResult tree;
  AuditLog audits;
};

TEST(PredicateEngine, SucceedsWhenHonestHolderSatisfies) {
  EngineFixture fx;
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, nullptr, &fx.audits, &meter);
  // Node 3 (level 3) forwarded value 1.
  EXPECT_TRUE(engine.run(KeySpec::sensor_key(NodeId{3}),
                         fx.forwarded_probe(3, 1)));
  EXPECT_EQ(meter.predicate_tests, 1);
  EXPECT_EQ(meter.flooding_rounds, 2);
}

TEST(PredicateEngine, FailsWhenNobodySatisfies) {
  EngineFixture fx;
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, nullptr, &fx.audits, &meter);
  // Wrong level for node 3.
  EXPECT_FALSE(engine.run(KeySpec::sensor_key(NodeId{3}),
                          fx.forwarded_probe(4, 1)));
}

TEST(PredicateEngine, PoolKeyTestReachesAllHolders) {
  EngineFixture fx;
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, nullptr, &fx.audits, &meter);
  // Use node 3's actual out-edge key: its holder (node 3) satisfies.
  const KeyIndex out_edge = fx.audits.forwarded_of(NodeId{3})[0].out_edge;
  EXPECT_TRUE(engine.run(KeySpec::pool_key(out_edge),
                         fx.forwarded_probe(3, 1)));
}

TEST(PredicateEngine, ByzantineHolderCanFakeYes) {
  EngineFixture fx;
  Adversary adv(&fx.net, {NodeId{2}},
                campaign::make_named_strategy("silent", LiePolicy::kAdmitAll));
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, &adv, &fx.audits, &meter);
  // Node 2 has no matching record (probe at absurd level), but admits.
  EXPECT_TRUE(engine.run(KeySpec::sensor_key(NodeId{2}),
                         fx.forwarded_probe(99, 1)));
}

TEST(PredicateEngine, ByzantineHolderCanStonewall) {
  EngineFixture fx;
  Adversary adv(&fx.net, {NodeId{2}},
                campaign::make_named_strategy("silent", LiePolicy::kDenyAll));
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, &adv, &fx.audits, &meter);
  // Node 2 does satisfy (it forwarded value 1 at level 2) but stays silent.
  EXPECT_FALSE(engine.run(KeySpec::sensor_key(NodeId{2}),
                          fx.forwarded_probe(2, 1)));
}

TEST(PredicateEngine, ByzantineCannotFakeForKeysItLacks) {
  EngineFixture fx;
  Adversary adv(&fx.net, {NodeId{2}},
                campaign::make_named_strategy("silent", LiePolicy::kAdmitAll));
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, &adv, &fx.audits, &meter);
  // Sensor key of honest node 4, probe it does not satisfy: node 2 cannot
  // answer for a key it does not hold, so the test must fail.
  EXPECT_FALSE(engine.run(KeySpec::sensor_key(NodeId{4}),
                          fx.forwarded_probe(99, 1)));
}

TEST(PredicateEngine, MessageLevelModeAgreesWithReachability) {
  // The reachability collapse is claimed to be exact; check it against the
  // full fabric-level verified flood across a grid of predicates and
  // adversary configurations.
  EngineFixture fx;
  struct Case {
    std::unordered_set<NodeId> malicious;
    LiePolicy policy;
  };
  const Case cases[] = {
      {{}, LiePolicy::kDenyAll},
      {{NodeId{2}}, LiePolicy::kDenyAll},
      {{NodeId{2}}, LiePolicy::kAdmitAll},
      {{NodeId{1}, NodeId{4}}, LiePolicy::kDenyAll},
      {{NodeId{1}, NodeId{4}}, LiePolicy::kAdmitAll},
  };
  for (const auto& c : cases) {
    std::optional<Adversary> adv;
    if (!c.malicious.empty())
      adv.emplace(&fx.net, c.malicious,
                  campaign::make_named_strategy("silent", c.policy));
    Adversary* adv_ptr = adv.has_value() ? &*adv : nullptr;
    for (Level level : {1, 2, 3, 4, 5, 99}) {
      for (Reading v_max : {Reading{1}, Reading{101}, Reading{1000}}) {
        for (std::uint32_t target : {1u, 2u, 3u, 4u, 5u}) {
          const Predicate p = fx.forwarded_probe(level, v_max);
          CostMeter m1, m2;
          PredicateTestEngine fast(&fx.net, adv_ptr, &fx.audits, &m1,
                                   PredicateTestMode::kReachability);
          PredicateTestEngine full(&fx.net, adv_ptr, &fx.audits, &m2,
                                   PredicateTestMode::kMessageLevel);
          const KeySpec key = KeySpec::sensor_key(NodeId{target});
          EXPECT_EQ(fast.run(key, p), full.run(key, p))
              << "target=" << target << " level=" << level
              << " v_max=" << v_max << " f=" << c.malicious.size();
        }
      }
    }
  }
}

TEST(PredicateEngine, MessageLevelDropsJunkFrames) {
  // Feed the flood machinery a junk frame directly: a forwarder must drop
  // anything whose hash does not match the token, so a test keyed on a key
  // nobody satisfies still fails even with garbage in flight.
  EngineFixture fx;
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, nullptr, &fx.audits, &meter,
                             PredicateTestMode::kMessageLevel);
  // Stuff junk into the fabric; the engine resets it before flooding, so
  // also verify a plain failing test is unaffected end to end.
  Envelope junk;
  junk.from = NodeId{1};
  junk.to = NodeId{0};
  junk.edge_key = kNoKey;
  junk.payload = encode(PredicateReplyMsg{});  // wrong reply bytes
  (void)fx.net.fabric().send(junk);
  EXPECT_FALSE(engine.run(KeySpec::sensor_key(NodeId{3}),
                          fx.forwarded_probe(4, 1)));
  // A test nobody can answer sends no reply, so it never floods; a
  // satisfiable one floods for real over the stuffed fabric, and the one
  // valid reply still reaches the base station.
  (void)fx.net.fabric().send(junk);
  EXPECT_TRUE(engine.run(KeySpec::sensor_key(NodeId{3}),
                         fx.forwarded_probe(3, 1)));
}

TEST(PredicateEngine, ReplyBlockedByByzantineCutFails) {
  // Line 0-1-2-3-4-5 with Byzantine node 1: replies from beyond it cannot
  // reach the base station (Byzantine nodes do not relay).
  EngineFixture fx;
  Adversary adv(&fx.net, {NodeId{1}},
                campaign::make_named_strategy("silent", LiePolicy::kDenyAll));
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, &adv, &fx.audits, &meter);
  EXPECT_FALSE(engine.run(KeySpec::sensor_key(NodeId{4}),
                          fx.forwarded_probe(4, 101)));
  // But an injector adjacent to the reachable component succeeds: node 1
  // itself answering yes reaches the BS.
  Adversary adv2(&fx.net, {NodeId{1}},
                 campaign::make_named_strategy("silent", LiePolicy::kAdmitAll));
  PredicateTestEngine engine2(&fx.net, &adv2, &fx.audits, &meter);
  EXPECT_TRUE(engine2.run(KeySpec::sensor_key(NodeId{1}),
                          fx.forwarded_probe(99, 1)));
}

// --- replier set: the tested key's holders, not every sensor ---

TEST(PredicateTest, RepliersMatchFullScan) {
  // Mid-density rings on a grid: pool keys have several holders each, and
  // the few edges whose rings share nothing get path keys (the path-key
  // establishment test_path_keys exercises).
  NetworkSpec keys;
  keys.keys.pool_size = 600;
  keys.keys.ring_size = 40;
  keys.keys.seed = 11;
  EngineFixture fx(Topology::grid(8, 8), keys);
  const Predistribution& pd = fx.net.keys();

  // A pool key some sensor forwarded on, with at least four holders (room
  // for Byzantine, revoked and honest ones), and a registered path key.
  KeyIndex pool = kNoKey;
  KeyIndex path = kNoKey;
  for (std::uint32_t id = 1; id < fx.net.node_count(); ++id) {
    for (const ForwardRecord& f : fx.audits.forwarded_of(NodeId{id}))
      if (pool == kNoKey && !pd.is_path_key(f.out_edge) &&
          pd.holders(f.out_edge).size() >= 4)
        pool = f.out_edge;
    if (path == kNoKey && !pd.path_keys_of(NodeId{id}).empty())
      path = pd.path_keys_of(NodeId{id}).front().second;
  }
  ASSERT_NE(pool, kNoKey);
  ASSERT_NE(path, kNoKey);
  std::vector<NodeId> non_bs;
  for (NodeId h : pd.holders(pool))
    if (h != kBaseStation) non_bs.push_back(h);
  ASSERT_GE(non_bs.size(), 3u);
  const NodeId path_end = pd.holders(path).back();

  const KeySpec specs[] = {
      KeySpec::pool_key(pool), KeySpec::pool_key(path),
      KeySpec::sensor_key(non_bs[0]), KeySpec::sensor_key(path_end),
      KeySpec::pool_key(kNoKey)};
  auto check_all = [&](Adversary* adv, const char* label) {
    std::size_t nonempty = 0;
    for (const KeySpec& key : specs)
      for (Level level = 1; level <= fx.tree.depth_bound + 1; ++level)
        for (Reading v_max : {Reading{1}, Reading{150}, kInfinity - 1})
          for (const PredicateTestMode mode :
               {PredicateTestMode::kReachability,
                PredicateTestMode::kMessageLevel}) {
            const Predicate p = fx.forwarded_probe(level, v_max);
            const std::vector<NodeId> expected = testing::full_scan_repliers(
                fx.net, adv, fx.audits, key, p);
            CostMeter meter;
            PredicateTestEngine engine(&fx.net, adv, &fx.audits, &meter, mode);
            (void)engine.run(key, p);
            const std::vector<NodeId> got(engine.last_repliers().begin(),
                                          engine.last_repliers().end());
            EXPECT_EQ(got, expected)
                << label << " key=" << key.pool.value << "/"
                << key.sensor.value << " level=" << level
                << " v_max=" << v_max;
            if (!got.empty()) ++nonempty;
          }
    EXPECT_GT(nonempty, 0u) << label;  // the grid exercises real repliers
  };

  check_all(nullptr, "honest");
  // Byzantine holders of the pool key, answering yes to everything, then
  // no to everything.
  for (const LiePolicy lie : {LiePolicy::kAdmitAll, LiePolicy::kDenyAll}) {
    Adversary adv(&fx.net, {non_bs[0], path_end},
                  campaign::make_named_strategy("silent", lie));
    check_all(&adv, lie == LiePolicy::kAdmitAll ? "admit" : "deny");
  }
  // A revoked holder of each key never replies.
  (void)fx.net.revocation().revoke_sensor(non_bs[1]);
  (void)fx.net.revocation().revoke_sensor(pd.holders(path).front());
  Adversary adv(&fx.net, {non_bs[0], non_bs[2]},
                campaign::make_named_strategy("silent", LiePolicy::kAdmitAll));
  check_all(nullptr, "revoked");
  check_all(&adv, "revoked+admit");
}

TEST(PredicateTest, RevocationBetweenTestsRecomputesTheComponent) {
  // Line 0-1-2-3-4-5: node 3 forwarded value 1 at level 3. One engine
  // caches the base station's component across tests; revoking honest
  // node 2 cuts node 3 off, and the next test on the same engine must see
  // it. Restoring the pre-revocation registry heals the cut again.
  EngineFixture fx;
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, nullptr, &fx.audits, &meter);
  const KeySpec key = KeySpec::sensor_key(NodeId{3});
  const Predicate p = fx.forwarded_probe(3, 1);
  ASSERT_TRUE(engine.run(key, p));

  RevocationRegistry::SavedState before;
  fx.net.revocation().snapshot_save(before);
  (void)fx.net.revocation().revoke_sensor(NodeId{2});
  EXPECT_FALSE(engine.run(key, p));
  ASSERT_EQ(engine.last_repliers().size(), 1u);  // node 3 still answers

  fx.net.revocation().snapshot_load(before);
  EXPECT_TRUE(engine.run(key, p));
}

}  // namespace
}  // namespace vmat
