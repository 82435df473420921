// perfbench_checker_test — the ground-truth checker, tested two ways.
//
//  1. Each rule on hand-built outcomes over a small deployment: exact and
//     attacked MIN bounds, a framed key, a revoked base station.
//  2. The base-station revocation reproduction:
//       vmatsim --nodes 60 --f 3 --theta 8 --seed 5 --attack junk
//               --executions 40
//     built the way vmatsim builds it. Whatever the protocol does, the
//     checker's failure count must equal an independent recount: the
//     execution that revokes node 0, every result returned while node 0 is
//     revoked, and every result above the honest minimum. Where node 0 is
//     revoked, every later answer must be counted.
//
// Exit code 0 = pass. Prints one line per check.
#include <cstdio>
#include <optional>
#include <string>

#include "checker.h"
#include "spec/simulation_spec.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool has(const std::vector<perfbench::Failure>& fs, perfbench::Failure f) {
  for (const auto x : fs)
    if (x == f) return true;
  return false;
}

vmat::SimulationSpec small_spec(std::uint64_t seed) {
  vmat::SimulationSpec spec;
  spec.nodes(60).key_pool(1000, 180).revocation_threshold(8).seed(seed);
  return spec;
}

void rules_on_hand_built_outcomes() {
  const vmat::SimulationSpec spec = small_spec(5);
  vmat::Network net(spec);
  const auto malicious = vmat::choose_malicious(net.topology(), 3, 22);
  std::vector<vmat::Reading> readings(net.node_count());
  for (std::uint32_t id = 0; id < readings.size(); ++id)
    readings[id] = 5000 + id;
  const vmat::NodeId bad = *malicious.begin();
  readings[bad.value] = 10;  // the global minimum sits on a malicious node

  const vmat::Level depth = net.physical_depth();
  perfbench::MinChecker clean(net, {}, depth);
  perfbench::MinChecker attacked(net, malicious, depth);
  const vmat::Reading honest = attacked.honest_min(readings);
  expect(honest > 10, "honest minimum excludes malicious readings");

  vmat::ExecutionOutcome out;
  out.kind = vmat::OutcomeKind::kResult;
  out.minima = {10};
  expect(clean.check(out, readings).empty(), "clean: exact minimum passes");
  out.minima = {11};
  expect(has(clean.check(out, readings), perfbench::Failure::kWrongResult),
         "clean: any other value is wrong");
  out.minima = {honest};
  expect(attacked.check(out, readings).empty(),
         "attacked: honest minimum passes");
  out.minima = {3};
  expect(attacked.check(out, readings).empty(),
         "attacked: a lower value (a compromised sensor's own) passes");
  out.minima = {honest + 1};
  expect(has(attacked.check(out, readings), perfbench::Failure::kWrongResult),
         "attacked: above the honest minimum is wrong");
  out.minima = {vmat::kInfinity};
  expect(has(attacked.check(out, readings), perfbench::Failure::kWrongResult),
         "attacked: an empty (infinite) MIN is wrong");

  // A key only honest sensors hold is framed; one a malicious sensor holds
  // is not.
  vmat::ExecutionOutcome revoke;
  revoke.kind = vmat::OutcomeKind::kRevocation;
  std::optional<vmat::KeyIndex> held, framed;
  for (std::uint32_t i = 0; i < 1000 && (!held || !framed); ++i) {
    const vmat::KeyIndex k{i};
    bool any = false;
    for (const vmat::NodeId m : malicious) any = any || net.keys().node_holds(m, k);
    (any ? held : framed) = k;
  }
  revoke.revoked_keys = {*held};
  expect(attacked.check(revoke, readings).empty(),
         "a key a malicious sensor holds may be revoked");
  revoke.revoked_keys = {*framed};
  expect(has(attacked.check(revoke, readings), perfbench::Failure::kFramedKey),
         "a key no malicious sensor holds is framed");

  revoke.revoked_keys.clear();
  (void)net.revocation().revoke_sensor(vmat::kBaseStation);
  revoke.revoked_sensors = {vmat::kBaseStation};
  const auto bs = attacked.check(revoke, readings);
  expect(has(bs, perfbench::Failure::kBaseStation),
         "revoking the base station fails");
  expect(!has(attacked.check(revoke, readings), perfbench::Failure::kBaseStation),
         "the base station's revocation is counted once");
  const auto& t = attacked.tally();
  expect(t.attempted == 8 && t.failed == 4,
         "tally: " + std::to_string(t.failed) + " of " +
             std::to_string(t.attempted) + " attempted failed (want 4 of 8)");
}

void base_station_reproduction() {
  // vmatsim --nodes 60 --f 3 --theta 8 --seed 5 --attack junk --executions 40
  vmat::SimulationSpec spec = small_spec(5);
  spec.instances(1);
  vmat::campaign::AttackPolicy policy;
  policy.agg = vmat::campaign::AggAction::kInjectJunk;
  spec.attack()
      .policy(policy)
      .when(vmat::campaign::AttackPredicate::slot_at_least(1) &&
            !vmat::campaign::AttackPredicate::slot_at_least(2))
      .compromised(3)
      .placement_seed(5 + 17);
  vmat::Network net(spec);
  auto adversary = spec.build_adversary(net);
  if (!adversary.has_value()) {
    expect(false, "build_adversary: " + adversary.error().to_string());
    return;
  }
  const auto malicious = adversary.value()->malicious();
  spec.depth_bound(net.topology().depth(malicious));
  vmat::VmatCoordinator coordinator(&net, adversary.value().get(), spec);
  std::vector<vmat::Reading> readings(net.node_count());
  for (std::uint32_t id = 0; id < net.node_count(); ++id)
    readings[id] = 1000 + static_cast<vmat::Reading>((id * 131) % 777);

  perfbench::MinChecker checker(net, malicious,
                                coordinator.effective_depth_bound());
  std::uint64_t recount = 0;
  int bs_revoked_at = 0;
  std::uint64_t results_after = 0, counted_after = 0;
  for (int e = 1; e <= 40; ++e) {
    const bool bs_before = net.revocation().is_sensor_revoked(vmat::kBaseStation);
    const vmat::ExecutionOutcome out = coordinator.run_min(readings);
    const bool bs_after = net.revocation().is_sensor_revoked(vmat::kBaseStation);
    const auto verdict = checker.check(out, readings);

    // Independent recount, from the registry and the readings alone.
    vmat::Reading honest = vmat::kInfinity;
    for (std::uint32_t id = 1; id < net.node_count(); ++id)
      if (malicious.count(vmat::NodeId{id}) == 0 &&
          !net.revocation().is_sensor_revoked(vmat::NodeId{id}))
        honest = std::min(honest, readings[id]);
    const bool newly = bs_after && !bs_before;
    const bool wrong = out.produced_result() &&
                       (bs_before || out.minima.at(0) > honest);
    if (newly || wrong) ++recount;
    if (newly) bs_revoked_at = e;
    if (bs_before && out.produced_result()) {
      ++results_after;
      if (!verdict.empty()) ++counted_after;
    }
  }
  const auto& t = checker.tally();
  std::printf("     reproduction: base station revoked at execution %d, %llu "
              "result(s) after it; checker: %llu of %llu failed "
              "(wrong %llu, framed %llu, base-station %llu)\n",
              bs_revoked_at, static_cast<unsigned long long>(results_after),
              static_cast<unsigned long long>(t.failed),
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.by_kind[0]),
              static_cast<unsigned long long>(t.by_kind[1]),
              static_cast<unsigned long long>(t.by_kind[2]));
  expect(t.attempted == 40, "reproduction: 40 executions checked");
  expect(t.failed == recount,
         "reproduction: checker failures " + std::to_string(t.failed) +
             " == independent recount " + std::to_string(recount));
  expect(counted_after == results_after,
         "reproduction: every result after the base station's revocation "
         "is counted (" + std::to_string(counted_after) + " of " +
             std::to_string(results_after) + ")");
  if (bs_revoked_at > 0)
    expect(t.by_kind[static_cast<std::size_t>(perfbench::Failure::kBaseStation)] == 1,
           "reproduction: the base station's revocation is counted");
}

}  // namespace

int main() {
  rules_on_hand_built_outcomes();
  base_station_reproduction();
  std::printf("%s\n", failures == 0 ? "checker test: PASS" : "checker test: FAIL");
  return failures == 0 ? 0 : 1;
}
