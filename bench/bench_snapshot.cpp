// SNAPSHOT — fork bench: a Monte-Carlo fan-out of clean MIN
// executions run twice, once from scratch (every trial builds its own
// deployment and pays announcement + tree formation) and once forked from
// one shared post-formation snapshot (every trial restores the captured
// prefix and runs only the query phases). Per-trial readings differ, so the
// trials are real work, not one execution repeated.
//
// The bench asserts the fork path is bit-identical to the scratch path —
// same outcome kind, same minima, same fabric bytes, same per-phase
// counters, trial by trial — and reports the fan-out speedup.
//
// VMAT_BENCH_ACCEPT=1 runs the PR acceptance gate instead: at n=4000 the
// forked fan-out must complete >= 2x faster than the scratch fan-out,
// bit-identically. VMAT_TRACE_DIR=<dir> additionally records one attacked
// fork execution (silent-drop adversary, veto + pinpointing) and exports
// its trace for tools/check_trace.py.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "campaign/strategy.h"
#include "core/coordinator.h"
#include "sim/fabric.h"
#include "sim/snapshot.h"
#include "trial_runner.h"
#include "util/stats.h"

namespace {

vmat::NetworkSpec bench_keys(std::uint64_t seed) {
  vmat::NetworkSpec cfg;
  cfg.keys.pool_size = 1000;
  cfg.keys.ring_size = 180;
  cfg.keys.seed = seed;
  return cfg;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Deterministic per-trial readings: every trial is a distinct query.
std::vector<vmat::Reading> trial_readings(std::uint32_t n, std::size_t trial) {
  std::vector<vmat::Reading> readings(n, 500);
  for (std::uint32_t id = 1; id < n; ++id)
    readings[id] = 500 + static_cast<vmat::Reading>(
                             (id * 2654435761ULL + trial * 40503ULL) % 1000);
  return readings;
}

/// Everything an execution outcome decides, for trial-by-trial comparison.
struct TrialResult {
  vmat::OutcomeKind kind{vmat::OutcomeKind::kResult};
  std::vector<vmat::Reading> minima;
  std::uint64_t fabric_bytes{0};
  int data_rounds{0};
  vmat::ExecutionMetrics metrics;

  friend bool operator==(const TrialResult&, const TrialResult&) = default;
};

TrialResult capture(const vmat::ExecutionOutcome& out) {
  return {out.kind, out.minima, out.fabric_bytes, out.data_rounds, out.metrics};
}

/// One fan-out of `trials` clean MIN executions at size n, both ways.
/// Group references from BenchReport::group() are only stable until the
/// next group() call, so each group is created and fully filled in turn.
struct FanOut {
  double scratch_ms{0.0};
  double fork_ms{0.0};
  double scratch_trial_mean_ms{0.0};
  double fork_trial_mean_ms{0.0};
  bool identical{false};
};

FanOut run_fan_out(const vmat::Topology& topo, std::uint32_t n,
                   std::size_t trials, vmat::bench::BenchReport& report) {
  std::vector<TrialResult> scratch(trials);
  std::vector<TrialResult> forked(trials);
  FanOut fan;

  {
    auto& scratch_group = report.group("scratch");
    const auto start = std::chrono::steady_clock::now();
    vmat::bench::timed_trials(
        scratch_group, trials, 0, [&](std::size_t t, vmat::Rng&) {
          vmat::Network net(topo, bench_keys(n));
          vmat::VmatCoordinator coordinator(&net, nullptr,
                                            vmat::CoordinatorSpec{});
          scratch[t] = capture(coordinator.run_min(trial_readings(n, t)));
        });
    fan.scratch_ms = ms_since(start);
    fan.scratch_trial_mean_ms = vmat::mean(scratch_group.trial_ms);
    scratch_group.metric("fanout_wall_ms", fan.scratch_ms);
  }
  {
    auto& fork_group = report.group("fork");
    auto factory = [&topo, n]() {
      auto fork = std::make_unique<vmat::bench::ForkDeployment>();
      fork->net = std::make_unique<vmat::Network>(topo, bench_keys(n));
      fork->coordinator = std::make_unique<vmat::VmatCoordinator>(
          fork->net.get(), nullptr, vmat::CoordinatorSpec{});
      return fork;
    };
    const auto start = std::chrono::steady_clock::now();
    vmat::bench::forked_timed_trials(
        fork_group, trials, 0, factory,
        [&forked, n](std::size_t t, vmat::Rng&,
                     vmat::bench::ForkDeployment& fork,
                     const vmat::Snapshot& snapshot) {
          forked[t] = capture(
              fork.coordinator->resume_min(snapshot, trial_readings(n, t)));
        });
    fan.fork_ms = ms_since(start);
    fan.fork_trial_mean_ms = vmat::mean(fork_group.trial_ms);
    fork_group.metric("fanout_wall_ms", fan.fork_ms);
  }

  fan.identical = scratch == forked;
  return fan;
}

/// VMAT_BENCH_ACCEPT=1: the PR acceptance gate — forked fan-out >= 2x
/// faster than the scratch fan-out at n=4000, bit-identical results.
int run_acceptance_gate() {
  constexpr std::uint32_t n = 4000;
  const std::size_t trials = 16;
  std::printf(
      "SNAPSHOT acceptance gate | %zu-trial clean fan-out at n=%u, forked "
      "vs scratch\n",
      trials, n);
  const double radius = 1.8 / std::sqrt(static_cast<double>(n));
  const auto topo = vmat::Topology::random_geometric(n, radius, 7);

  vmat::bench::BenchReport report("snapshot_accept");
  const FanOut fan = run_fan_out(topo, n, trials, report);

  const double speedup = fan.fork_ms > 0.0 ? fan.scratch_ms / fan.fork_ms : 0.0;
  const bool fast_enough = speedup >= 2.0;
  std::printf("  scratch fan-out: %.1f ms\n  forked fan-out:  %.1f ms\n",
              fan.scratch_ms, fan.fork_ms);
  std::printf("  speedup %.2fx (need >= 2.00x)  %s\n", speedup,
              fast_enough ? "PASS" : "FAIL");
  std::printf("  bit-identical stats: %s\n", fan.identical ? "PASS" : "FAIL");
  std::printf("SNAPSHOT acceptance gate: %s\n",
              fast_enough && fan.identical ? "PASS" : "FAIL");
  return fast_enough && fan.identical ? 0 : 1;
}

/// VMAT_TRACE_DIR: record one attacked fork execution (veto + pinpointing
/// over a restored snapshot) and export its trace for check_trace.py.
void export_fork_trace(const char* dir) {
  const std::uint32_t n = 60;
  const double radius = 1.8 / std::sqrt(static_cast<double>(n));
  const auto topo = vmat::Topology::random_geometric(n, radius, 7);

  // Same malicious placement as bench_scale: a deep victim whose whole
  // parent cut drops silently, forcing a veto and a pinpointing walk.
  const auto depth = topo.bfs_depth();
  std::unordered_set<vmat::NodeId> malicious;
  std::uint32_t victim = 0;
  for (std::uint32_t candidate = n; candidate-- > 1;) {
    if (depth[candidate] < 2) continue;
    std::unordered_set<vmat::NodeId> cut;
    for (vmat::NodeId v : topo.neighbors(vmat::NodeId{candidate}))
      if (depth[v.value] == depth[candidate] - 1) cut.insert(v);
    if (!cut.empty() && topo.connected(cut)) {
      malicious = std::move(cut);
      victim = candidate;
      break;
    }
  }
  if (malicious.empty()) {
    std::printf("[trace] no attackable cut at n=%u; skipping export\n", n);
    return;
  }

  vmat::Network net(topo, bench_keys(n));
  vmat::Adversary adv(&net, malicious,
                      vmat::campaign::make_named_strategy(
                          "silent", vmat::LiePolicy::kDenyAll));
  vmat::CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  vmat::VmatCoordinator coordinator(&net, &adv, cfg);

  // Attach the recorder AFTER the capture: the restore replays the
  // buffered prefix into the sink, so the recording is one complete
  // execution stream (a recorder attached during capture would see the
  // prefix twice — once live, once replayed).
  const vmat::Snapshot snapshot = coordinator.snapshot_after_formation();
  vmat::FlightRecorder recorder;
  coordinator.set_recorder(&recorder);
  std::vector<vmat::Reading> readings(n, 500);
  readings[victim] = 1;
  const auto out = coordinator.resume_min(snapshot, readings);
  coordinator.set_recorder(nullptr);

  const std::string path = std::string(dir) + "/bench_snapshot_fork.json";
  if (!recorder.write_json(path)) {
    std::printf("[trace] FAILED to write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("[trace] wrote %s (outcome: %s)\n", path.c_str(),
              out.produced_result() ? "result" : "revocation");
}

}  // namespace

int main() {
  if (const char* env = std::getenv("VMAT_BENCH_ACCEPT");
      env != nullptr && *env != '\0' && std::string(env) != "0")
    return run_acceptance_gate();

  const bool smoke = vmat::bench::smoke();
  const std::uint32_t n = smoke ? 100 : 800;
  const std::size_t trials = vmat::bench::trials(32);
  std::printf(
      "SNAPSHOT | %zu-trial clean fan-out at n=%u: forked from one shared "
      "post-formation snapshot vs built from scratch\n\n",
      trials, n);

  vmat::bench::BenchReport report("snapshot");
  report.config("n", static_cast<std::int64_t>(n));
  report.config("trials", static_cast<std::int64_t>(trials));

  const double radius = 1.8 / std::sqrt(static_cast<double>(n));
  const auto topo = vmat::Topology::random_geometric(n, radius, 7);

  const FanOut fan = run_fan_out(topo, n, trials, report);

  const double speedup = fan.fork_ms > 0.0 ? fan.scratch_ms / fan.fork_ms : 0.0;
  report.result("speedup_fanout", speedup);
  report.result("bit_identical", fan.identical ? 1.0 : 0.0);

  vmat::TablePrinter table({"path", "fan-out wall ms", "per-trial mean ms"});
  table.add_row({"scratch", vmat::TablePrinter::fmt(fan.scratch_ms, 1),
                 vmat::TablePrinter::fmt(fan.scratch_trial_mean_ms, 2)});
  table.add_row({"fork", vmat::TablePrinter::fmt(fan.fork_ms, 1),
                 vmat::TablePrinter::fmt(fan.fork_trial_mean_ms, 2)});
  table.print();
  std::printf("\nspeedup %.2fx | trial-by-trial bit-identical: %s\n", speedup,
              fan.identical ? "yes" : "NO");
  report.write();

  if (const char* dir = std::getenv("VMAT_TRACE_DIR"))
    export_fork_trace(dir);

  // Identity is the contract; speed is reported here and gated under
  // VMAT_BENCH_ACCEPT (timing at smoke sizes is noise).
  return fan.identical ? 0 : 1;
}
