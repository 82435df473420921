// oneshot-large and theorem7-streak: repeated run_min executions over
// SimulationSpec deployments, plus the helpers every workload shares.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <exception>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "crypto/mac_batch.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Deterministic sub-seed for deployment `index` of a run (splitmix64).
std::uint64_t derive(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The named attacks, described exactly as vmatsim's describe_attack does:
/// a declarative AttackPolicy striking in the first confirmation slot.
void describe_attack(const std::string& name, vmat::AttackSpec& attack) {
  using vmat::campaign::AggAction;
  using vmat::campaign::AttackPredicate;
  using vmat::campaign::ConfAction;
  const AttackPredicate first_slot =
      AttackPredicate::slot_at_least(1) && !AttackPredicate::slot_at_least(2);
  vmat::campaign::AttackPolicy policy;
  if (name == "junk") {
    policy.agg = AggAction::kInjectJunk;
  } else if (name == "choke") {
    policy.conf = ConfAction::kChokeVeto;
  } else if (name == "selfveto") {
    policy.conf = ConfAction::kSelfVeto;
    policy.self_veto_value = 1;
  } else {
    throw std::invalid_argument("unknown attack preset " + name);
  }
  attack.policy(policy).when(first_slot);
}

/// Run one execution with fresh readings, check it, and account for it.
/// In a traced run every other execution runs with spans off, so the
/// tracing overhead is measured on the same operation. Under attack only a
/// disrupted execution is an exec_ms sample: the streak's clean executions
/// are a small clean field, which oneshot-large already times.
vmat::ExecutionOutcome timed_run_min(Deployment& d, MinChecker& checker,
                                     std::mt19937_64& rng, SpanLog& spans,
                                     bool traced_run, Run& run) {
  const bool attacked = d.adversary != nullptr;
  const std::vector<vmat::Reading> readings =
      draw_readings(rng, d.net->node_count());
  // The digest covers the first draw: later draws follow from the same
  // stream, and how many a run makes depends on time.
  if (run.exec.executions() == 0)
    for (const vmat::Reading r : readings) run.mix_input(static_cast<std::uint64_t>(r));
  const bool traced = traced_run && run.exec.executions() % 2 == 0;
  spans.set_enabled(traced);
  spans.begin_op();
  const Clock::time_point start = Clock::now();
  vmat::ExecutionOutcome out = [&] {
    SpanLog::Scope span(spans, "core.run_min");
    return d.coordinator->run_min(readings);
  }();
  const double ms = ms_since(start);
  spans.set_enabled(traced_run);
  run.exec.add(out, ms);
  if (!attacked || !out.produced_result()) run.exec_ms.push_back(ms);
  if (traced_run) (traced ? run.traced_op_ms : run.untraced_op_ms).push_back(ms);
  (void)checker.check(out, readings);
  return out;
}

}  // namespace

double ExecStats::executions_per_second() const {
  const double ms = std::accumulate(clean_ms.begin(), clean_ms.end(), 0.0) +
                    std::accumulate(disrupted_ms.begin(), disrupted_ms.end(), 0.0);
  return ms > 0 ? static_cast<double>(executions()) / (ms / 1000.0) : 0.0;
}

ExecStats& ExecStats::operator+=(const ExecStats& other) {
  clean_ms.insert(clean_ms.end(), other.clean_ms.begin(), other.clean_ms.end());
  disrupted_ms.insert(disrupted_ms.end(), other.disrupted_ms.begin(),
                      other.disrupted_ms.end());
  for (std::size_t p = 0; p < vmat::kTracePhaseCount; ++p)
    phase[p] += other.phase[p];
  fabric_bytes += other.fabric_bytes;
  pinpoint_tests += other.pinpoint_tests;
  pinpoint_rounds += other.pinpoint_rounds;
  return *this;
}

void ExecStats::add(const vmat::ExecutionOutcome& outcome, double ms) {
  (outcome.produced_result() ? clean_ms : disrupted_ms).push_back(ms);
  for (std::size_t p = 0; p < vmat::kTracePhaseCount; ++p)
    phase[p] += outcome.metrics.phase[p];
  fabric_bytes += outcome.fabric_bytes;
  pinpoint_tests +=
      static_cast<std::uint64_t>(outcome.pinpoint_cost.predicate_tests);
  pinpoint_rounds +=
      static_cast<std::uint64_t>(outcome.pinpoint_cost.flooding_rounds);
}

Deployment build_deployment(vmat::SimulationSpec spec, SpanLog& spans,
                            bool path_keys) {
  Deployment d;
  std::optional<vmat::Topology> topology;
  {
    SpanLog::Scope span(spans, "sim.build_topology");
    topology.emplace(spec.build_topology());
  }
  {
    SpanLog::Scope span(spans, "keys.network_build");
    d.net = std::make_unique<vmat::Network>(std::move(*topology),
                                            spec.network());
  }
  if (path_keys) {
    SpanLog::Scope span(spans, "keys.establish_path_keys");
    (void)d.net->establish_path_keys();
  }
  if (spec.has_attack()) {
    SpanLog::Scope span(spans, "attack.build_adversary");
    auto built = spec.build_adversary(*d.net);
    if (!built.has_value())
      throw std::runtime_error("build_adversary: " +
                               built.error().to_string());
    d.adversary = std::move(built.value());
    d.malicious = d.adversary->malicious();
    spec.depth_bound(d.net->topology().depth(d.malicious));
  }
  {
    SpanLog::Scope span(spans, "broadcast.coordinator_build");
    d.coordinator = std::make_unique<vmat::VmatCoordinator>(
        d.net.get(), d.adversary.get(), spec);
  }
  return d;
}

std::mt19937_64 input_rng(std::uint64_t seed, std::uint64_t stream) {
  return std::mt19937_64(derive(seed, 1000 + stream));
}

std::vector<vmat::Reading> draw_readings(std::mt19937_64& rng,
                                         std::uint32_t n) {
  std::uniform_int_distribution<vmat::Reading> dist(1000, 999999);
  std::vector<vmat::Reading> readings(n);
  for (vmat::Reading& r : readings) r = dist(rng);
  return readings;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double mac_ceiling_per_s() {
  constexpr std::size_t kLanes = 256;
  constexpr std::size_t kFrameBytes = 64;
  std::vector<vmat::MacContext> contexts;
  contexts.reserve(kLanes);
  std::vector<std::uint8_t> messages(kLanes * kFrameBytes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    vmat::SymmetricKey key;
    for (std::size_t b = 0; b < key.bytes.size(); ++b)
      key.bytes[b] = static_cast<std::uint8_t>(i * 31 + b);
    contexts.emplace_back(key);
    for (std::size_t b = 0; b < kFrameBytes; ++b)
      messages[i * kFrameBytes + b] = static_cast<std::uint8_t>(i + b * 7);
  }
  vmat::MacBatch batch;
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t macs = 0;
    const Clock::time_point start = Clock::now();
    while (ms_since(start) < 40.0) {
      batch.clear();
      for (std::size_t i = 0; i < kLanes; ++i)
        batch.add(contexts[i], std::span<const std::uint8_t>(
                                   messages.data() + i * kFrameBytes,
                                   kFrameBytes));
      batch.compute();
      macs += batch.size();
      messages[macs % messages.size()] ^= batch.macs()[0].bytes[0];
    }
    rates.push_back(static_cast<double>(macs) / (ms_since(start) / 1000.0));
  }
  return median(rates);
}

/// The field's topology and key seed. The geometric builder retries until
/// the field is connected, and how many retries a seed needs moved set-up
/// time by 10x between seeds; a fixed field makes setup_s a property of the
/// code. The workload seed drives the readings of every execution.
///
/// With u=100,000 and r=250 two neighbours share a ring key with
/// probability ~0.46, so the field establishes Eschenauer-Gligor path keys
/// for the rest: without them this field's base station shares a key with
/// none of its neighbours and an execution hears no sensor at all.
constexpr std::uint64_t kOneshotDeploymentSeed = 11;

void run_oneshot_large(const RunOptions& opt, SpanLog& spans, Run& run) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  const std::uint32_t n = opt.small ? 2000 : 20000;
  const int setups = opt.small ? 2 : 3;
  vmat::SimulationSpec spec;
  spec.nodes(n).key_pool(100000, 250).seed(kOneshotDeploymentSeed);
  run.note("nodes", n);
  run.note("key_pool", "u=100000 r=250");

  // Set up the same deployment several times; the median is setup_s.
  std::optional<Deployment> built;
  for (int s = 0; s < setups; ++s) {
    built.reset();
    const Clock::time_point start = Clock::now();
    built.emplace(build_deployment(spec, spans, /*path_keys=*/true));
    run.setup_s.push_back(ms_since(start) / 1000.0);
  }
  Deployment& d = *built;

  MinChecker checker(*d.net, {}, d.coordinator->effective_depth_bound());
  std::mt19937_64 rng = input_rng(opt.seed, 0);
  // One untimed warm-up execution fills the lazy key and edge caches a
  // user pays for once per deployment; it is still checked.
  {
    const std::vector<vmat::Reading> readings = draw_readings(rng, n);
    for (const vmat::Reading r : readings) run.mix_input(static_cast<std::uint64_t>(r));
    (void)checker.check(d.coordinator->run_min(readings), readings);
  }
  const std::size_t min_samples = opt.small ? 4 : 100;
  while (Clock::now() < deadline || run.exec.executions() < min_samples)
    (void)timed_run_min(d, checker, rng, spans, opt.trace, run);

  run.checks += checker.tally();
  run.throughput_per_s = run.exec.executions_per_second();
}

/// The streak deployment: topology, key rings and malicious placement of
/// `vmatsim --nodes 400 --f 4 --seed 11`, the deployment the workload was
/// sized on. Placement decides how long a pinpointing walk is, so a
/// per-seed placement would make the streak's cost vary severalfold from
/// run to run; the workload seed drives the readings of every execution and
/// the strategy seed instead.
constexpr std::uint64_t kStreakDeploymentSeed = 11;

void run_theorem7_streak(const RunOptions& opt, SpanLog& spans, Run& run) {
  const char* const presets[] = {"junk", "choke", "selfveto"};
  constexpr std::size_t kPresets = 3;
  const std::uint32_t n = opt.small ? 100 : 400;
  const std::uint32_t f = 4;
  const std::uint32_t theta = opt.small ? 8 : 27;
  const int budget = opt.small ? 30 : 160;
  const int setups = opt.small ? 2 : 5;
  run.note("nodes", n);
  run.note("compromised", f);
  run.note("theta", theta);
  run.note("executions_per_deployment", budget);

  // One deployment per preset, each streak on its own thread with serial
  // executions: three threads, within nproc.
  struct Streak {
    std::optional<SpanLog> spans;
    std::optional<Deployment> deployment;
    Run run;
    int disrupted{0};
    double seconds{0};
    std::exception_ptr error;
  };
  std::array<Streak, kPresets> streaks;
  // Set up every preset's deployment several times, one at a time on this
  // thread, and keep the last: a set-up takes about 12 ms, and setup_s is
  // the median over all of them.
  for (int s = 0; s < setups; ++s) {
    for (std::size_t p = 0; p < kPresets; ++p) {
      vmat::SimulationSpec spec;
      spec.nodes(n).key_pool(1000, 180).revocation_threshold(theta).seed(
          kStreakDeploymentSeed);
      describe_attack(presets[p], spec.attack());
      spec.attack()
          .compromised(f)
          .placement_seed(kStreakDeploymentSeed + 17)
          .strategy_seed(derive(opt.seed, 100 + p));
      Streak& st = streaks[p];
      if (!st.spans) st.spans.emplace(opt.trace);
      st.deployment.reset();
      const Clock::time_point start = Clock::now();
      st.deployment.emplace(build_deployment(spec, *st.spans, /*path_keys=*/false));
      st.run.setup_s.push_back(ms_since(start) / 1000.0);
    }
  }

  auto one_streak = [&](std::size_t p, Streak& out) {
    SpanLog& log = *out.spans;
    Deployment& d = *out.deployment;

    MinChecker checker(*d.net, d.malicious,
                       d.coordinator->effective_depth_bound());
    std::mt19937_64 rng = input_rng(opt.seed, 10 + p);
    const Clock::time_point streak_start = Clock::now();
    for (int e = 0; e < budget; ++e) {
      const vmat::ExecutionOutcome outcome =
          timed_run_min(d, checker, rng, log, opt.trace, out.run);
      if (!outcome.produced_result()) ++out.disrupted;
    }
    out.seconds = ms_since(streak_start) / 1000.0;
    out.run.checks += checker.tally();
  };
  {
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kPresets; ++p) {
      threads.emplace_back([&, p] {
        try {
          one_streak(p, streaks[p]);
        } catch (...) {
          streaks[p].error = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  std::string record = "[";
  int ruined = 0;
  for (std::size_t p = 0; p < kPresets; ++p) {
    Streak& st = streaks[p];
    if (st.error) std::rethrow_exception(st.error);
    spans.append(*st.spans);
    run.mix_input(st.run.input_digest);
    run.checks += st.run.checks;
    run.exec += st.run.exec;
    for (std::vector<double> Run::*v : {&Run::setup_s, &Run::exec_ms, &Run::traced_op_ms,
                    &Run::untraced_op_ms})
      (run.*v).insert((run.*v).end(), (st.run.*v).begin(), (st.run.*v).end());
    ruined += st.disrupted;
    record += std::string(p == 0 ? "" : ", ") + "{\"preset\": " +
              json_string(presets[p]) + ", \"disrupted\": " +
              std::to_string(st.disrupted) + ", \"seconds\": " +
              json_number(st.seconds) + "}";
  }
  run.note_json("streaks", record + "]");
  run.executions_ruined = ruined / static_cast<double>(kPresets);
  run.throughput_per_s = run.exec.executions_per_second();
}

}  // namespace perfbench
