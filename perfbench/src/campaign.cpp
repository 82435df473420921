// campaign-fork: CampaignRunner::run() in fork mode — one tree formation,
// every probe restored from its snapshot — then replay() of the corpus it
// found, then replay() of genomes drawn from the workload seed for the rest
// of the run. Every replay takes the same snapshot-resume probe path.
#include <optional>
#include <stdexcept>

#include "campaign/runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// A probe fails on a trace-invariant violation, a framed key, or (for a
/// replay) an outcome digest that drifted from the recorded one.
void check_probe(const vmat::campaign::ProbeOutcome& probe, bool drifted,
                 Run& run) {
  run.checks.revoked_keys += probe.adversary_keys_revoked + probe.framed_keys;
  run.checks.honest_sensors_revoked += probe.honest_sensors_revoked;
  std::vector<Failure> failures;
  if (probe.framed_keys > 0) failures.push_back(Failure::kFramedKey);
  if (probe.violations > 0 || drifted) failures.push_back(Failure::kWrongResult);
  run.checks.count(failures);
}

/// The campaign's deployment, fixed like theorem7-streak's (vmatsim
/// --seed 11 shape at n=200): where the compromised sensors sit sets the
/// cost of every probe's pinpointing walk.
constexpr std::uint64_t kCampaignDeploymentSeed = 11;

/// A genome drawn from a fixed prior: any action, any lie policy, and a
/// trigger that fires always, from slot k on, or in slot k only.
vmat::campaign::CampaignEntry random_genome(std::mt19937_64& rng) {
  using vmat::campaign::AttackPredicate;
  vmat::campaign::CampaignEntry entry;
  entry.seed = rng();
  entry.objective = "generated";
  entry.policy.agg = static_cast<vmat::campaign::AggAction>(rng() % 3);
  entry.policy.conf = static_cast<vmat::campaign::ConfAction>(rng() % 3);
  entry.policy.lie = static_cast<vmat::LiePolicy>(rng() % 3);
  entry.policy.frame_honest_origin = rng() % 2 == 0;
  entry.policy.self_veto_value = static_cast<vmat::Reading>(1 + rng() % 1000);
  const auto k = static_cast<vmat::Interval>(1 + rng() % 3);
  switch (rng() % 3) {
    case 0: entry.when = AttackPredicate::always(); break;
    case 1: entry.when = AttackPredicate::slot_at_least(k); break;
    default:
      entry.when = AttackPredicate::slot_at_least(k) &&
                   !AttackPredicate::slot_at_least(k + 1);
      break;
  }
  return entry;
}

/// One replay through the probe path, timed and checked; spans alternate on
/// and off in a traced run.
vmat::campaign::ProbeOutcome timed_replay(
    vmat::campaign::CampaignRunner& runner,
    const vmat::campaign::CampaignEntry& entry, bool traced_run,
    SpanLog& spans, Run& run, double& ms) {
  const bool traced = traced_run && run.campaign.replay_ms.size() % 2 == 0;
  spans.set_enabled(traced);
  spans.begin_op();
  const Clock::time_point start = Clock::now();
  vmat::campaign::ProbeOutcome out = [&] {
    SpanLog::Scope span(spans, "campaign.replay");
    return runner.replay(entry);
  }();
  ms = ms_since(start);
  spans.set_enabled(traced_run);
  run.campaign.replay_ms.push_back(ms);
  if (traced_run) (traced ? run.traced_op_ms : run.untraced_op_ms).push_back(ms);
  // A replay must reproduce the outcome digest its entry recorded.
  check_probe(out, entry.digest != 0 && out.entry.digest != entry.digest, run);
  return out;
}

}  // namespace

void run_campaign_fork(const RunOptions& opt, SpanLog& spans, Run& run) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  const std::uint32_t n = opt.small ? 60 : 200;
  std::mt19937_64 rng = input_rng(opt.seed, 4);
  vmat::campaign::CampaignConfig config;
  config.spec.nodes(n).key_pool(1000, 180).seed(kCampaignDeploymentSeed);
  config.compromised = 3;
  config.placement_seed = kCampaignDeploymentSeed + 17;
  config.probes = opt.small ? 20 : 150;
  config.seed = rng();
  config.fork_probes = true;
  run.mix_input(config.seed);
  run.note("nodes", n);
  run.note("compromised", config.compromised);
  run.note("probes", config.probes);

  // A construction takes about 15 ms, so set-up is timed many times over
  // and setup_s is their median.
  std::optional<vmat::campaign::CampaignRunner> runner;
  for (int s = 0; s < (opt.small ? 2 : 15); ++s) {
    runner.reset();
    const Clock::time_point start = Clock::now();
    {
      SpanLog::Scope span(spans, "campaign.runner_build");
      runner.emplace(config);
    }
    run.setup_s.push_back(ms_since(start) / 1000.0);
  }

  // The search itself: its probe rate and counters are per-layer figures.
  spans.begin_op();
  const Clock::time_point start = Clock::now();
  const vmat::campaign::CampaignResult result = [&] {
    SpanLog::Scope span(spans, "campaign.run");
    return runner->run();
  }();
  CampaignFigures& fig = run.campaign;
  fig.probes_per_s =
      static_cast<double>(result.probes.size()) / (ms_since(start) / 1000.0);
  for (const auto& probe : result.probes) check_probe(probe, false, run);
  // Fork mode promises one formation per campaign.
  if (result.formations != 1) run.checks.count({Failure::kWrongResult});
  fig.formations = result.formations;
  fig.coverage_buckets = result.coverage_buckets;
  fig.ruin_streak_executions =
      static_cast<std::uint64_t>(result.ruin_streak_executions);
  for (const auto& probe : result.probes)
    fig.predicate_tests += static_cast<std::uint64_t>(probe.predicate_tests);
  run.executions_ruined = result.ruin_streak;
  double ms = 0;
  for (const auto& entry : result.corpus.entries)
    (void)timed_replay(*runner, entry, opt.trace, spans, run, ms);
  run.note("corpus_entries", static_cast<double>(result.corpus.entries.size()));

  // End-to-end: genomes drawn from --seed, replayed through the same
  // snapshot-restore probe path for the rest of the run. One search's
  // path settles on a few genomes whose cost sets its probe rate; genomes
  // drawn from a fixed prior make the rate a property of the code. As on
  // theorem7-streak, exec_ms times the ruined executions: a probe the
  // adversary did not disrupt is a clean n=200 execution.
  const std::size_t min_samples = opt.small ? 8 : 100;
  std::size_t generated = 0;
  double generated_s = 0;
  while (Clock::now() < deadline || run.exec_ms.size() < min_samples) {
    const vmat::campaign::CampaignEntry entry = random_genome(rng);
    if (generated == 0) run.mix_input(entry.seed);
    const vmat::campaign::ProbeOutcome out =
        timed_replay(*runner, entry, opt.trace, spans, run, ms);
    ++generated;
    generated_s += ms / 1000.0;
    if (out.ruined) run.exec_ms.push_back(ms);
  }
  run.throughput_per_s = static_cast<double>(generated) / generated_s;
  run.note("generated_replays", static_cast<double>(generated));
}

}  // namespace perfbench
