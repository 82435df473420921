// Every metric name the benchmark emits, in one place. Untraced runs emit
// the end-to-end set and traced runs the per-layer set, on every workload;
// a layer a workload never calls reads 0 there.
#include "workloads.h"

namespace perfbench {

namespace {

double per(double total, double count) {
  return count > 0 ? total / count : 0.0;
}

void emit_phase(Report& r, const char* name, const vmat::PhaseCounters& c,
                double executions) {
  const std::string base = std::string("core.") + name;
  r.add(base + ".frames", per(static_cast<double>(c.frames_sent), executions),
        "count");
  r.add(base + ".bytes_kb",
        per(static_cast<double>(c.bytes_sent) / 1000.0, executions), "KB");
  r.add(base + ".mac_verifies",
        per(static_cast<double>(c.mac_verifies), executions), "count");
}

void emit_end_to_end(const Run& run, Report& r) {
  r.add("setup_s", median(run.setup_s), "s");
  r.add("exec_ms_p50", percentile(run.exec_ms, 50), "ms");
  r.add("exec_ms_p90", percentile(run.exec_ms, 90), "ms");
  r.add("throughput_per_s", run.throughput_per_s, "1/s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void emit_per_layer(const Run& run, const SpanLog& spans, Report& r) {
  // Set-up: one span per constructor call, median over the run's set-ups.
  r.add("sim.topology_build_ms", median(spans.durations_ms("sim.build_topology")), "ms");
  r.add("keys.network_build_ms", median(spans.durations_ms("keys.network_build")), "ms");
  r.add("keys.path_keys_ms", median(spans.durations_ms("keys.establish_path_keys")),
        "ms");
  r.add("broadcast.coordinator_build_ms",
        median(spans.durations_ms("broadcast.coordinator_build")), "ms");
  r.add("attack.adversary_build_ms",
        median(spans.durations_ms("attack.build_adversary")), "ms");
  r.add("serve.daemon_build_ms", median(spans.durations_ms("serve.daemon_build")), "ms");
  r.add("campaign.runner_build_ms",
        median(spans.durations_ms("campaign.runner_build")), "ms");

  // Executions (run_min), split by outcome kind.
  const ExecStats& x = run.exec;
  r.add("core.execute_ms_p50.clean", percentile(x.clean_ms, 50), "ms");
  r.add("core.execute_ms_p90.clean", percentile(x.clean_ms, 90), "ms");
  r.add("core.execute_ms_p50.disrupted", percentile(x.disrupted_ms, 50), "ms");
  r.add("core.execute_ms_p90.disrupted", percentile(x.disrupted_ms, 90), "ms");
  const auto execs = static_cast<double>(x.executions());
  const auto disrupted = static_cast<double>(x.disrupted_ms.size());
  using vmat::TracePhase;
  auto phase = [&x](TracePhase p) { return x.phase[static_cast<std::size_t>(p)]; };
  emit_phase(r, "tree-formation", phase(TracePhase::kTreeFormation), execs);
  emit_phase(r, "aggregation", phase(TracePhase::kAggregation), execs);
  emit_phase(r, "confirmation", phase(TracePhase::kConfirmation), execs);
  const vmat::PhaseCounters pin = phase(TracePhase::kPinpoint);
  r.add("core.pinpoint.frames", per(static_cast<double>(pin.frames_sent), disrupted), "count");
  r.add("core.pinpoint.mac_verifies", per(static_cast<double>(pin.mac_verifies), disrupted),
        "count");
  r.add("core.pinpoint.predicate_tests",
        per(static_cast<double>(x.pinpoint_tests), disrupted), "count");
  r.add("core.pinpoint.flooding_rounds",
        per(static_cast<double>(x.pinpoint_rounds), disrupted), "count");
  r.add("sim.fabric_kb_per_exec", per(static_cast<double>(x.fabric_bytes) / 1000.0, execs),
        "KB");
  double verifies = 0;
  for (const vmat::PhaseCounters& c : x.phase) verifies += static_cast<double>(c.mac_verifies);
  double exec_s = 0;
  for (const double ms : x.clean_ms) exec_s += ms / 1000.0;
  for (const double ms : x.disrupted_ms) exec_s += ms / 1000.0;
  r.add("crypto.mac_verifies_per_s", per(verifies, exec_s), "1/s");
  r.add("crypto.mac_ceiling_per_s", run.mac_ceiling_per_s, "1/s");

  // Revocation, judged against the malicious set.
  const CheckTally& c = run.checks;
  r.add("keys.revoked_keys", static_cast<double>(c.revoked_keys), "count");
  r.add("keys.revoked_sensors", static_cast<double>(c.revoked_sensors), "count");
  r.add("keys.honest_sensors_revoked", static_cast<double>(c.honest_sensors_revoked),
        "count");

  // vmatd: client round trips, the open-loop schedule, and STATS.
  const ServeFigures& s = run.serve;
  r.add("serve.client.submit_rtt_ms_p50", percentile(s.submit_rtt_ms, 50), "ms");
  r.add("serve.client.submit_rtt_ms_p99", percentile(s.submit_rtt_ms, 99), "ms");
  r.add("serve.client.poll_rtt_ms_p50", percentile(s.poll_rtt_ms, 50), "ms");
  r.add("serve.client.poll_rtt_ms_p99", percentile(s.poll_rtt_ms, 99), "ms");
  r.add("serve.generator_lag_ms_max", s.generator_lag_ms_max, "ms");
  r.add("serve.backlog_end", s.backlog_end, "count");
  r.add("serve.ticks", static_cast<double>(s.ticks), "count");
  r.add("serve.fabric_kb_per_query",
        per(static_cast<double>(s.fabric_bytes) / 1000.0, static_cast<double>(s.queries)),
        "KB");
  r.add("engine.rounds", static_cast<double>(s.rounds), "count");
  r.add("engine.executions", static_cast<double>(s.executions), "count");
  r.add("engine.queries_per_execution",
        per(static_cast<double>(s.queries), static_cast<double>(s.executions)), "count");
  r.add("engine.disrupted_executions", static_cast<double>(s.disrupted_executions), "count");
  r.add("engine.epochs_formed", static_cast<double>(s.epochs_formed), "count");
  r.add("engine.epochs_rearmed", static_cast<double>(s.epochs_rearmed), "count");
  r.add("latency_ms_p50", s.latency_ms_p50, "ms");
  r.add("latency_ms_p99", s.latency_ms_p99, "ms");
  r.add("knee_qps", s.knee_qps, "1/s");

  // Campaign.
  const CampaignFigures& g = run.campaign;
  r.add("campaign.formations", static_cast<double>(g.formations), "count");
  r.add("campaign.predicate_tests", static_cast<double>(g.predicate_tests), "count");
  r.add("campaign.coverage_buckets", static_cast<double>(g.coverage_buckets), "count");
  r.add("campaign.ruin_streak_executions", static_cast<double>(g.ruin_streak_executions),
        "count");
  r.add("campaign.replay_ms_p50", percentile(g.replay_ms, 50), "ms");
  r.add("probes_per_s", g.probes_per_s, "1/s");

  // The paper's bounded-ruin quantity and the ground-truth verdict.
  r.add("executions_ruined", run.executions_ruined, "count");
  r.add("failed_share",
        per(static_cast<double>(c.failed), static_cast<double>(c.attempted)), "share");

  // Self time per layer: span time not covered by child spans.
  const std::map<std::string, double> self = spans.self_ms_by_layer();
  for (const char* layer : {"sim", "keys", "broadcast", "attack", "core", "crypto",
                            "serve", "campaign"}) {
    const auto it = self.find(layer);
    r.add(std::string(layer) + ".self_ms", it == self.end() ? 0.0 : it->second, "ms");
  }
  // Traced runs alternate spans on and off over the same operation.
  r.add("bench.trace_overhead",
        median(run.traced_op_ms) - median(run.untraced_op_ms), "ms");
}

}  // namespace

void emit_metrics(const Run& run, const SpanLog& spans, bool trace,
                  Report& report) {
  if (trace)
    emit_per_layer(run, spans, report);
  else
    emit_end_to_end(run, report);
}

}  // namespace perfbench
