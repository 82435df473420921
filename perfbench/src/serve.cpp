// vmatd-openloop: a serve::Daemon serving Daemon::run over a socketpair,
// driven by one client thread. The phases share one daemon:
//
//   throughput    (untraced runs) fresh daemons, each kept full with 16
//                 queries in flight per tenant for a fixed number of
//                 queries: throughput_per_s, and each query's
//                 submit-to-result time: exec_ms;
//   closed loop   (traced runs) one query at a time, in cycles over every
//                 tenant and kind, alternating spans on and off: the
//                 tracing overhead;
//   reference     (traced runs) an open loop at the reference rate:
//                 latency p50/p99;
//   knee search   (traced runs) open-loop steps over the offered rate: the
//                 highest rate at which p99 <= the budget, >= 99% of
//                 requests are answered, the backlog does not grow, and the
//                 generator itself kept to its schedule.
//
// Open-loop latency runs from each request's scheduled send time to the
// poll that saw its result, so a stall is charged to every request queued
// behind it.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "serve/client.h"
#include "serve/daemon.h"
#include "workloads.h"

namespace perfbench {

namespace {

using vmat::EngineQueryKind;
using vmat::serve::ResultRecord;
using vmat::serve::SubmitRequest;

constexpr double kReferenceQps = 200.0;
constexpr double kLatencyBudgetMs = 50.0;
constexpr double kAnsweredShare = 0.99;
/// One pass of the round-robin over the six query kinds and eight tenants.
constexpr std::size_t kCycle = 24;
/// Settled queries per throughput sample of a saturated session.
constexpr std::size_t kChunk = 10 * kCycle;
/// A saturated session that has not settled by then is abandoned; whatever
/// is still open counts as failed.
constexpr double kSaturateTimeoutS = 40.0;

/// The daemon's per-tenant sensor state (serve/daemon.cpp): what an exact
/// MIN or MAX query over tenant `t` must return.
struct TenantTruth {
  vmat::Reading min{vmat::kInfinity};
  vmat::Reading max{0};
};
TenantTruth tenant_truth(std::uint32_t tenant, std::uint32_t nodes) {
  TenantTruth truth;
  for (std::uint32_t id = 1; id < nodes; ++id) {
    const vmat::Reading r =
        1000 + static_cast<vmat::Reading>((id * 131 + tenant * 37) % 777);
    truth.min = std::min(truth.min, r);
    truth.max = std::max(truth.max, r);
  }
  return truth;
}

/// One open-loop step's verdict. A request counts as answered when the
/// daemon settled it during the step or its drain, with a result or an
/// error: refusals (queue full) and requests still open count against the
/// step. Whether a settled result was right is the ground-truth check's
/// business (failed), not the knee's.
struct Step {
  double qps{0};
  std::size_t requests{0};
  std::size_t answered{0};
  double p99_ms{0};
  double lag_ms_max{0};
  std::size_t backlog_mid{0};
  std::size_t backlog_end{0};
  bool generator_fell_behind{false};

  [[nodiscard]] bool passes() const {
    const double growth = static_cast<double>(backlog_end) -
                          static_cast<double>(backlog_mid);
    return !generator_fell_behind && p99_ms <= kLatencyBudgetMs &&
           static_cast<double>(answered) >=
               kAnsweredShare * static_cast<double>(requests) &&
           growth <= std::max(2.0, qps * 0.05);
  }
};

std::string step_json(const Step& s, bool reference) {
  return "{\"qps\": " + json_number(s.qps) +
         ", \"reference\": " + (reference ? "true" : "false") +
         ", \"requests\": " + std::to_string(s.requests) +
         ", \"answered\": " + std::to_string(s.answered) +
         ", \"p99_ms\": " + json_number(s.p99_ms) +
         ", \"backlog_mid\": " + std::to_string(s.backlog_mid) +
         ", \"backlog_end\": " + std::to_string(s.backlog_end) +
         ", \"generator_lag_ms_max\": " + json_number(s.lag_ms_max) +
         ", \"valid\": " + (s.generator_fell_behind ? "false" : "true") +
         ", \"passes\": " + (s.passes() ? "true" : "false") + "}";
}

class Session {
 public:
  /// The query stream is drawn from input_rng(seed, stream).
  Session(vmat::serve::Daemon& daemon, SpanLog& spans, Run& run,
          std::uint64_t seed, std::uint64_t stream)
      : daemon_(daemon), spans_(spans), run_(run),
        rng_(input_rng(seed, stream)) {
    const auto& o = daemon_.options();
    for (std::uint32_t t = 0; t < o.tenants; ++t)
      truth_.push_back(tenant_truth(t, o.nodes));
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0)
      throw std::runtime_error("socketpair failed");
    // Nothing after this may throw: the destructor joins the server thread.
    server_ = std::thread([this] { server_rc_ = daemon_.run(fds_[1], fds_[1]); });
    client_.emplace(fds_[0], fds_[0]);
  }

  ~Session() {
    if (server_.joinable()) {
      // Error path: closing our end makes run() see EOF and return.
      ::shutdown(fds_[0], SHUT_RDWR);
      server_.join();
    }
    ::close(fds_[0]);
    ::close(fds_[1]);
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// One query at a time, in whole cycles of kCycle queries, every other
  /// cycle with spans off: each cycle's mean submit-to-result time is a
  /// traced or an untraced sample of the tracing overhead. A cycle sends
  /// every (tenant, kind) pair of the round-robin once; single queries
  /// would compare kinds (a quantile costs ten times a MAX), not tracing.
  void closed_loop(std::size_t cycles) {
    const bool traced_run = spans_.enabled();
    for (std::size_t c = 0; c < cycles; ++c) {
      const bool traced = traced_run && c % 2 == 0;
      spans_.set_enabled(traced);
      double sum_ms = 0;
      std::size_t answered = 0;
      for (std::size_t i = 0; i < kCycle; ++i) {
        const Clock::time_point start = Clock::now();
        const std::uint64_t id = submit(next_request(), /*counted=*/true, start);
        while (id != 0 && pending_.count(id) != 0) {
          if (poll_once(0) == 0 && pending_.count(id) != 0)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        if (id == 0) continue;
        sum_ms += last_latency_ms_;
        ++answered;
      }
      spans_.set_enabled(traced_run);
      if (answered == 0) continue;
      const double mean_ms = sum_ms / static_cast<double>(answered);
      (traced ? run_.traced_op_ms : run_.untraced_op_ms).push_back(mean_ms);
    }
  }

  /// Closed loop with `window` queries always in flight until `queries`
  /// have been sent and settled: the daemon's throughput when it is never
  /// idle. Each query's submit-to-result time is an exec_ms sample, and
  /// each chunk of kChunk settled queries while the window is still being
  /// refilled (not the first, which forms the tenants' trees) is a
  /// throughput sample. The query count is fixed, not the time, so a run's
  /// operations (and the attacked tenant's failures among them) do not
  /// depend on the host's speed. Returns the session's overall rate.
  double saturate(std::size_t window, std::size_t queries) {
    ++step_id_;
    saturating_ = true;
    const std::size_t settled_before = settled_;
    const Clock::time_point start = Clock::now();
    std::size_t chunk_base = settled_;
    Clock::time_point chunk_start = start;
    bool warm = false;
    std::size_t sent = 0;
    while ((sent < queries || !pending_.empty()) &&
           ms_since(start) < kSaturateTimeoutS * 1000.0) {
      while (sent < queries && pending_.size() < window) {
        ++sent;
        if (submit(next_request(), /*counted=*/true, Clock::now()) == 0) break;
      }
      if (poll_once(0) == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      if (settled_ - chunk_base >= kChunk) {
        const Clock::time_point now = Clock::now();
        if (warm && sent < queries)
          run_.serve.chunk_qps.push_back(
              static_cast<double>(settled_ - chunk_base) /
              (ms_between(chunk_start, now) / 1000.0));
        warm = true;
        chunk_base = settled_;
        chunk_start = now;
      }
    }
    saturating_ = false;
    return static_cast<double>(settled_ - settled_before) /
           (ms_since(start) / 1000.0);
  }

  /// Open loop at `qps` for `seconds`; counted requests feed failed_share.
  Step open_loop(double qps, double seconds, bool counted,
                 std::vector<double>* latencies) {
    Step step;
    step.qps = qps;
    step.requests = static_cast<std::size_t>(qps * seconds);
    step_latencies_.clear();
    ++step_id_;
    const double interval_ms = 1000.0 / qps;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < step.requests; ++i) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(
                       static_cast<double>(i) * interval_ms));
      while (Clock::now() < due) {
        if (poll_once(8) == 0) std::this_thread::sleep_for(
            std::chrono::microseconds(100));
      }
      step.lag_ms_max = std::max(step.lag_ms_max, ms_since(due));
      (void)submit(next_request(), counted, due);
      if (i == step.requests / 2) step.backlog_mid = pending_.size();
    }
    step.backlog_end = pending_.size();
    // Settle the whole backlog before the next step, so no step inherits
    // another's overload.
    drain(10.0);
    step.answered = step_latencies_.size();
    // Unanswered requests miss any latency limit.
    std::vector<double> lat = step_latencies_;
    lat.resize(step.requests, 1e9);
    step.p99_ms = percentile(lat, 99);
    step.generator_fell_behind = step.lag_ms_max > kLatencyBudgetMs;
    if (latencies != nullptr) *latencies = std::move(step_latencies_);
    run_.serve.generator_lag_ms_max =
        std::max(run_.serve.generator_lag_ms_max, step.lag_ms_max);
    return step;
  }

  /// Poll until nothing is pending or `seconds` pass.
  void drain(double seconds) {
    const Clock::time_point start = Clock::now();
    while (!pending_.empty() && ms_since(start) < seconds * 1000.0) {
      if (poll_once(0) == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// STATS, then SHUTDOWN (which settles every in-flight query), then join.
  void finish() {
    const auto stats = client_->stats();
    if (!stats) throw std::runtime_error("STATS failed");
    ServeFigures& fig = run_.serve;
    fig.ticks += stats.value().ticks;
    for (const auto& t : stats.value().tenants) {
      fig.rounds += t.rounds;
      fig.executions += t.executions;
      fig.disrupted_executions += t.disrupted_executions;
      fig.epochs_formed += t.epochs_formed;
      fig.epochs_rearmed += t.epochs_rearmed;
      fig.fabric_bytes += t.fabric_bytes;
      fig.queries += t.submitted;
    }
    const auto rest = client_->shutdown();
    if (rest) record(rest.value());
    server_.join();
    if (server_rc_ != 0) throw std::runtime_error("daemon session error");
    // Whatever never came back failed.
    for (const auto& [id, p] : pending_)
      if (p.counted) fail(p.request, nullptr);
    pending_.clear();
  }

 private:
  struct Pending {
    SubmitRequest request;
    Clock::time_point due;
    bool counted;
    std::uint64_t step;
  };

  SubmitRequest next_request() {
    const auto tenants = daemon_.options().tenants;
    SubmitRequest r;
    r.tenant = static_cast<std::uint32_t>(sequence_ % tenants);
    switch (sequence_ % 6) {
      case 0:
        r.kind = EngineQueryKind::kCount;
        r.threshold = std::uniform_int_distribution<std::int64_t>(1000, 1776)(rng_);
        break;
      case 1: r.kind = EngineQueryKind::kSum; break;
      case 2: r.kind = EngineQueryKind::kAverage; break;
      case 3: r.kind = EngineQueryKind::kMin; break;
      case 4: r.kind = EngineQueryKind::kMax; break;
      default:
        r.kind = EngineQueryKind::kQuantile;
        r.q = std::uniform_real_distribution<double>(0.1, 0.9)(rng_);
        r.domain_max = 2048;
        break;
    }
    // The digest covers each stream's first cycle of kinds and tenants.
    if (sequence_ < 48)
      run_.mix_input(static_cast<std::uint64_t>(r.threshold) ^
                     static_cast<std::uint64_t>(r.q * 1e9));
    ++sequence_;
    return r;
  }

  /// Returns the wire id, or 0 when the daemon refused the request.
  std::uint64_t submit(const SubmitRequest& r, bool counted,
                       Clock::time_point due) {
    spans_.begin_op();
    const Clock::time_point start = Clock::now();
    vmat::Expected<std::uint64_t> id = [&] {
      SpanLog::Scope span(spans_, "serve.client.submit");
      return client_->submit(r);
    }();
    run_.serve.submit_rtt_ms.push_back(ms_since(start));
    if (counted) run_.checks.attempted += 1;
    if (!id) {
      if (counted) fail(r, nullptr);
      return 0;
    }
    pending_.emplace(*id, Pending{r, due, counted, step_id_});
    return *id;
  }

  std::size_t poll_once(std::uint32_t max) {
    const Clock::time_point start = Clock::now();
    auto results = [&] {
      SpanLog::Scope span(spans_, "serve.client.poll");
      return client_->poll(max);
    }();
    run_.serve.poll_rtt_ms.push_back(ms_since(start));
    if (!results) throw std::runtime_error("POLL failed");
    record(results.value());
    return results.value().size();
  }

  void record(const std::vector<ResultRecord>& results) {
    const Clock::time_point now = Clock::now();
    for (const ResultRecord& rec : results) {
      const auto it = pending_.find(rec.request_id);
      if (it == pending_.end()) continue;
      const Pending p = it->second;
      pending_.erase(it);
      last_latency_ms_ = ms_between(p.due, now);
      ++settled_;
      if (p.step == step_id_) step_latencies_.push_back(last_latency_ms_);
      if (saturating_) run_.exec_ms.push_back(last_latency_ms_);
      // At the closed-loop and reference rates every query must be
      // answered correctly. Knee steps overload the daemon on purpose: a
      // refusal there counts against its step's answered share, but a
      // wrong answer fails at any rate.
      const bool wrong = rec.answered && !correct(p.request, rec);
      if (p.counted && (!rec.answered || wrong)) {
        fail(p.request, &rec);
      } else if (wrong) {
        run_.checks.attempted += 1;
        fail(p.request, &rec);
      }
    }
  }

  [[nodiscard]] bool correct(const SubmitRequest& r,
                             const ResultRecord& rec) const {
    if (!std::isfinite(rec.estimate)) return false;
    const TenantTruth& truth = truth_[r.tenant];
    const bool attacked = r.tenant < daemon_.options().adversary_tenants;
    switch (r.kind) {
      case EngineQueryKind::kMin:
        // Under attack a compromised sensor may report any value of its
        // own, so only the range is known.
        return attacked ? rec.estimate <= static_cast<double>(truth.max)
                        : rec.estimate == static_cast<double>(truth.min);
      case EngineQueryKind::kMax:
        return attacked ? rec.estimate >= static_cast<double>(truth.min)
                        : rec.estimate == static_cast<double>(truth.max);
      case EngineQueryKind::kCount:
      case EngineQueryKind::kSum:
      case EngineQueryKind::kAverage:
      case EngineQueryKind::kQuantile:
        return rec.estimate >= 0.0;  // (ε,δ) estimates: no exact truth
    }
    return false;
  }

  /// Count a failed query; the first few are described on stderr.
  void fail(const SubmitRequest& r, const ResultRecord* rec) {
    const bool wrong = rec != nullptr && rec->answered;
    run_.checks.failed += 1;
    run_.checks.by_kind[static_cast<std::size_t>(
        wrong ? Failure::kWrongResult : Failure::kUnanswered)] += 1;
    if (run_.checks.failed > 5) return;
    std::fprintf(stderr, "vmatd query failed: tenant %u %s: %s\n", r.tenant,
                 vmat::to_string(r.kind),
                 rec == nullptr        ? "no result"
                 : !rec->answered      ? vmat::to_string(rec->error)
                                       : ("wrong estimate " +
                                          std::to_string(rec->estimate))
                                             .c_str());
  }

  vmat::serve::Daemon& daemon_;
  SpanLog& spans_;
  Run& run_;
  std::mt19937_64 rng_;
  int fds_[2]{-1, -1};
  int server_rc_{0};
  std::thread server_;
  std::optional<vmat::serve::ServeClient> client_;
  std::vector<TenantTruth> truth_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t sequence_{0};
  double last_latency_ms_{0};
  std::size_t settled_{0};
  std::uint64_t step_id_{0};
  std::vector<double> step_latencies_;  ///< settled requests of this step
  bool saturating_{false};
};

/// The knee (per-layer, traced runs): grow the offered rate by a quarter from
/// the reference step until a step fails, then bisect to 3% while
/// `budget_s` lasts. Each step is a fresh schedule on the warm daemon;
/// every step is recorded with its verdict.
void search_knee(Session& session, const Step& reference, double step_s,
                 double budget_s, Run& run) {
  const Clock::time_point begin = Clock::now();
  auto time_left = [&] { return ms_since(begin) / 1000.0 + step_s + 1.0 < budget_s; };
  std::string steps_json = "[" + step_json(reference, true);
  double lo = reference.passes() ? kReferenceQps : 0.0;
  double hi = reference.passes() ? 0.0 : kReferenceQps;
  auto probe = [&](double qps) {
    const Step s = session.open_loop(qps, step_s, /*counted=*/false, nullptr);
    steps_json += ", " + step_json(s, false);
    (s.passes() ? lo : hi) = qps;
  };
  while (hi == 0.0 && time_left()) probe(lo * 1.25);
  while (lo == 0.0 && time_left()) probe(hi / 2.0);
  while (lo > 0.0 && hi / lo > 1.03 && time_left()) probe((lo + hi) / 2.0);
  run.serve.knee_qps = lo;
  run.note_json("rate_steps", steps_json + "]");
}

}  // namespace

void run_vmatd_openloop(const RunOptions& opt, SpanLog& spans, Run& run) {
  const Clock::time_point begin = Clock::now();
  // The daemon's default tenant shape and seed: 8 tenants of 36-node
  // grids, 24 instances, θ = 1, one of them hosting a ChokeVeto adversary.
  // The workload seed drives the query stream (COUNT thresholds, quantile
  // targets); as for theorem7-streak, a per-seed adversary placement would
  // move the daemon's cost from run to run far more than any change to it.
  vmat::serve::ServeOptions so;
  so.adversary_tenants = 1;
  if (opt.small) so.tenants = 4;
  run.note("tenants", so.tenants);
  run.note("tenant_nodes", so.nodes);
  run.note("instances", so.instances);
  run.note("reference_qps", kReferenceQps);
  run.note("latency_budget_ms", kLatencyBudgetMs);

  std::unique_ptr<vmat::serve::Daemon> daemon;
  auto build = [&] {
    daemon.reset();
    const Clock::time_point start = Clock::now();
    {
      SpanLog::Scope span(spans, "serve.daemon_build");
      daemon = std::make_unique<vmat::serve::Daemon>(so);
    }
    run.setup_s.push_back(ms_since(start) / 1000.0);
  };
  for (int s = 0; s < (opt.small ? 2 : 5); ++s) build();

  if (opt.trace) {
    Session session(*daemon, spans, run, opt.seed, 2);
    session.closed_loop(opt.small ? 2 : 40);

    // Reference rate: p99 needs >= 1000 samples to have ten beyond it.
    const double reference_s = opt.small ? 0.5 : 5.0;
    std::vector<double> latencies;
    const Step reference = session.open_loop(kReferenceQps, reference_s,
                                             /*counted=*/true, &latencies);
    run.serve.latency_ms_p50 = percentile(latencies, 50);
    run.serve.latency_ms_p99 = percentile(latencies, 99);
    run.serve.backlog_end = static_cast<double>(reference.backlog_end);
    search_knee(session, reference, opt.small ? 0.3 : 2.0,
                opt.seconds - ms_since(begin) / 1000.0, run);
    session.finish();
    return;
  }

  // Throughput and exec_ms (end-to-end): fresh daemons, each kept full
  // with 16 queries in flight per tenant (the engine's packing window) for
  // a fixed number of queries, sized from --seconds at about 450 q/s.
  // throughput_per_s is the median rate over the sessions' chunks, so a
  // stall of the host moves it less than a mean over the run would. A query
  // served alone would time the hand-offs between the client and the
  // server thread as much as the daemon's work, and those swung with the
  // host's load twice as far as the daemon's pace did.
  const int sessions = opt.small ? 1 : 4;
  const std::size_t saturated =
      opt.small ? 3 * kChunk
                : kCycle * static_cast<std::size_t>(std::max(
                               1.0, (opt.seconds - 2.0) / sessions * 450.0 /
                                        static_cast<double>(kCycle)));
  std::string rates = "[";
  for (int k = 0; k < sessions; ++k) {
    build();
    Session session(*daemon, spans, run, opt.seed, 3 + k);
    const double rate = session.saturate(16 * so.tenants, saturated);
    session.finish();
    rates += (k == 0 ? "" : ", ") + json_number(rate);
  }
  run.throughput_per_s = median(run.serve.chunk_qps);
  run.note_json("throughput_sessions_per_s", rates + "]");
  run.note("throughput_samples", static_cast<double>(run.serve.chunk_qps.size()));
  run.note("throughput_session_queries", static_cast<double>(saturated));
}

}  // namespace perfbench
