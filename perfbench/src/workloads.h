// The benchmark's four workloads. Each builds its deployments from the
// workload seed, measures for the requested time, checks every operation
// against ground truth it generated itself, and fills a Run. emit_metrics()
// then names the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run) from it, in one place for every workload.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "attack/adversary.h"
#include "checker.h"
#include "core/coordinator.h"
#include "report.h"
#include "sim/network.h"
#include "spec/simulation_spec.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Self-test sizes: every code path in seconds, not a measurement.
  bool small{false};
};

/// Layer counts summed over every checked ExecutionOutcome of a run.
struct ExecStats {
  std::vector<double> clean_ms;
  std::vector<double> disrupted_ms;
  std::array<vmat::PhaseCounters, vmat::kTracePhaseCount> phase{};
  std::uint64_t fabric_bytes{0};
  std::uint64_t pinpoint_tests{0};
  std::uint64_t pinpoint_rounds{0};

  void add(const vmat::ExecutionOutcome& outcome, double ms);
  ExecStats& operator+=(const ExecStats& other);
  /// Executions per second of execution time.
  [[nodiscard]] double executions_per_second() const;
  [[nodiscard]] std::size_t executions() const noexcept {
    return clean_ms.size() + disrupted_ms.size();
  }
};

/// vmatd figures: client-side round trips, the open-loop schedule, and the
/// daemon's STATS at the end of the run.
struct ServeFigures {
  std::vector<double> submit_rtt_ms;
  std::vector<double> poll_rtt_ms;
  /// Settled queries per second over each chunk of a saturated session.
  std::vector<double> chunk_qps;
  double generator_lag_ms_max{0};
  double backlog_end{0};
  double latency_ms_p50{0};
  double latency_ms_p99{0};
  double knee_qps{0};
  std::uint64_t queries{0};
  std::uint64_t ticks{0};
  std::uint64_t rounds{0};
  std::uint64_t executions{0};
  std::uint64_t disrupted_executions{0};
  std::uint64_t epochs_formed{0};
  std::uint64_t epochs_rearmed{0};
  std::uint64_t fabric_bytes{0};
};

struct CampaignFigures {
  std::uint64_t formations{0};
  std::uint64_t predicate_tests{0};
  std::uint64_t coverage_buckets{0};
  std::uint64_t ruin_streak_executions{0};
  std::vector<double> replay_ms;
  double probes_per_s{0};
};

struct Run {
  CheckTally checks;
  ExecStats exec;
  ServeFigures serve;
  CampaignFigures campaign;
  /// Seconds per deployment set-up (several per run; the median is
  /// reported).
  std::vector<double> setup_s;
  /// Wall time of the workload's unit of protocol work, per sample.
  std::vector<double> exec_ms;
  /// Operations completed per second (knee for vmatd, probes for the
  /// campaign, executions otherwise).
  double throughput_per_s{0};
  /// Disrupted executions per attacked deployment.
  double executions_ruined{0};
  /// Timed MacBatch ceiling (traced runs only).
  double mac_ceiling_per_s{0};
  /// The same operation timed with spans on and with spans off, for the
  /// tracing overhead (traced runs alternate the two).
  std::vector<double> traced_op_ms;
  std::vector<double> untraced_op_ms;
  /// Run-record entries (sizes, sample counts), printed before the result.
  std::vector<std::pair<std::string, std::string>> record;
  /// Hash over the generated inputs (seeds handed to the library, readings,
  /// request parameters): the self-test checks that the seed moves it.
  std::uint64_t input_digest{0};

  void mix_input(std::uint64_t v) {
    input_digest = (input_digest ^ v) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
  }

  void note(const std::string& key, const std::string& value) {
    record.emplace_back(key, json_string(value));
  }
  void note(const std::string& key, double value) {
    record.emplace_back(key, json_number(value));
  }
  /// `json` is already a JSON value.
  void note_json(const std::string& key, std::string json) {
    record.emplace_back(key, std::move(json));
  }
};

/// One SimulationSpec deployment, built the way a user builds one, with a
/// span around each layer's constructor; `path_keys` also establishes
/// path keys for neighbours that share no ring key.
struct Deployment {
  std::unique_ptr<vmat::Network> net;
  std::unique_ptr<vmat::Adversary> adversary;
  std::unique_ptr<vmat::VmatCoordinator> coordinator;
  std::unordered_set<vmat::NodeId> malicious;
};
[[nodiscard]] Deployment build_deployment(vmat::SimulationSpec spec,
                                          SpanLog& spans, bool path_keys);

/// Per-run generator of benchmark inputs (readings, schedules), derived
/// from the workload seed and a stream id only.
[[nodiscard]] std::mt19937_64 input_rng(std::uint64_t seed,
                                        std::uint64_t stream);
/// Fresh readings for `n` nodes (node 0, the base station, gets one too;
/// the protocol ignores it).
[[nodiscard]] std::vector<vmat::Reading> draw_readings(std::mt19937_64& rng,
                                                       std::uint32_t n);

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// Timed MacBatch::compute on the active kernel over frame-sized messages:
/// the MAC verify ceiling the protocol's achieved rate is compared with.
[[nodiscard]] double mac_ceiling_per_s();

void run_oneshot_large(const RunOptions& opt, SpanLog& spans, Run& run);
void run_theorem7_streak(const RunOptions& opt, SpanLog& spans, Run& run);
void run_vmatd_openloop(const RunOptions& opt, SpanLog& spans, Run& run);
void run_campaign_fork(const RunOptions& opt, SpanLog& spans, Run& run);

/// Fill `report` with every end-to-end metric (trace off) or every
/// per-layer metric (trace on) from a finished run.
void emit_metrics(const Run& run, const SpanLog& spans, bool trace,
                  Report& report);

}  // namespace perfbench
