// Aggregation queries: the one query codec and the one-shot driver.
//
// Section VIII reduces COUNT, SUM and AVERAGE to parallel MIN instances
// through verifiable exponential synopses (core/synopsis.h); exact MIN runs
// on one instance and MAX is MIN over negated readings. This module owns
// that mapping, once, for every driver:
//
//   * check_query()    the per-kind input check;
//   * encode_query()   a query (plus its search progress) as instance
//                      blocks: synopsis weights per node, or exact readings;
//   * fill_block()     a block's columns of the execution's value/weight
//                      tables (the synopsis grid);
//   * block_validator  the per-block content check the base station runs;
//   * decode_block()   a block's minima back into an answer: the synopsis
//                      sum estimate, exact MIN/MAX with the no-reading
//                      case, one quantile search step, AVERAGE's ratio.
//
// Two drivers call it. QueryEngine (below) runs one query per VMAT
// execution: encode -> VmatCoordinator::execute -> decode. Engine
// (engine/engine.h) packs many queries' blocks into one execution over a
// shared epoch. Either way each synopsis block carries its own query
// nonce, so a block's synopses are the same whichever driver runs it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "util/error.h"

namespace vmat {

enum class EngineQueryKind : std::uint8_t {
  kCount,     ///< predicate COUNT via exponential synopses
  kSum,       ///< SUM of non-negative readings via synopses
  kAverage,   ///< SUM / COUNT(reading > 0): a SUM block and a COUNT block
  kMin,       ///< exact MIN of raw readings (one instance)
  kMax,       ///< exact MAX via MIN over negated readings
  kQuantile,  ///< q-quantile via a binary search of COUNT probes
};

[[nodiscard]] const char* to_string(EngineQueryKind kind) noexcept;

/// One query. Payload vectors are indexed by node id (entry 0, the base
/// station, is ignored) and must cover every node.
struct EngineQuery {
  EngineQueryKind kind{EngineQueryKind::kCount};
  /// kCount: predicate[id] != 0 means node id satisfies the predicate.
  std::vector<std::uint8_t> predicate{};
  /// kSum / kAverage / kQuantile: non-negative integer readings.
  std::vector<std::int64_t> readings{};
  /// kMin / kMax: raw readings.
  std::vector<Reading> raw{};
  /// kQuantile: the quantile in (0, 1) and the reading domain [0, max].
  double q{0.5};
  std::int64_t domain_max{0};
  /// Engine only: synopsis instances for this query; 0 = the coordinator's
  /// configured count. Ignored by kMin/kMax (always 1 instance).
  std::uint32_t instances{0};
  /// Engine only: execution budget (deadline); the query fails with
  /// kDeadlineExceeded after participating in this many executions.
  /// 0 = EngineConfig default.
  int max_executions{0};
};

/// The per-kind input check: every payload the kind reads covers `nodes`
/// nodes, and readings, q and the quantile domain are in range. Fails with
/// kInvalidArgument.
[[nodiscard]] Status check_query(const EngineQuery& query, std::size_t nodes);

/// Instances one block of `query` spans when the driver sizes blocks per
/// query: 1 for exact MIN/MAX, else query.instances or `default_instances`.
[[nodiscard]] std::uint32_t block_width(const EngineQuery& query,
                                        std::uint32_t default_instances) noexcept;

/// What a query has learned from earlier blocks: the quantile search
/// window, and AVERAGE's SUM estimate until its COUNT block decodes.
struct QueryProgress {
  bool searching{false};  ///< kQuantile: total probed; binary search running
  double target{0.0};     ///< kQuantile: q x the probed total
  std::int64_t lo{0};
  std::int64_t hi{0};
  std::optional<double> sum_estimate;  ///< kAverage: the SUM block's estimate
};

/// One instance block of an execution: the slice [offset, offset + width)
/// of its instance space, owned by one part of one query.
struct QueryBlock {
  /// Exponential-synopsis block; false = exact MIN block (readings in the
  /// block's first column, zero weights everywhere).
  bool synopsis{true};
  /// Index of the block within its query's encoding (kAverage: 0 = SUM,
  /// 1 = COUNT(reading > 0)).
  std::uint8_t part{0};
  std::uint32_t offset{0};
  std::uint32_t width{0};
  /// Per-node input, entry 0 unused: the synopsis weight (<= 0 contributes
  /// nothing) or the exact reading.
  std::vector<std::int64_t> inputs;
  /// The synopsis query nonce. Drivers draw it from
  /// VmatCoordinator::fresh_nonce() when they schedule the block.
  std::uint64_t nonce{0};
};

/// Decoded answer of a settled query: the estimate (exact for MIN/MAX), or
/// kUnavailable when an exact MIN/MAX saw no reading.
using QueryAnswer = Expected<double>;

/// The blocks of `query`'s next execution, each `width` instances wide:
/// SUM then COUNT(reading > 0) for kAverage, the probe the search
/// `progress` asks for next for kQuantile, one block otherwise. Offsets and
/// nonces are left for the driver to assign.
[[nodiscard]] std::vector<QueryBlock> encode_query(
    const EngineQuery& query, const QueryProgress& progress,
    std::uint32_t width);

/// Write a block into its columns of an execution's inputs: each weighted
/// node's synopsis row and weight for a synopsis block, each node's reading
/// in column `offset` for an exact block. Blocks own disjoint columns, so
/// several blocks of one table may be filled concurrently.
void fill_block(const QueryBlock& block, ValueTable& values,
                ValueTable& weights);

/// The base station's content check for an execution whose instance space
/// is `blocks` laid end to end: a message must fall inside a block and
/// carry exactly the synopsis its (origin, instance, weight) dictates with
/// weight > 0 (synopsis block), or weight 0 (exact block). `blocks` must
/// outlive the validator.
[[nodiscard]] ContentValidator block_validator(
    std::span<const QueryBlock> blocks);

/// Decode `block` from a produced result's `minima` (the whole execution's
/// instance space) into `progress`. Returns the query's answer once it is
/// settled, and nullopt while it needs another block (kAverage's SUM) or
/// another execution (a quantile probe).
[[nodiscard]] std::optional<QueryAnswer> decode_block(
    const EngineQuery& query, const QueryBlock& block,
    std::span<const Reading> minima, QueryProgress& progress);

struct QueryOutcome {
  /// Set when the query was answered; the (ε,δ)-approximate estimate of
  /// the queried aggregate (exact for MIN/MAX).
  std::optional<double> estimate;
  /// Full detail of the last execution (revocations, trigger, costs).
  ExecutionOutcome exec;
  /// Why there is no estimate: kDisrupted with the execution's reason, or
  /// kUnavailable when a MIN/MAX execution produced a result but no
  /// reading arrived. Unset for answered queries.
  std::optional<Error> error;

  [[nodiscard]] bool answered() const noexcept { return estimate.has_value(); }
  /// Human-readable disruption detail ("" for answered queries).
  [[nodiscard]] const std::string& reason() const noexcept {
    return exec.reason;
  }
};

/// The one-shot driver: each call is one VMAT execution per query block
/// (two for AVERAGE, as in Section VIII; a quantile search runs one per
/// probe). A disrupted execution returns what was revoked instead of an
/// estimate, and the caller simply retries (each retry strictly shrinks the
/// adversary's key material — Theorem 7).
class QueryEngine {
 public:
  /// `coordinator` must be configured with the number of instances to use
  /// (e.g. instances_for(epsilon, delta), or the paper's 100).
  explicit QueryEngine(VmatCoordinator* coordinator);

  /// Predicate COUNT: how many sensors report `predicate[node] == true`?
  [[nodiscard]] QueryOutcome count(const std::vector<std::uint8_t>& predicate);

  /// SUM of non-negative integer readings (0 contributes nothing).
  [[nodiscard]] QueryOutcome sum(const std::vector<std::int64_t>& readings);

  /// AVERAGE of positive integer readings: SUM / COUNT(reading > 0) — two
  /// executions, as in Section VIII.
  [[nodiscard]] QueryOutcome average(const std::vector<std::int64_t>& readings);

  /// Retry-until-answered convenience (the Theorem 7 loop).
  [[nodiscard]] QueryOutcome count_until_answered(
      const std::vector<std::uint8_t>& predicate, int max_executions = 1000);

  /// Exact MIN of raw readings (runs on instance 0; works with any
  /// coordinator instance count).
  [[nodiscard]] QueryOutcome min_reading(const std::vector<Reading>& readings);

  /// Exact MAX via MIN over negated readings (the standard duality; the
  /// veto/pinpointing machinery applies unchanged).
  [[nodiscard]] QueryOutcome max_reading(const std::vector<Reading>& readings);

  /// Approximate q-quantile (0 < q < 1) of non-negative integer readings in
  /// [0, domain_max], via a binary search of COUNT queries (log2(domain)
  /// probes, each a retried secure execution). Error follows the COUNT
  /// estimator's (ε,δ) bound. The answer spans many executions, so its
  /// `exec` is a bare kResult.
  [[nodiscard]] QueryOutcome quantile(
      const std::vector<std::int64_t>& readings, double q,
      std::int64_t domain_max, int max_executions_per_probe = 300);

 private:
  /// check_query (std::invalid_argument on failure), then encode ->
  /// execute -> decode, one execution per block, stopping at the first
  /// disrupted one.
  [[nodiscard]] QueryOutcome run(const EngineQuery& query,
                                 QueryProgress& progress);

  VmatCoordinator* coordinator_;
};

}  // namespace vmat
