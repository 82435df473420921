#include "core/query.h"

#include <algorithm>
#include <stdexcept>

namespace vmat {

QueryEngine::QueryEngine(VmatCoordinator* coordinator)
    : coordinator_(coordinator) {
  if (coordinator == nullptr)
    throw std::invalid_argument("QueryEngine: null coordinator");
}

QueryOutcome QueryEngine::run_synopsis_query(
    const std::vector<std::int64_t>& weights) {
  const std::uint32_t instances = coordinator_->config().instances;
  const auto n = static_cast<std::uint32_t>(weights.size());

  const SynopsisCodec codec(coordinator_->fresh_nonce());
  ValueTable values(n, instances, kInfinity);
  ValueTable weight_grid(n, instances, 0);
  for (std::uint32_t id = 0; id < n; ++id) {
    if (weights[id] <= 0 || id == kBaseStation.value) continue;
    codec.fill_values(NodeId{id}, weights[id], values.row(id));
    std::ranges::fill(weight_grid.row(id), weights[id]);
  }

  QueryOutcome out;
  out.exec = coordinator_->execute(
      values, weight_grid,
      [&codec](const AggMessage& m) { return codec.consistent(m); });
  if (out.exec.produced_result())
    out.estimate = estimate_sum(out.exec.minima);
  return out;
}

QueryOutcome QueryEngine::count(const std::vector<std::uint8_t>& predicate) {
  std::vector<std::int64_t> weights(predicate.size(), 0);
  for (std::size_t i = 0; i < predicate.size(); ++i)
    weights[i] = predicate[i] ? 1 : 0;
  return run_synopsis_query(weights);
}

QueryOutcome QueryEngine::sum(const std::vector<std::int64_t>& readings) {
  for (std::int64_t r : readings)
    if (r < 0)
      throw std::invalid_argument("QueryEngine::sum: negative reading");
  return run_synopsis_query(readings);
}

QueryOutcome QueryEngine::average(const std::vector<std::int64_t>& readings) {
  QueryOutcome total = sum(readings);
  if (!total.answered()) return total;

  std::vector<std::uint8_t> positive(readings.size(), 0);
  for (std::size_t i = 0; i < readings.size(); ++i)
    positive[i] = readings[i] > 0 ? 1 : 0;
  QueryOutcome cnt = count(positive);
  if (!cnt.answered()) return cnt;

  QueryOutcome out;
  out.exec = cnt.exec;
  out.estimate =
      *cnt.estimate <= 0.0 ? 0.0 : *total.estimate / *cnt.estimate;
  return out;
}

QueryOutcome QueryEngine::count_until_answered(
    const std::vector<std::uint8_t>& predicate, int max_executions) {
  for (int i = 0; i < max_executions; ++i) {
    QueryOutcome out = count(predicate);
    if (out.answered()) return out;
  }
  throw std::runtime_error(
      "count_until_answered: adversary still standing after max_executions");
}

QueryOutcome QueryEngine::run_plain_min(const std::vector<Reading>& readings) {
  // Uses instance 0 only, whatever the coordinator's instance count, so
  // one engine serves synopsis queries and exact MIN/MAX alike.
  const std::uint32_t instances = coordinator_->config().instances;
  const auto n = static_cast<std::uint32_t>(readings.size());
  ValueTable values(n, instances, kInfinity);
  for (std::uint32_t id = 1; id < n; ++id) values.row(id)[0] = readings[id];
  QueryOutcome out;
  out.exec = coordinator_->execute(values, ValueTable(n, instances, 0));
  if (out.exec.produced_result() && out.exec.minima[0] != kInfinity)
    out.estimate = static_cast<double>(out.exec.minima[0]);
  return out;
}

QueryOutcome QueryEngine::min_reading(const std::vector<Reading>& readings) {
  return run_plain_min(readings);
}

QueryOutcome QueryEngine::max_reading(const std::vector<Reading>& readings) {
  std::vector<Reading> negated(readings.size());
  for (std::size_t i = 0; i < readings.size(); ++i) negated[i] = -readings[i];
  QueryOutcome out = run_plain_min(negated);
  if (out.estimate.has_value()) out.estimate = -*out.estimate;
  return out;
}

QueryOutcome QueryEngine::quantile(const std::vector<std::int64_t>& readings,
                                   double q, std::int64_t domain_max,
                                   int max_executions_per_probe) {
  if (q <= 0.0 || q >= 1.0)
    throw std::invalid_argument("quantile: require 0 < q < 1");
  if (domain_max < 0)
    throw std::invalid_argument("quantile: negative domain");
  for (std::int64_t r : readings)
    if (r < 0 || r > domain_max)
      throw std::invalid_argument("quantile: reading outside domain");

  auto count_leq = [&](std::int64_t v) {
    std::vector<std::uint8_t> predicate(readings.size(), 0);
    for (std::size_t i = 1; i < readings.size(); ++i)
      predicate[i] = readings[i] <= v ? 1 : 0;
    for (int e = 0; e < max_executions_per_probe; ++e) {
      QueryOutcome out = count(predicate);
      if (out.answered()) return *out.estimate;
    }
    throw std::runtime_error("quantile: probe never answered");
  };

  const double total = count_leq(domain_max);
  QueryOutcome out;
  if (total <= 0.0) {
    // Empty population: report the bottom of the domain.
    out.exec.kind = OutcomeKind::kResult;
    out.estimate = 0.0;
    return out;
  }
  const double target = q * total;
  std::int64_t lo = 0, hi = domain_max;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (count_leq(mid) >= target)
      hi = mid;
    else
      lo = mid + 1;
  }
  out.exec.kind = OutcomeKind::kResult;
  out.estimate = static_cast<double>(lo);
  return out;
}

}  // namespace vmat
