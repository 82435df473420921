#include "core/query.h"

#include <algorithm>
#include <stdexcept>

#include "core/synopsis.h"

namespace vmat {
namespace {

/// One step of the quantile search: absorb the COUNT estimate of the probe
/// `progress` asked for (domain_max first, then the window's midpoint).
std::optional<QueryAnswer> quantile_step(const EngineQuery& query,
                                         QueryProgress& progress,
                                         double count) {
  if (!progress.searching) {
    // Empty population: report the bottom of the domain.
    if (count <= 0.0) return 0.0;
    progress.searching = true;
    progress.target = query.q * count;
    progress.lo = 0;
    progress.hi = query.domain_max;
  } else {
    const std::int64_t mid = progress.lo + (progress.hi - progress.lo) / 2;
    if (count >= progress.target)
      progress.hi = mid;
    else
      progress.lo = mid + 1;
  }
  if (progress.lo >= progress.hi) return static_cast<double>(progress.lo);
  return std::nullopt;
}

/// The one-shot driver's form of check_query: std::invalid_argument.
void require_valid(const EngineQuery& query, std::size_t nodes) {
  if (const Status ok = check_query(query, nodes); !ok)
    throw std::invalid_argument("QueryEngine: " + ok.error().message);
}

}  // namespace

const char* to_string(EngineQueryKind kind) noexcept {
  switch (kind) {
    case EngineQueryKind::kCount: return "count";
    case EngineQueryKind::kSum: return "sum";
    case EngineQueryKind::kAverage: return "average";
    case EngineQueryKind::kMin: return "min";
    case EngineQueryKind::kMax: return "max";
    case EngineQueryKind::kQuantile: return "quantile";
  }
  return "?";
}

Status check_query(const EngineQuery& query, std::size_t nodes) {
  auto invalid = [](const char* message) -> Error {
    return {ErrorCode::kInvalidArgument, message};
  };
  switch (query.kind) {
    case EngineQueryKind::kCount:
      if (query.predicate.size() != nodes)
        return invalid("count: predicate must cover all nodes");
      break;
    case EngineQueryKind::kSum:
    case EngineQueryKind::kAverage:
      if (query.readings.size() != nodes)
        return invalid("sum/average: readings must cover all nodes");
      for (std::int64_t r : query.readings)
        if (r < 0) return invalid("sum/average: negative reading");
      break;
    case EngineQueryKind::kMin:
    case EngineQueryKind::kMax:
      if (query.raw.size() != nodes)
        return invalid("min/max: readings must cover all nodes");
      break;
    case EngineQueryKind::kQuantile:
      if (query.readings.size() != nodes)
        return invalid("quantile: readings must cover all nodes");
      if (!(query.q > 0.0 && query.q < 1.0))
        return invalid("quantile: require 0 < q < 1");
      if (query.domain_max < 0) return invalid("quantile: negative domain");
      for (std::int64_t r : query.readings)
        if (r < 0 || r > query.domain_max)
          return invalid("quantile: reading outside domain");
      break;
  }
  return {};
}

std::uint32_t block_width(const EngineQuery& query,
                          std::uint32_t default_instances) noexcept {
  if (query.kind == EngineQueryKind::kMin ||
      query.kind == EngineQueryKind::kMax)
    return 1;
  return query.instances > 0 ? query.instances : default_instances;
}

std::vector<QueryBlock> encode_query(const EngineQuery& query,
                                     const QueryProgress& progress,
                                     std::uint32_t width) {
  std::vector<QueryBlock> blocks;
  auto add = [&blocks, width](bool synopsis, std::size_t nodes,
                              auto&& input_of) {
    QueryBlock b;
    b.synopsis = synopsis;
    b.part = static_cast<std::uint8_t>(blocks.size());
    b.width = width;
    b.inputs.assign(nodes, 0);
    for (std::size_t id = 1; id < nodes; ++id) b.inputs[id] = input_of(id);
    blocks.push_back(std::move(b));
  };
  const std::vector<std::int64_t>& readings = query.readings;
  switch (query.kind) {
    case EngineQueryKind::kCount:
      add(true, query.predicate.size(),
          [&query](std::size_t id) { return query.predicate[id] ? 1 : 0; });
      break;
    case EngineQueryKind::kSum:
      add(true, readings.size(),
          [&readings](std::size_t id) { return readings[id]; });
      break;
    case EngineQueryKind::kAverage:
      add(true, readings.size(),
          [&readings](std::size_t id) { return readings[id]; });
      add(true, readings.size(),
          [&readings](std::size_t id) { return readings[id] > 0 ? 1 : 0; });
      break;
    case EngineQueryKind::kQuantile: {
      const std::int64_t probe =
          progress.searching ? progress.lo + (progress.hi - progress.lo) / 2
                             : query.domain_max;
      add(true, readings.size(), [&readings, probe](std::size_t id) {
        return readings[id] <= probe ? 1 : 0;
      });
      break;
    }
    case EngineQueryKind::kMin:
      add(false, query.raw.size(),
          [&query](std::size_t id) { return query.raw[id]; });
      break;
    case EngineQueryKind::kMax:
      add(false, query.raw.size(),
          [&query](std::size_t id) { return -query.raw[id]; });
      break;
  }
  return blocks;
}

void fill_block(const QueryBlock& block, ValueTable& values,
                ValueTable& weights) {
  const auto nodes = static_cast<std::uint32_t>(block.inputs.size());
  if (!block.synopsis) {
    for (std::uint32_t id = 1; id < nodes; ++id)
      values.row(id)[block.offset] = block.inputs[id];
    return;
  }
  const SynopsisCodec codec(block.nonce);
  for (std::uint32_t id = 1; id < nodes; ++id) {
    const std::int64_t w = block.inputs[id];
    if (w <= 0) continue;
    codec.fill_values(NodeId{id}, w,
                      values.row(id).subspan(block.offset, block.width));
    std::ranges::fill(weights.row(id).subspan(block.offset, block.width), w);
  }
}

ContentValidator block_validator(std::span<const QueryBlock> blocks) {
  std::vector<std::uint32_t> ends;
  std::vector<std::optional<SynopsisCodec>> codecs(blocks.size());
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    ends.push_back(blocks[bi].offset + blocks[bi].width);
    if (blocks[bi].synopsis) codecs[bi].emplace(blocks[bi].nonce);
  }
  return [blocks, ends = std::move(ends),
          codecs = std::move(codecs)](const AggMessage& m) {
    if (ends.empty() || m.instance >= ends.back()) return false;
    const auto bi = static_cast<std::size_t>(
        std::ranges::upper_bound(ends, m.instance) - ends.begin());
    const QueryBlock& b = blocks[bi];
    if (!b.synopsis) return m.weight == 0;
    return m.weight > 0 &&
           codecs[bi]->value_for(m.origin, m.instance - b.offset, m.weight) ==
               m.value;
  };
}

std::optional<QueryAnswer> decode_block(const EngineQuery& query,
                                        const QueryBlock& block,
                                        std::span<const Reading> minima,
                                        QueryProgress& progress) {
  minima = minima.subspan(block.offset, block.width);
  if (!block.synopsis) {
    // Exact MIN/MAX: the block's first instance carries the answer.
    if (minima[0] == kInfinity)
      return Error{ErrorCode::kUnavailable, "min/max: no reading arrived"};
    const double v = static_cast<double>(minima[0]);
    return query.kind == EngineQueryKind::kMax ? -v : v;
  }
  const double estimate = estimate_sum(minima);
  switch (query.kind) {
    case EngineQueryKind::kAverage:
      if (block.part == 0) {
        progress.sum_estimate = estimate;
        return std::nullopt;
      }
      return estimate <= 0.0 ? 0.0 : *progress.sum_estimate / estimate;
    case EngineQueryKind::kQuantile:
      return quantile_step(query, progress, estimate);
    case EngineQueryKind::kCount:
    case EngineQueryKind::kSum:
    case EngineQueryKind::kMin:
    case EngineQueryKind::kMax:
      break;
  }
  return estimate;
}

QueryEngine::QueryEngine(VmatCoordinator* coordinator)
    : coordinator_(coordinator) {
  if (coordinator == nullptr)
    throw std::invalid_argument("QueryEngine: null coordinator");
}

QueryOutcome QueryEngine::run(const EngineQuery& query,
                              QueryProgress& progress) {
  const auto nodes = static_cast<std::uint32_t>(
      coordinator_->network().node_count());
  require_valid(query, nodes);
  // execute() runs the coordinator's configured width; an exact block uses
  // its first column only.
  const std::uint32_t width = coordinator_->config().instances;

  QueryOutcome out;
  for (QueryBlock& block : encode_query(query, progress, width)) {
    if (block.synopsis) block.nonce = coordinator_->fresh_nonce();
    ValueTable values(nodes, width, kInfinity);
    ValueTable weights(nodes, width, 0);
    fill_block(block, values, weights);
    out.exec = coordinator_->execute(values, weights,
                                     block_validator({&block, 1}));
    if (!out.exec.produced_result()) {
      out.error = Error{ErrorCode::kDisrupted, out.exec.reason};
      return out;
    }
    if (auto answer = decode_block(query, block, out.exec.minima, progress)) {
      if (*answer)
        out.estimate = **answer;
      else
        out.error = answer->error();
    }
  }
  return out;
}

QueryOutcome QueryEngine::count(const std::vector<std::uint8_t>& predicate) {
  QueryProgress progress;
  return run({.kind = EngineQueryKind::kCount, .predicate = predicate},
             progress);
}

QueryOutcome QueryEngine::sum(const std::vector<std::int64_t>& readings) {
  QueryProgress progress;
  return run({.kind = EngineQueryKind::kSum, .readings = readings}, progress);
}

QueryOutcome QueryEngine::average(const std::vector<std::int64_t>& readings) {
  QueryProgress progress;
  return run({.kind = EngineQueryKind::kAverage, .readings = readings},
             progress);
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

QueryOutcome QueryEngine::min_reading(const std::vector<Reading>& readings) {
  QueryProgress progress;
  return run({.kind = EngineQueryKind::kMin, .raw = readings}, progress);
}

QueryOutcome QueryEngine::max_reading(const std::vector<Reading>& readings) {
  QueryProgress progress;
  return run({.kind = EngineQueryKind::kMax, .raw = readings}, progress);
}

QueryOutcome QueryEngine::quantile(const std::vector<std::int64_t>& readings,
                                   double q, std::int64_t domain_max,
                                   int max_executions_per_probe) {
  const EngineQuery query{.kind = EngineQueryKind::kQuantile,
                          .readings = readings,
                          .q = q,
                          .domain_max = domain_max};
  require_valid(query, coordinator_->network().node_count());
  QueryProgress progress;
  for (;;) {
    // Retry the current probe through disruptions; a produced result either
    // settles the search or moves it on to the next probe.
    int executions = 0;
    QueryOutcome probe;
    do {
      if (executions++ >= max_executions_per_probe)
        throw std::runtime_error("quantile: probe never answered");
      probe = run(query, progress);
    } while (!probe.exec.produced_result());
    if (probe.answered()) {
      QueryOutcome out;  // a bare kResult: no one execution describes it
      out.estimate = probe.estimate;
      return out;
    }
  }
}

}  // namespace vmat
