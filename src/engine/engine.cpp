#include "engine/engine.h"

#include <algorithm>
#include <stdexcept>

namespace vmat {
namespace {

void add_metrics(ExecutionMetrics& into, const ExecutionMetrics& from) {
  for (std::size_t p = 0; p < kTracePhaseCount; ++p)
    into.phase[p] += from.phase[p];
}

}  // namespace

Engine::Engine(VmatCoordinator* coordinator, EngineConfig config,
               ThreadPool* pool)
    : coordinator_(coordinator),
      config_(config),
      pool_(pool != nullptr ? pool : &ThreadPool::shared()) {
  if (coordinator == nullptr)
    throw std::invalid_argument("Engine: null coordinator");
  if (config_.max_in_flight == 0 || config_.queue_depth == 0 ||
      config_.max_instances_per_execution == 0 || config_.default_deadline <= 0)
    throw std::invalid_argument("Engine: degenerate EngineConfig");
  // Full window until the first disruption; slow-start kicks in after.
  stats_.window = config_.max_in_flight;
}

Expected<std::uint64_t> Engine::submit(EngineQuery query) {
  if (Status ok = check_query(query, coordinator_->network().node_count());
      !ok)
    return ok.error();
  if (pending_.size() >= config_.queue_depth)
    return Error{ErrorCode::kQueueFull,
                 "Engine: queue_depth reached — drain() first"};

  Pending p;
  p.id = next_id_++;
  p.deadline = query.max_executions > 0 ? query.max_executions
                                        : config_.default_deadline;
  p.result.id = p.id;
  p.result.kind = query.kind;
  p.query = std::move(query);
  pending_.push_back(std::move(p));
  return pending_.back().id;
}

void Engine::settle_failure(Pending& p, Error error) {
  p.done = true;
  p.result.error = std::move(error);
  stats_.queries_failed += 1;
}

void Engine::prepare() {
  // The coordinator keeps a ready epoch, restores a stale one whose tree is
  // still current, or forms a new one. Open a rollup for any epoch id this
  // engine has not served yet, whoever prepared it.
  const Epoch& epoch = coordinator_->prepare_epoch();
  if (!epochs_.empty() && epochs_.back().epoch_id == epoch.id) return;
  EpochRollup rollup;
  rollup.epoch_id = epoch.id;
  if (epoch.restored) {
    stats_.epochs_rearmed += 1;
    rollup.rearmed = true;  // restored, not re-flooded: zero formation cost
  } else {
    stats_.epochs_formed += 1;
    stats_.fabric_bytes += epoch.fabric_bytes;
    rollup.formation_rounds = epoch.formation_rounds;
    rollup.formation_bytes = epoch.fabric_bytes;
    rollup.metrics = epoch.metrics;
  }
  epochs_.push_back(std::move(rollup));
}

bool Engine::step() {
  bool open = false;
  for (const Pending& p : pending_)
    if (!p.done) { open = true; break; }
  if (!open) return false;
  if (stats_.rounds >= config_.max_rounds) {
    // Same engine-budget discipline as drain(): a step()-driven caller (the
    // vmatd tick loop) must not spin forever on a pathological tenant.
    for (Pending& p : pending_)
      if (!p.done)
        settle_failure(p, {ErrorCode::kBudgetExhausted,
                         "engine round budget exhausted"});
    return false;
  }
  run_round();
  for (const Pending& p : pending_)
    if (!p.done) return true;
  return false;
}

std::vector<EngineResult> Engine::take_ready() {
  std::vector<EngineResult> ready;
  std::size_t keep = 0;
  for (Pending& p : pending_) {
    if (p.done) {
      ready.push_back(std::move(p.result));
      continue;
    }
    // Guard the no-gap case: self-move-assignment would gut the query's
    // payload vectors and leave an open query with no predicate/readings.
    if (&pending_[keep] != &p) pending_[keep] = std::move(p);
    ++keep;
  }
  pending_.resize(keep);
  return ready;
}

void Engine::run_round() {
  stats_.rounds += 1;
  prepare();

  const std::uint32_t default_instances = coordinator_->config().instances;

  // --- pack: queries in submission order, up to the admission window and
  // the execution width cap; nonces are drawn serially here, before any
  // parallel work, so packing order fully determines every PRG stream ---
  std::vector<QueryBlock> blocks;
  std::vector<std::size_t> owners;  // pending_ index of each block
  std::vector<std::size_t> picked;
  std::uint32_t total = 0;
  for (std::size_t qi = 0;
       qi < pending_.size() && picked.size() < stats_.window; ++qi) {
    Pending& p = pending_[qi];
    if (p.done) continue;
    std::vector<QueryBlock> mine = encode_query(
        p.query, p.progress, block_width(p.query, default_instances));
    std::uint32_t width = 0;
    for (const QueryBlock& b : mine) width += b.width;
    if (!picked.empty() && total + width > config_.max_instances_per_execution)
      break;
    for (QueryBlock& b : mine) {
      b.offset = total;
      total += b.width;
      if (b.synopsis) b.nonce = coordinator_->fresh_nonce();
      blocks.push_back(std::move(b));
      owners.push_back(qi);
    }
    picked.push_back(qi);
  }
  if (picked.empty()) return;

  // --- grids: per-block columns in parallel. Blocks own disjoint columns,
  // so the writes never overlap; each PRG stream depends only on the
  // block's serially assigned nonce — bit-identical for any pool ---
  const auto nodes =
      static_cast<std::uint32_t>(coordinator_->network().node_count());
  ValueTable values(nodes, total, kInfinity);
  ValueTable weights(nodes, total, 0);
  pool_->for_each(blocks.size(), [&blocks, &values, &weights](std::size_t bi) {
    fill_block(blocks[bi], values, weights);
  });

  const ExecutionOutcome exec =
      coordinator_->run_query(values, weights, block_validator(blocks));

  stats_.executions += 1;
  stats_.fabric_bytes += exec.fabric_bytes;
  EpochRollup& rollup = epochs_.back();
  rollup.executions += 1;
  rollup.fabric_bytes += exec.fabric_bytes;
  add_metrics(rollup.metrics, exec.metrics);
  for (std::size_t qi : picked) {
    pending_[qi].executions += 1;
    pending_[qi].result.executions = pending_[qi].executions;
    pending_[qi].result.epoch_id = rollup.epoch_id;
  }

  // --- settle: disrupted executions burn an attempt; clean ones answer ---
  if (!exec.produced_result()) {
    stats_.disrupted_executions += 1;
    stats_.window = 1;
    for (std::size_t qi : picked) {
      Pending& p = pending_[qi];
      if (p.executions >= p.deadline)
        settle_failure(p, {ErrorCode::kDeadlineExceeded,
                         "execution budget exhausted before an answer"});
    }
    return;
  }
  stats_.window = std::min(stats_.window * 2, config_.max_in_flight);

  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    Pending& p = pending_[owners[bi]];
    const std::optional<QueryAnswer> answer =
        decode_block(p.query, blocks[bi], exec.minima, p.progress);
    if (!answer) continue;
    if (!*answer) {
      settle_failure(p, answer->error());
      continue;
    }
    p.result.estimate = **answer;
    p.done = true;
    stats_.queries_answered += 1;
    rollup.queries_served += 1;
  }
  // A quantile search still open after its probe burns budget like a
  // disruption does.
  for (std::size_t qi : picked) {
    Pending& p = pending_[qi];
    if (!p.done && p.executions >= p.deadline)
      settle_failure(p, {ErrorCode::kDeadlineExceeded,
                       "quantile search unfinished within budget"});
  }
}

std::vector<EngineResult> Engine::drain() {
  while (step()) {
  }
  std::vector<EngineResult> results;
  results.reserve(pending_.size());
  for (Pending& p : pending_) results.push_back(std::move(p.result));
  pending_.clear();
  return results;
}

std::vector<EngineResult> Engine::run_batch(std::vector<EngineQuery> queries) {
  std::vector<EngineResult> rejected;
  for (EngineQuery& q : queries) {
    const EngineQueryKind kind = q.kind;
    Expected<std::uint64_t> id = submit(std::move(q));
    if (!id) {
      EngineResult r;
      r.kind = kind;
      r.error = id.error();
      rejected.push_back(std::move(r));
    }
  }
  std::vector<EngineResult> results = drain();
  for (EngineResult& r : rejected) results.push_back(std::move(r));
  return results;
}

}  // namespace vmat
