#include "spec/simulation_spec.h"

#include <cmath>
#include <stdexcept>

#include "core/synopsis.h"

namespace vmat {
namespace {

bool is_perfect_square(std::uint32_t n) noexcept {
  const auto side = static_cast<std::uint32_t>(std::lround(std::sqrt(n)));
  return side * side == n;
}

}  // namespace

const char* to_string(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kGeometric: return "geometric";
    case TopologyKind::kGrid: return "grid";
    case TopologyKind::kLine: return "line";
  }
  return "?";
}

std::optional<TopologyKind> topology_kind_from(std::string_view name) noexcept {
  if (name == "geometric") return TopologyKind::kGeometric;
  if (name == "grid") return TopologyKind::kGrid;
  if (name == "line") return TopologyKind::kLine;
  return std::nullopt;
}

std::uint32_t SimulationSpec::effective_instances() const noexcept {
  if (!epsilon_.has_value()) return instances_;
  const double e = *epsilon_, d = *delta_;
  if (e <= 0.0 || e >= 1.0 || d <= 0.0 || d >= 1.0) return 0;
  return instances_for(e, d);
}

std::vector<Error> SimulationSpec::validate() const {
  std::vector<Error> errors;
  auto bad = [&errors](std::string message) {
    errors.push_back({ErrorCode::kInvalidSpec, std::move(message)});
  };
  if (nodes_ < 2) bad("nodes: need at least a base station and one sensor");
  if (topology_ == TopologyKind::kGrid && !is_perfect_square(nodes_))
    bad("nodes: grid topology needs a perfect square");
  if (topology_ == TopologyKind::kGeometric &&
      !(radius_factor_ > 0.0 && std::isfinite(radius_factor_)))
    bad("radius_factor: must be finite and > 0");
  if (keys_.pool_size == 0) bad("key_pool: pool_size must be >= 1");
  if (keys_.ring_size == 0) bad("key_pool: ring_size must be >= 1");
  if (keys_.ring_size > keys_.pool_size)
    bad("key_pool: ring_size cannot exceed pool_size");
  if (!(loss_ >= 0.0 && loss_ < 1.0)) bad("loss: probability in [0, 1)");
  if (redundancy_ == 0) bad("redundancy: need at least one copy");
  if (epsilon_.has_value()) {
    const double e = *epsilon_, d = *delta_;
    if (!(e > 0.0 && e < 1.0)) bad("accuracy: require 0 < epsilon < 1");
    if (!(d > 0.0 && d < 1.0)) bad("accuracy: require 0 < delta < 1");
  } else if (instances_ == 0) {
    bad("instances: must be >= 1");
  }
  if (attack_.has_value())
    for (Error& error : attack_->validate(nodes_))
      errors.push_back(std::move(error));
  return errors;
}

Expected<std::unique_ptr<Adversary>> SimulationSpec::build_adversary(
    Network& net) const {
  if (!attack_.has_value())
    return Error{ErrorCode::kUnavailable,
                 "build_adversary: no attack section declared (call "
                 "spec.attack() first)"};
  return attack_->build(net);
}

Status SimulationSpec::check() const {
  auto errors = validate();
  if (errors.empty()) return {};
  return std::move(errors.front());
}

Topology SimulationSpec::build_topology() const {
  const auto errors = validate();
  if (!errors.empty()) {
    std::string msg = "SimulationSpec::build_topology: invalid spec";
    for (const Error& e : errors) {
      msg += "\n  ";
      msg += e.to_string();
    }
    throw std::invalid_argument(msg);
  }
  switch (topology_) {
    case TopologyKind::kGrid: {
      const auto side =
          static_cast<std::uint32_t>(std::lround(std::sqrt(nodes_)));
      return Topology::grid(side, side);
    }
    case TopologyKind::kLine:
      return Topology::line(nodes_);
    case TopologyKind::kGeometric:
      break;
  }
  const double radius = radius_factor_ / std::sqrt(static_cast<double>(nodes_));
  return Topology::random_geometric(nodes_, radius, seed_);
}

NetworkSpec SimulationSpec::network() const noexcept {
  NetworkSpec net;
  net.keys = keys_;
  net.keys.seed = seed_;
  net.revocation_threshold = theta_;
  net.capacity_per_slot = capacity_;
  net.loss_probability = loss_;
  net.redundancy = redundancy_;
  return net;
}

CoordinatorSpec SimulationSpec::coordinator() const noexcept {
  CoordinatorSpec cfg;
  cfg.depth_bound = depth_bound_;
  cfg.tree_mode = tree_mode_;
  cfg.multipath = multipath_;
  cfg.slotted_sof = slotted_sof_;
  cfg.instances = effective_instances();
  cfg.seed = seed_;
  cfg.predicate_mode = predicate_mode_;
  return cfg;
}

}  // namespace vmat
