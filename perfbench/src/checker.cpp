#include "checker.h"

#include <algorithm>

namespace perfbench {

const char* to_string(Failure f) noexcept {
  switch (f) {
    case Failure::kWrongResult: return "wrong-result";
    case Failure::kFramedKey: return "framed-key";
    case Failure::kBaseStation: return "base-station-revoked";
    case Failure::kUnanswered: return "unanswered";
  }
  return "?";
}

CheckTally& CheckTally::operator+=(const CheckTally& other) noexcept {
  attempted += other.attempted;
  failed += other.failed;
  for (std::size_t i = 0; i < kFailureKinds; ++i) by_kind[i] += other.by_kind[i];
  revoked_keys += other.revoked_keys;
  revoked_sensors += other.revoked_sensors;
  honest_sensors_revoked += other.honest_sensors_revoked;
  return *this;
}

void CheckTally::count(const std::vector<Failure>& failures) {
  attempted += 1;
  for (const Failure f : failures) by_kind[static_cast<std::size_t>(f)] += 1;
  if (!failures.empty()) failed += 1;
}

bool CheckTally::outputs_correct() const noexcept {
  for (std::size_t k = 0; k < kFailureKinds; ++k)
    if (static_cast<Failure>(k) != Failure::kUnanswered && by_kind[k] != 0)
      return false;
  return true;
}

MinChecker::MinChecker(const vmat::Network& net,
                       std::unordered_set<vmat::NodeId> malicious,
                       vmat::Level depth_bound)
    : net_(&net), malicious_(std::move(malicious)), depth_bound_(depth_bound) {}

vmat::Reading MinChecker::honest_min(
    const std::vector<vmat::Reading>& readings) const {
  // Breadth-first from the base station over usable edge keys, through
  // honest unrevoked sensors only, out to depth L.
  const std::uint32_t n = net_->node_count();
  std::vector<vmat::Level> depth(n, -1);
  std::vector<vmat::NodeId> frontier{vmat::kBaseStation};
  depth[0] = 0;
  vmat::Reading best = vmat::kInfinity;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const vmat::NodeId u = frontier[head];
    if (depth[u.value] >= depth_bound_) continue;
    for (const vmat::NodeId v : net_->usable_neighbors(u)) {
      if (depth[v.value] >= 0 || malicious_.count(v) != 0 ||
          net_->revocation().is_sensor_revoked(v))
        continue;
      depth[v.value] = depth[u.value] + 1;
      frontier.push_back(v);
      best = std::min(best, readings[v.value]);
    }
  }
  return best;
}

std::vector<Failure> MinChecker::check(
    const vmat::ExecutionOutcome& outcome,
    const std::vector<vmat::Reading>& readings) {
  std::vector<Failure> failures;
  // With the base station revoked no answer can be right: count the
  // revocation once, on the execution that caused it, and every result
  // after it as wrong.
  const bool bs_now =
      net_->revocation().is_sensor_revoked(vmat::kBaseStation);
  if (bs_now && !base_station_revoked_) failures.push_back(Failure::kBaseStation);
  base_station_revoked_ = bs_now;
  if (outcome.produced_result() && bs_now) {
    failures.push_back(Failure::kWrongResult);
  } else if (outcome.produced_result()) {
    const vmat::Reading bound = honest_min(readings);
    const vmat::Reading got = outcome.minima.empty() ? vmat::kInfinity
                                                     : outcome.minima[0];
    const bool ok = malicious_.empty() ? got == bound : got <= bound;
    if (!ok) failures.push_back(Failure::kWrongResult);
  }

  bool framed = false;
  for (const vmat::KeyIndex key : outcome.revoked_keys) {
    const bool held = std::any_of(
        malicious_.begin(), malicious_.end(),
        [&](vmat::NodeId m) { return net_->keys().node_holds(m, key); });
    framed = framed || !held;
  }
  if (framed) failures.push_back(Failure::kFramedKey);

  for (const vmat::NodeId node : outcome.revoked_sensors)
    if (node != vmat::kBaseStation && malicious_.count(node) == 0)
      ++tally_.honest_sensors_revoked;
  tally_.revoked_keys += outcome.revoked_keys.size();
  tally_.revoked_sensors += outcome.revoked_sensors.size();
  tally_.count(failures);
  return failures;
}

}  // namespace perfbench
