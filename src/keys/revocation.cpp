#include "keys/revocation.h"

#include <stdexcept>

namespace vmat {

RevocationRegistry::RevocationRegistry(const Predistribution* keys,
                                       std::uint32_t threshold)
    : keys_(keys), threshold_(threshold) {
  if (keys == nullptr)
    throw std::invalid_argument("RevocationRegistry: null predistribution");
}

void RevocationRegistry::mark_key(KeyIndex key, RevocationCause cause,
                                  std::vector<NodeId>& newly) {
  if (!revoked_keys_.insert(key).second) return;  // already revoked
  ++generation_;
  events_.push_back({key, cause});
  tracer_.key_revoked(key, cause == RevocationCause::kPinpointed);
  // Only individually pinpointed keys witness adversarial use. A bulk
  // ring-seed revocation proves nothing about the *other* holders of the
  // ring's keys, so it must not advance their θ counters — otherwise one
  // sensor revocation could avalanche honest high-overlap rings past θ,
  // which the Figure 7 model rules out.
  if (threshold_ == 0 || cause != RevocationCause::kPinpointed) return;
  for (NodeId holder : keys_->holders(key)) {
    if (revoked_sensors_.contains(holder)) continue;
    const std::uint32_t c = ++counts_[holder];
    if (c >= threshold_) mark_sensor(holder, newly);
  }
}

void RevocationRegistry::mark_sensor(NodeId node, std::vector<NodeId>& newly) {
  if (!revoked_sensors_.insert(node).second) return;
  ++generation_;
  revoked_sensor_order_.push_back(node);
  newly.push_back(node);
  tracer_.sensor_revoked(node);
  // Ring seed announcement plus any path keys the sensor was an endpoint
  // of (the peer drops them once the sensor is revoked).
  for (KeyIndex k : keys_->keys_of(node))
    mark_key(k, RevocationCause::kRingSeed, newly);
}

std::vector<NodeId> RevocationRegistry::revoke_key(KeyIndex key) {
  std::vector<NodeId> newly;
  mark_key(key, RevocationCause::kPinpointed, newly);
  return newly;
}

std::vector<NodeId> RevocationRegistry::revoke_sensor(NodeId node) {
  std::vector<NodeId> newly;
  mark_sensor(node, newly);
  return newly;
}

std::uint32_t RevocationRegistry::revoked_count(NodeId node) const noexcept {
  const auto it = counts_.find(node);
  return it == counts_.end() ? 0 : it->second;
}

void RevocationRegistry::snapshot_save(SavedState& out) const {
  out.revoked_keys = revoked_keys_;
  out.revoked_sensors = revoked_sensors_;
  out.revoked_sensor_order = revoked_sensor_order_;
  out.counts = counts_;
  out.events = events_;
}

void RevocationRegistry::snapshot_load(const SavedState& in) {
  revoked_keys_ = in.revoked_keys;
  revoked_sensors_ = in.revoked_sensors;
  revoked_sensor_order_ = in.revoked_sensor_order;
  counts_ = in.counts;
  events_ = in.events;
  ++generation_;
}

std::size_t RevocationRegistry::pinpointed_key_count() const noexcept {
  std::size_t n = 0;
  for (const auto& e : events_)
    if (e.cause == RevocationCause::kPinpointed) ++n;
  return n;
}

}  // namespace vmat
