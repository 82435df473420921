#include "attack/adversary.h"

#include <stdexcept>

namespace vmat {

AdversaryView::AdversaryView(Network* net, std::unordered_set<NodeId> malicious)
    : net_(net), malicious_(std::move(malicious)) {
  if (net == nullptr) throw std::invalid_argument("AdversaryView: null net");
  if (malicious_.contains(kBaseStation))
    throw std::invalid_argument(
        "AdversaryView: the base station is trusted (Section III)");
  for (NodeId m : malicious_)
    if (m.value >= net_->node_count())
      throw std::out_of_range("AdversaryView: malicious id out of range");
}

bool AdversaryView::holds_pool_key(KeyIndex key) const {
  for (NodeId m : malicious_)
    if (net_->keys().node_holds(m, key)) return true;
  return false;
}

SymmetricKey AdversaryView::pool_key(KeyIndex key) const {
  if (!holds_pool_key(key))
    throw std::logic_error(
        "AdversaryView::pool_key: adversary does not hold this key");
  return net_->keys().key_material(key);
}

SymmetricKey AdversaryView::sensor_key(NodeId node) const {
  if (!is_malicious(node))
    throw std::logic_error(
        "AdversaryView::sensor_key: sensor is not compromised");
  return net_->keys().sensor_key(node);
}

bool AdversaryView::inject(NodeId via, NodeId to, NodeId claimed_from,
                           KeyIndex edge_key, const Bytes& payload) {
  if (!is_malicious(via)) return false;
  if (!holds_pool_key(edge_key)) return false;
  Envelope e;
  e.from = claimed_from;
  e.to = to;
  e.edge_key = edge_key;
  e.payload = payload;
  e.edge_mac = net_->keys().mac_context(edge_key).compute(payload);
  return net_->fabric().send_as(via, std::move(e));
}

std::optional<KeyIndex> AdversaryView::attack_key_for(NodeId target) const {
  const Predistribution& keys = net_->keys();
  // The smallest unrevoked key some malicious sensor shares with target.
  // Each sensor's keys are walked in ascending order (ring indices, then
  // its path keys, which all lie above the pool), stopping at its first
  // usable key or once no key of it can beat the best so far.
  std::optional<KeyIndex> best;
  auto stop_at = [&](KeyIndex k) {
    if (best.has_value() && k >= *best) return true;
    if (!keys.node_holds(target, k) || net_->revocation().is_key_revoked(k))
      return false;
    best = k;
    return true;
  };
  for (NodeId m : malicious_) {
    for (KeyIndex k : keys.ring(m).indices())
      if (stop_at(k)) break;
    for (const auto& [peer, k] : keys.path_keys_of(m))
      if (stop_at(k)) break;
  }
  return best;
}

TriggerState AdversaryView::trigger_state(TracePhase phase,
                                          Interval slot) const {
  TriggerState state;
  state.phase = phase;
  state.slot = slot;
  state.revoked_keys = net_->revocation().revoked_key_count();
  state.revoked_sensors = net_->revocation().revoked_sensors_in_order().size();
  state.round = round_;
  return state;
}

std::vector<NodeId> AdversaryView::malicious_neighbors_of(NodeId node) const {
  std::vector<NodeId> out;
  for (NodeId v : net_->topology().neighbors(node))
    if (is_malicious(v)) out.push_back(v);
  return out;
}

void AdversaryStrategy::on_tree_slot(AdversaryView&, const TreeCtx&) {}
void AdversaryStrategy::on_agg_slot(AdversaryView&, const AggCtx&) {}
void AdversaryStrategy::on_conf_slot(AdversaryView&, const ConfCtx&) {}

bool AdversaryStrategy::answer_predicate(AdversaryView&, const Predicate&,
                                         NodeId) {
  return false;
}

Reading AdversaryStrategy::own_reading(NodeId, Reading honest) {
  return honest;
}

Adversary::Adversary(Network* net, std::unordered_set<NodeId> malicious,
                     std::unique_ptr<AdversaryStrategy> strategy)
    : view_(net, std::move(malicious)), strategy_(std::move(strategy)) {
  if (strategy_ == nullptr)
    throw std::invalid_argument("Adversary: null strategy");
}

}  // namespace vmat
