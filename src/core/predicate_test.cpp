#include "core/predicate_test.h"

#include <stdexcept>

namespace vmat {

PredicateTestEngine::PredicateTestEngine(Network* net, Adversary* adversary,
                                         const AuditLog* audits,
                                         CostMeter* meter,
                                         PredicateTestMode mode, Tracer tracer)
    : net_(net),
      adversary_(adversary),
      audits_(audits),
      meter_(meter),
      mode_(mode),
      tracer_(tracer) {
  if (net == nullptr || audits == nullptr || meter == nullptr)
    throw std::invalid_argument("PredicateTestEngine: null dependency");
}

const MacContext& PredicateTestEngine::key_context(const KeySpec& key) const {
  switch (key.type) {
    case KeySpec::Type::kSensorKey:
      return net_->keys().sensor_mac_context(key.sensor);
    case KeySpec::Type::kPoolKey:
      return net_->keys().mac_context(key.pool);
  }
  throw std::logic_error("key_context: bad key spec");
}

void PredicateTestEngine::collect_repliers(const KeySpec& key,
                                           const Predicate& predicate) {
  repliers_.clear();
  std::span<const NodeId> holders;
  if (key.type == KeySpec::Type::kPoolKey) {
    holders = net_->keys().holders(key.pool);
  } else if (key.sensor.value < net_->node_count()) {
    holders = std::span<const NodeId>(&key.sensor, 1);
  }
  for (const NodeId node : holders) {
    if (net_->revocation().is_sensor_revoked(node)) continue;
    if (byzantine(adversary_, node)) {
      if (adversary_->strategy().answer_predicate(adversary_->view(),
                                                  predicate, node))
        repliers_.push_back(node);
    } else if (evaluate_predicate(predicate, node, *audits_)) {
      repliers_.push_back(node);
    }
  }
}

bool PredicateTestEngine::reaches_base_station() {
  // Active honest sensors relay the (verifiable) reply; Byzantine sensors
  // pessimistically never relay. BFS from the base station over the active
  // honest subgraph; a replier succeeds if it is in that component (honest
  // replier) or physically adjacent to it (Byzantine injector). The
  // component depends only on who is revoked, so it is recomputed only
  // when the registry's generation moves.
  const std::uint64_t generation = net_->revocation().generation();
  if (reached_.empty() || reached_generation_ != generation) {
    auto active = [&](NodeId node) {
      return !net_->revocation().is_sensor_revoked(node) &&
             !byzantine(adversary_, node);
    };
    reached_.assign(net_->node_count(), 0);
    std::vector<NodeId> queue;
    if (active(kBaseStation)) {
      reached_[kBaseStation.value] = 1;
      queue.push_back(kBaseStation);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (NodeId v : net_->topology().neighbors(queue[head])) {
        if (reached_[v.value] != 0 || !active(v)) continue;
        reached_[v.value] = 1;
        queue.push_back(v);
      }
    }
    reached_generation_ = generation;
  }
  for (NodeId r : repliers_) {
    if (reached_[r.value] != 0) return true;
    for (NodeId v : net_->topology().neighbors(r))
      if (reached_[v.value] != 0) return true;
  }
  return false;
}

bool PredicateTestEngine::flood_reply(const Mac& reply, const Digest& token) {
  // One-time verified flood on the actual fabric: the reply needs no edge
  // MAC because every sensor can check a candidate frame against the
  // broadcast token H(MAC_K(N ‖ P)).
  net_->fabric().reset();
  const std::uint32_t n = net_->node_count();
  const Bytes frame = encode(PredicateReplyMsg{reply});

  auto transmit = [&](NodeId from) {
    for (NodeId v : net_->topology().neighbors(from)) {
      Envelope e;
      e.from = from;
      e.to = v;
      e.edge_key = kNoKey;  // token-verified, not edge-authenticated
      e.payload = frame;
      (void)net_->fabric().send_as(from, std::move(e));
    }
  };

  std::vector<bool> handled(n, false);
  std::vector<NodeId> to_send(repliers_.begin(), repliers_.end());
  bool bs_received = false;

  const Level L = net_->physical_depth();
  for (Interval slot = 1; slot <= 2 * L + 2 && !bs_received; ++slot) {
    for (NodeId s : to_send) {
      if (net_->revocation().is_sensor_revoked(s)) continue;
      transmit(s);
      handled[s.value] = true;
    }
    to_send.clear();
    net_->fabric().end_slot();
    for (std::uint32_t id = 0; id < n; ++id) {
      const NodeId node{id};
      auto inbox = net_->fabric().take_inbox(node);
      if (net_->revocation().is_sensor_revoked(node)) continue;
      if (node != kBaseStation && byzantine(adversary_, node))
        continue;  // Byzantine sensors do not relay
      for (const auto& env : inbox) {
        const auto msg = decode_reply(env.payload);
        if (!msg.has_value()) continue;          // malformed: dropped
        if (hash_of_mac(msg->reply) != token) continue;  // junk: dropped
        if (node == kBaseStation) {
          bs_received = true;
          break;
        }
        if (!handled[id]) {
          handled[id] = true;
          to_send.push_back(node);  // one-time forward next slot
        }
      }
    }
  }
  net_->fabric().reset();
  return bs_received;
}

bool PredicateTestEngine::run(const KeySpec& key, const Predicate& predicate) {
  ++nonce_;
  meter_->predicate_tests += 1;
  // One authenticated broadcast (token dissemination) + the reply flood:
  // the paper charges two flooding rounds per test.
  meter_->flooding_rounds += 2;
  meter_->control_bytes += static_cast<std::uint64_t>(net_->node_count()) *
                           (encode_predicate(predicate).size() + 48);

  collect_repliers(key, predicate);

  bool ok;
  if (repliers_.empty()) {
    // Nobody sends the reply, so it arrives in neither mode (and a key
    // nobody holds, such as kNoKey, has no MAC context to derive).
    ok = false;
  } else if (mode_ == PredicateTestMode::kReachability) {
    ok = reaches_base_station();
  } else {
    // Message-level mode: derive the actual reply and token and flood it.
    ByteWriter mac_input;
    mac_input.str("vmat.predicate-reply");
    mac_input.u64(nonce_);
    mac_input.raw(encode_predicate(predicate));
    const Mac reply = key_context(key).compute(mac_input.bytes());
    ok = flood_reply(reply, hash_of_mac(reply));
  }
  const NodeId subject =
      key.type == KeySpec::Type::kSensorKey ? key.sensor : NodeId{};
  const KeyIndex pool =
      key.type == KeySpec::Type::kPoolKey ? key.pool : kNoKey;
  tracer_.predicate_test(subject, pool, ok);
  return ok;
}

}  // namespace vmat
