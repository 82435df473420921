#include "sim/fabric.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "sim/snapshot.h"
#include "util/random.h"

namespace vmat {

std::span<const std::uint8_t> SlotArena::store(
    std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return {};
  while (active_ < chunks_.size() &&
         chunks_[active_].fill + bytes.size() > chunks_[active_].size)
    ++active_;
  if (active_ == chunks_.size()) {
    // Geometric growth keeps the chunk count logarithmic in peak slot
    // volume; one slot's largest payload always fits a single chunk.
    const std::size_t last = chunks_.empty() ? 0 : chunks_.back().size;
    const std::size_t size = std::max({std::size_t{4096}, 2 * last,
                                       bytes.size()});
    chunks_.push_back(Chunk{std::make_unique<std::uint8_t[]>(size), size, 0});
  }
  Chunk& chunk = chunks_[active_];
  std::uint8_t* dst = chunk.data.get() + chunk.fill;
  std::memcpy(dst, bytes.data(), bytes.size());
  chunk.fill += bytes.size();
  used_ += bytes.size();
  return {dst, bytes.size()};
}

void SlotArena::reset() noexcept {
  for (Chunk& chunk : chunks_) chunk.fill = 0;
  active_ = 0;
  used_ = 0;
}

std::size_t SlotArena::capacity() const noexcept {
  std::size_t total = 0;
  for (const Chunk& chunk : chunks_) total += chunk.size;
  return total;
}

Fabric::Fabric(const Topology* topology, std::size_t capacity_per_slot)
    : topology_(topology),
      capacity_per_slot_(capacity_per_slot),
      sent_this_slot_(topology->node_count(), 0),
      inbox_begin_(topology->node_count(), 0),
      inbox_end_(topology->node_count(), 0),
      bytes_sent_(topology->node_count(), 0),
      bytes_received_(topology->node_count(), 0) {
  if (topology == nullptr) throw std::invalid_argument("Fabric: null topology");
  // Every phase loop sweeps neighbors per slot; make sure the adjacency is
  // in its flat CSR form before the first hot loop runs (single-threaded
  // here by construction).
  topology->compact();
}

Status Fabric::set_loss(double probability, std::uint64_t seed) {
  if (probability < 0.0 || probability >= 1.0)
    return Error{ErrorCode::kInvalidArgument,
                 "Fabric::set_loss: probability in [0,1)"};
  loss_probability_ = probability;
  loss_rng_state_ = seed ^ 0x10553eedULL;
  return {};
}

bool Fabric::send(const Envelope& envelope) {
  return send_as(envelope.from, envelope, envelope.payload);
}

bool Fabric::send(const Envelope& envelope,
                  std::span<const std::uint8_t> payload) {
  return send_as(envelope.from, envelope, payload);
}

bool Fabric::send_as(NodeId actual_sender, const Envelope& envelope) {
  return send_as(actual_sender, envelope, envelope.payload);
}

bool Fabric::send_as(NodeId actual_sender, const Envelope& envelope,
                     std::span<const std::uint8_t> payload) {
  if (actual_sender.value >= sent_this_slot_.size() ||
      envelope.to.value >= sent_this_slot_.size())
    throw std::out_of_range("Fabric::send_as: bad node id");
  const std::size_t size = kFrameOverheadBytes + payload.size();
  if (!topology_->has_edge(actual_sender, envelope.to)) {
    ++dropped_;
    tracer_.frame_dropped(actual_sender, envelope.to, size);
    return false;  // radios cannot reach beyond physical neighbors
  }
  if (sent_this_slot_[actual_sender.value] >= capacity_per_slot_) {
    ++dropped_;
    tracer_.frame_dropped(actual_sender, envelope.to, size);
    return false;
  }
  ++sent_this_slot_[actual_sender.value];
  ++frames_sent_;
  bytes_sent_[actual_sender.value] += size;
  total_bytes_ += size;
  tracer_.frame_sent(actual_sender, envelope.to, envelope.edge_key, size);
  if (loss_probability_ > 0.0) {
    const double roll =
        static_cast<double>(splitmix64(loss_rng_state_) >> 11) * 0x1.0p-53;
    if (roll < loss_probability_) {
      ++lost_;
      tracer_.frame_lost(actual_sender, envelope.to, size);
      return true;  // sender cannot tell; the ether ate it
    }
  }
  staged_.push_back(Frame{envelope.from, envelope.to, envelope.edge_key,
                          envelope.edge_mac,
                          arenas_[collect_].store(payload)});
  return true;
}

void Fabric::end_slot() {
  const std::size_t n = sent_this_slot_.size();

  // Stable counting sort of staged_ by destination: delivered_ becomes one
  // flat frame table grouped by receiver, per-node ranges in
  // inbox_begin_/inbox_end_. Delivery order within a node is global send
  // order, exactly as the per-node queues used to behave.
  sort_pos_.assign(n, 0);
  for (const Frame& f : staged_) ++sort_pos_[f.to.value];
  std::uint32_t running = 0;
  for (std::size_t id = 0; id < n; ++id) {
    inbox_begin_[id] = running;
    running += sort_pos_[id];
    inbox_end_[id] = running;
    sort_pos_[id] = inbox_begin_[id];
  }
  delivered_.resize(staged_.size());
  for (const Frame& f : staged_) delivered_[sort_pos_[f.to.value]++] = f;
  staged_.clear();

  // Per-receiver delivery accounting, in receiver order (the order the old
  // per-node inbox walk used).
  for (std::size_t id = 0; id < n; ++id) {
    for (std::uint32_t i = inbox_begin_[id]; i < inbox_end_[id]; ++i) {
      const std::size_t size = frame_size(delivered_[i]);
      bytes_received_[id] += size;
      tracer_.frame_delivered(NodeId{static_cast<std::uint32_t>(id)}, size);
    }
    sent_this_slot_[id] = 0;
  }

  // Rotate arenas: this slot's collection arena now backs the open delivery
  // slot; the previous delivery arena is rewound and starts collecting.
  // Undrained frames from the previous slot die here with their arena.
  collect_ ^= 1;
  arenas_[collect_].reset();
}

std::span<const Frame> Fabric::take_inbox(NodeId node) {
  if (node.value >= inbox_begin_.size())
    throw std::out_of_range("Fabric::take_inbox");
  const std::uint32_t begin = inbox_begin_[node.value];
  const std::uint32_t end = inbox_end_[node.value];
  inbox_begin_[node.value] = end;  // drained
  return std::span<const Frame>(delivered_.data() + begin, end - begin);
}

void Fabric::reset() {
  staged_.clear();
  delivered_.clear();
  std::fill(inbox_begin_.begin(), inbox_begin_.end(), 0);
  std::fill(inbox_end_.begin(), inbox_end_.end(), 0);
  std::fill(sent_this_slot_.begin(), sent_this_slot_.end(), 0);
  arenas_[0].reset();
  arenas_[1].reset();
  collect_ = 0;
}

void Fabric::snapshot_save(SavedState& out) const {
  if (!staged_.empty() || !delivered_.empty())
    throw std::logic_error(
        "Fabric::snapshot_save: frames in flight — capture only at a phase "
        "boundary, after reset()");
  out.loss_rng_state = loss_rng_state_;
  out.lost = lost_;
  out.bytes_sent = bytes_sent_;
  out.bytes_received = bytes_received_;
  out.total_bytes = total_bytes_;
  out.dropped = dropped_;
  out.frames_sent = frames_sent_;
}

void Fabric::snapshot_load(const SavedState& in) {
  reset();
  loss_rng_state_ = in.loss_rng_state;
  lost_ = in.lost;
  bytes_sent_ = in.bytes_sent;
  bytes_received_ = in.bytes_received;
  total_bytes_ = in.total_bytes;
  dropped_ = in.dropped;
  frames_sent_ = in.frames_sent;
}

std::uint64_t Fabric::config_fingerprint(std::uint64_t h) const noexcept {
  h = snapshot_mix(h, static_cast<std::uint64_t>(capacity_per_slot_));
  h = snapshot_mix(h, std::bit_cast<std::uint64_t>(loss_probability_));
  return h;
}

std::uint64_t Fabric::bytes_sent(NodeId node) const {
  if (node.value >= bytes_sent_.size())
    throw std::out_of_range("Fabric::bytes_sent");
  return bytes_sent_[node.value];
}

std::uint64_t Fabric::bytes_received(NodeId node) const {
  if (node.value >= bytes_received_.size())
    throw std::out_of_range("Fabric::bytes_received");
  return bytes_received_[node.value];
}

}  // namespace vmat
