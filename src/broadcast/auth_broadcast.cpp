#include "broadcast/auth_broadcast.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

namespace vmat {
namespace {

SymmetricKey key_from(std::string_view label, const Digest& element) noexcept {
  ByteWriter w;
  w.str(label);
  w.raw(element);
  const Digest d = Sha256::hash(w.bytes());
  SymmetricKey key;
  std::copy_n(d.begin(), key.bytes.size(), key.bytes.begin());
  return key;
}

Digest lower_seed_end(std::uint64_t seed, std::uint64_t segment) {
  ByteWriter w;
  w.str("vmat.abcast.lower-seed");
  w.u64(seed);
  w.u64(segment);
  return Sha256::hash(w.bytes());
}

/// Top chain length for a capacity: one element per segment plus the
/// anchor. Validates the capacity before anything is hashed.
std::size_t top_length(std::size_t max_broadcasts) {
  if (max_broadcasts == 0 || max_broadcasts > kMaxBroadcasts)
    throw std::invalid_argument("AuthBroadcaster: capacity out of range");
  return (max_broadcasts + kSegmentLength - 1) / kSegmentLength + 1;
}

std::uint64_t segment_of(std::uint64_t epoch) noexcept {
  return (epoch - 1) / kSegmentLength;
}

std::uint64_t position_of(std::uint64_t epoch) noexcept {
  return (epoch - 1) % kSegmentLength + 1;
}

}  // namespace

SymmetricKey broadcast_key(const Digest& chain_element) noexcept {
  return key_from("vmat.abcast-key", chain_element);
}

Mac segment_commitment(const Digest& top_element, std::uint64_t segment,
                       const Digest& lower_anchor) noexcept {
  ByteWriter w;
  w.u64(segment);
  w.raw(lower_anchor);
  return compute_mac(key_from("vmat.abcast.commit-key", top_element),
                     w.bytes());
}

AuthBroadcaster::AuthBroadcaster(std::uint64_t seed,
                                 std::size_t max_broadcasts)
    : seed_(seed),
      capacity_(max_broadcasts),
      top_(seed, top_length(max_broadcasts)) {}

const AuthBroadcaster::Segment& AuthBroadcaster::segment(std::uint64_t j) {
  if (!segment_ || segment_->index != j) {
    HashChain chain(lower_seed_end(seed_, j), kSegmentLength + 1);
    const Mac commitment =
        segment_commitment(top_.element(j + 1), j, chain.anchor());
    segment_.emplace(Segment{j, std::move(chain), commitment});
  }
  return *segment_;
}

SignedBroadcast AuthBroadcaster::sign(Bytes payload, Tracer tracer) {
  if (next_epoch_ > capacity_)
    throw std::runtime_error("AuthBroadcaster: hash chain exhausted");
  const std::uint64_t j = segment_of(next_epoch_);
  const Segment& seg = segment(j);
  SignedBroadcast b;
  b.epoch = next_epoch_;
  b.segment = j;
  b.top_element = top_.element(j + 1);
  b.lower_anchor = seg.chain.anchor();
  b.commitment = seg.commitment;
  b.chain_element = seg.chain.element(position_of(next_epoch_));
  b.payload = std::move(payload);
  b.mac = compute_mac(broadcast_key(b.chain_element), b.payload);
  tracer.mac_compute(kBaseStation, kNoKey);
  ++next_epoch_;
  return b;
}

AuthReceiver::AuthReceiver(const Digest& anchor) : top_(anchor) {}

bool AuthReceiver::verify(const SignedBroadcast& b) const {
  // Range checks first: every hash below is then capped at kSegmentLength
  // per level, whatever epoch a forged frame names.
  if (b.epoch == 0 || b.epoch > kMaxBroadcasts ||
      b.segment != segment_of(b.epoch))
    return false;
  const std::uint64_t top_pos = b.segment + 1;
  const std::uint64_t pos = position_of(b.epoch);
  if (top_pos < top_pos_) return false;  // an older segment
  if (top_pos == top_pos_) {
    // Same segment: hash forward to the last verified lower element
    // (which also rejects a position that is not strictly newer).
    if (!HashChain::verify(b.chain_element, pos, lower_, lower_pos_))
      return false;
  } else if (!HashChain::verify(b.top_element, top_pos, top_, top_pos_) ||
             segment_commitment(b.top_element, b.segment, b.lower_anchor) !=
                 b.commitment ||
             !HashChain::verify(b.chain_element, pos, b.lower_anchor, 0)) {
    return false;
  }
  return verify_mac(broadcast_key(b.chain_element), b.payload, b.mac);
}

void AuthReceiver::advance(const SignedBroadcast& b) noexcept {
  // Within a segment verify() never looked at the top fields, so only a
  // newer segment moves the top cursor.
  if (b.segment + 1 != top_pos_) {
    top_ = b.top_element;
    top_pos_ = b.segment + 1;
  }
  lower_ = b.chain_element;
  lower_pos_ = position_of(b.epoch);
}

bool AuthReceiver::accept(const SignedBroadcast& b) {
  if (!verify(b)) return false;
  advance(b);
  return true;
}

}  // namespace vmat
