#include "broadcast/auth_broadcast.h"

#include <algorithm>
#include <stdexcept>

namespace vmat {

SymmetricKey broadcast_key(const Digest& chain_element) noexcept {
  ByteWriter w;
  w.str("vmat.abcast-key");
  w.raw(chain_element);
  const Digest d = Sha256::hash(w.bytes());
  SymmetricKey key;
  std::copy_n(d.begin(), key.bytes.size(), key.bytes.begin());
  return key;
}

AuthBroadcaster::AuthBroadcaster(std::uint64_t seed,
                                 std::size_t max_broadcasts)
    : chain_(seed, max_broadcasts + 1) {}

SignedBroadcast AuthBroadcaster::sign(Bytes payload, Tracer tracer) {
  if (next_epoch_ >= chain_.length())
    throw std::runtime_error("AuthBroadcaster: hash chain exhausted");
  SignedBroadcast b;
  b.epoch = next_epoch_;
  b.chain_element = chain_.element(next_epoch_);
  b.payload = std::move(payload);
  b.mac = compute_mac(broadcast_key(b.chain_element), b.payload);
  tracer.mac_compute(kBaseStation, kNoKey);
  ++next_epoch_;
  return b;
}

AuthReceiver::AuthReceiver(const Digest& anchor) : last_verified_(anchor) {}

bool AuthReceiver::verify(const SignedBroadcast& b) const {
  return b.epoch > last_epoch_ &&
         HashChain::verify(b.chain_element, b.epoch, last_verified_,
                           last_epoch_) &&
         verify_mac(broadcast_key(b.chain_element), b.payload, b.mac);
}

void AuthReceiver::advance(const SignedBroadcast& b) noexcept {
  last_verified_ = b.chain_element;
  last_epoch_ = b.epoch;
}

bool AuthReceiver::accept(const SignedBroadcast& b) {
  if (!verify(b)) return false;
  advance(b);
  return true;
}

}  // namespace vmat
