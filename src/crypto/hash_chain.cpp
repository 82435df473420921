#include "crypto/hash_chain.h"

#include <stdexcept>

#include "util/bytes.h"

namespace vmat {
namespace {

Digest seed_end_of(std::uint64_t seed) {
  ByteWriter w;
  w.str("vmat.hash-chain.seed");
  w.u64(seed);
  return Sha256::hash(w.bytes());
}

}  // namespace

HashChain::HashChain(const Digest& seed_end, std::size_t length) {
  if (length == 0) throw std::invalid_argument("HashChain: zero length");
  elements_.resize(length);
  elements_.back() = seed_end;
  for (std::size_t i = length - 1; i-- > 0;)
    elements_[i] = Sha256::hash(elements_[i + 1]);
}

HashChain::HashChain(std::uint64_t seed, std::size_t length)
    : HashChain(seed_end_of(seed), length) {}

const Digest& HashChain::element(std::size_t i) const {
  if (i >= elements_.size()) throw std::out_of_range("HashChain::element");
  return elements_[i];
}

bool HashChain::verify(const Digest& candidate, std::size_t i,
                       const Digest& verified,
                       std::size_t verified_pos) noexcept {
  if (i <= verified_pos) return false;
  Digest current = candidate;
  for (std::size_t step = 0; step < i - verified_pos; ++step)
    current = Sha256::hash(current);
  return current == verified;
}

}  // namespace vmat
