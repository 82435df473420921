#include "keys/key_ring.h"

#include <algorithm>

#include "util/random.h"

namespace vmat {

KeyRing::KeyRing(std::uint64_t ring_seed, std::uint32_t ring_size,
                 std::uint32_t pool_size)
    : seed_(ring_seed) {
  derive_indices(ring_seed, ring_size, pool_size, indices_);
  if (pool_size <= kBitmapPoolLimit) {
    bits_.assign((pool_size + 63) / 64, 0);
    for (KeyIndex k : indices_) bits_[k.value >> 6] |= 1ULL << (k.value & 63);
  }
}

void KeyRing::derive_indices(std::uint64_t ring_seed, std::uint32_t ring_size,
                             std::uint32_t pool_size,
                             std::vector<KeyIndex>& out) {
  draw_indices(ring_seed, ring_size, pool_size, out);
  std::sort(out.begin(), out.end());
}

void KeyRing::draw_indices(std::uint64_t ring_seed, std::uint32_t ring_size,
                           std::uint32_t pool_size,
                           std::vector<KeyIndex>& out) {
  out.clear();
  out.reserve(ring_size);
  // Floyd's sampling with the identical draw sequence as
  // Rng::sample_without_replacement: at step j it draws below(j+1) and
  // inserts either t or j depending only on whether t was already chosen.
  // A zeroed scratch bitmap answers that membership question; bits are
  // cleared again afterwards so the (thread_local) scratch stays all-zero
  // between calls without an O(pool) wipe.
  thread_local std::vector<std::uint64_t> scratch;
  const std::size_t words = (static_cast<std::size_t>(pool_size) + 63) / 64;
  if (scratch.size() < words) scratch.resize(words, 0);
  Rng rng(ring_seed);
  for (std::uint32_t j = pool_size - ring_size; j < pool_size; ++j) {
    const auto t = static_cast<std::uint32_t>(rng.below(j + 1));
    const bool taken = (scratch[t >> 6] >> (t & 63)) & 1ULL;
    const std::uint32_t pick = taken ? j : t;
    scratch[pick >> 6] |= 1ULL << (pick & 63);
    out.push_back(KeyIndex{pick});
  }
  for (const KeyIndex k : out)
    scratch[k.value >> 6] &= ~(1ULL << (k.value & 63));
}

void KeyRing::derive_into_bits(std::uint64_t ring_seed,
                               std::uint32_t ring_size,
                               std::uint32_t pool_size, std::uint64_t* bits) {
  Rng rng(ring_seed);
  for (std::uint32_t j = pool_size - ring_size; j < pool_size; ++j) {
    const auto t = static_cast<std::uint32_t>(rng.below(j + 1));
    const bool taken = (bits[t >> 6] >> (t & 63)) & 1ULL;
    const std::uint32_t pick = taken ? j : t;
    bits[pick >> 6] |= 1ULL << (pick & 63);
  }
}

bool KeyRing::contains(KeyIndex k) const noexcept {
  if (!bits_.empty()) {
    const std::uint32_t word = k.value >> 6;
    if (word >= bits_.size()) return false;
    return (bits_[word] >> (k.value & 63)) & 1ULL;
  }
  return std::binary_search(indices_.begin(), indices_.end(), k);
}

std::optional<std::size_t> KeyRing::position_of(KeyIndex k) const noexcept {
  const auto it = std::lower_bound(indices_.begin(), indices_.end(), k);
  if (it == indices_.end() || *it != k) return std::nullopt;
  return static_cast<std::size_t>(it - indices_.begin());
}

std::optional<KeyIndex> KeyRing::shared_key(const KeyRing& other) const {
  auto a = indices_.begin();
  auto b = other.indices_.begin();
  while (a != indices_.end() && b != other.indices_.end()) {
    if (*a == *b) return *a;
    if (*a < *b)
      ++a;
    else
      ++b;
  }
  return std::nullopt;
}

std::size_t KeyRing::overlap(const KeyRing& other) const noexcept {
  std::size_t count = 0;
  auto a = indices_.begin();
  auto b = other.indices_.begin();
  while (a != indices_.end() && b != other.indices_.end()) {
    if (*a == *b) {
      ++count;
      ++a;
      ++b;
    } else if (*a < *b) {
      ++a;
    } else {
      ++b;
    }
  }
  return count;
}

}  // namespace vmat
