// One-way hash chains, the commitment structure behind the authenticated
// broadcast primitive (μTESLA-style, per Ning et al. [20]).
//
// A chain of n elements is built from its seed end, element(n-1), by
// hashing down: element(i) = H(element(i+1)). element(0), the deepest hash,
// is the anchor a verifier is pre-loaded with; releasing the elements in
// increasing index order authenticates each one, since a receiver hashes
// a released element forward to one it already verified.
//
// Chains here are short — the broadcast layer (broadcast/auth_broadcast.h)
// stacks two levels of at most 257 elements each instead of one long
// chain — so a chain is simply materialized: n digests, element(i) is an
// index. Building one costs n-1 hashes.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"

namespace vmat {

class HashChain {
 public:
  /// Build a chain of `length` elements whose seed end, element(length-1),
  /// is `seed_end`.
  HashChain(const Digest& seed_end, std::size_t length);
  /// Build a chain of `length` elements from a 64-bit seed (seed end
  /// H("vmat.hash-chain.seed" || seed)).
  HashChain(std::uint64_t seed, std::size_t length);

  [[nodiscard]] std::size_t length() const noexcept { return elements_.size(); }

  /// i in [0, length): element i, where larger i = released later.
  [[nodiscard]] const Digest& element(std::size_t i) const;

  [[nodiscard]] const Digest& anchor() const { return elements_.front(); }

  /// Verify that `candidate` is the element at position `i` of a chain whose
  /// element at `verified_pos` (< i) is `verified`. Hashes forward i -
  /// verified_pos times, so callers bound the distance first.
  [[nodiscard]] static bool verify(const Digest& candidate, std::size_t i,
                                   const Digest& verified,
                                   std::size_t verified_pos) noexcept;

 private:
  std::vector<Digest> elements_;  // [0] = anchor, back() = seed end
};

}  // namespace vmat
