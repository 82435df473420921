// A sensor's key ring: r distinct key indices drawn uniformly from the
// global pool by a per-sensor seed (Eschenauer-Gligor [7]).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/ids.h"

namespace vmat {

class KeyRing {
 public:
  /// Draw `ring_size` distinct indices from [0, pool_size) using the given
  /// ring seed. Deterministic: the base station reconstructs the same ring
  /// from the same seed.
  KeyRing(std::uint64_t ring_seed, std::uint32_t ring_size,
          std::uint32_t pool_size);

  /// Recompute the sorted index set a (seed, ring_size, pool_size) triple
  /// defines, without materializing a KeyRing. Bit-identical to the ring
  /// the constructor builds: Floyd's algorithm draws the same value at
  /// step j regardless of the membership structure, so the thread_local
  /// scratch bitmap used here yields the exact set
  /// Rng::sample_without_replacement produces. This is the single source
  /// of truth the lazy Predistribution paths re-derive rings through;
  /// safe to call concurrently (per-thread scratch, no shared state).
  static void derive_indices(std::uint64_t ring_seed, std::uint32_t ring_size,
                             std::uint32_t pool_size,
                             std::vector<KeyIndex>& out);

  /// derive_indices() without the final sort: the same index set in draw
  /// order, for callers that only ask whether one index is in it (the
  /// first holders() query per key tests every node this way).
  static void draw_indices(std::uint64_t ring_seed, std::uint32_t ring_size,
                           std::uint32_t pool_size,
                           std::vector<KeyIndex>& out);

  /// derive_indices() straight into a caller-owned zeroed bitmap of
  /// (pool_size+63)/64 words — the membership set without the sorted list
  /// (no allocation, no sort). The bulk edge-key warm uses one row per
  /// node; same draw-sequence-identity argument as derive_indices().
  static void derive_into_bits(std::uint64_t ring_seed,
                               std::uint32_t ring_size,
                               std::uint32_t pool_size, std::uint64_t* bits);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::size_t size() const noexcept { return indices_.size(); }

  /// Sorted ascending, as required by the binary search in Figure 5
  /// ("let z_1 < z_2 < ... < z_r be the index of the r edge keys").
  [[nodiscard]] std::span<const KeyIndex> indices() const noexcept {
    return indices_;
  }

  [[nodiscard]] bool contains(KeyIndex k) const noexcept;

  /// Position of key k within the sorted ring, if present.
  [[nodiscard]] std::optional<std::size_t> position_of(KeyIndex k) const noexcept;

  /// Smallest key index shared with another ring, if any — the edge key for
  /// a pair of neighboring sensors.
  [[nodiscard]] std::optional<KeyIndex> shared_key(const KeyRing& other) const;

  /// Number of shared key indices with `other` (used by threshold-θ
  /// mis-revocation analysis, Figure 7).
  [[nodiscard]] std::size_t overlap(const KeyRing& other) const noexcept;

 private:
  /// Pool sizes up to this bound get a membership bitmap (pool/8 bytes per
  /// materialized ring) so contains() is one bit test instead of a binary
  /// search; larger pools fall back to searching the sorted index list.
  /// The bound covers the paper's evaluation pool (u = 100,000) with room
  /// to spare: since the large-n diet keeps only a small LRU of
  /// materialized rings, the bitmap cost is LRU-capacity × pool/8 bytes
  /// (≈ 8 MB at u = 2^20 with 64 cached rings), not n × pool/8, so there
  /// is no longer a reason to degrade contains() on big pools. The
  /// micro_crypto ring-contains rows measure both sides of the bound.
  static constexpr std::uint32_t kBitmapPoolLimit = 1u << 20;

  std::uint64_t seed_;
  std::vector<KeyIndex> indices_;  // sorted
  std::vector<std::uint64_t> bits_;  // empty when pool > kBitmapPoolLimit
};

}  // namespace vmat
