// Network-wide key predistribution state.
//
// Owns the global pool, every sensor's ring seed and sensor key, the
// key-index -> holders relation, and the pairwise edge-key relation. The
// trusted base station holds one of these; each sensor only ever sees its
// own ring and sensor key (enforced by the node/adversary interfaces, not
// here).
//
// Large-n memory diet: rings are NOT materialized eagerly. The object
// stores one 8-byte ring seed per node and re-derives a ring's sorted
// index set on demand (KeyRing::derive_indices is deterministic), keeping
// a small LRU of materialized KeyRing objects for the serial call sites
// that want the full object. The key-index -> holders map is likewise
// derived on demand (and cached per queried index): clean executions never
// ask for holders, so they no longer pay n·r entries of eager map.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "keys/key_pool.h"
#include "keys/key_ring.h"
#include "util/ids.h"

namespace vmat {

struct KeyMaterialSpec {
  std::uint32_t pool_size{1000};   ///< u — paper's evaluation uses 100,000
  std::uint32_t ring_size{60};     ///< r — paper's evaluation uses 250
  std::uint64_t seed{1};           ///< master seed for pool + ring seeds
};

class Predistribution {
 public:
  /// Set up pool and ring seeds for `node_count` sensors (ids
  /// 0..node_count-1; id 0 is the base station, which gets a ring too so
  /// it can terminate audit trails).
  Predistribution(std::uint32_t node_count, const KeyMaterialSpec& config);

  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return node_count_;
  }
  [[nodiscard]] const KeyMaterialSpec& config() const noexcept { return config_; }
  [[nodiscard]] const KeyPool& pool() const noexcept { return pool_; }

  /// A node's materialized ring, served from a small LRU (the
  /// provisioning seam the eager-ring lint rule guards). The reference
  /// stays valid until at least kRingCacheCapacity - 1 *other* distinct
  /// rings have been requested — callers may hold two rings at once (edge
  /// key merges do), never more. NOT thread-safe (LRU mutation); parallel
  /// sections use ring_contains()/derive-based paths instead.
  [[nodiscard]] const KeyRing& ring(NodeId node) const;

  /// The deterministic seed node's ring derives from (what the paper's
  /// base station announces; all the diet keeps resident per node).
  [[nodiscard]] std::uint64_t ring_seed(NodeId node) const;

  /// Ring membership without touching the LRU: re-derives the node's index
  /// set into a per-thread memo (one derivation per distinct node per
  /// thread in a row, then O(log r) per query). Safe to call concurrently.
  /// Callers ask about one node at a time: receive-side claimed-key checks
  /// (Network::holds_claimed_key), the adversary's own-key checks, and
  /// ground-truth checks in tests. A loop over every node asking about one
  /// key wants holders() instead, which pays the n derivations once.
  [[nodiscard]] bool ring_contains(NodeId node, KeyIndex index) const;

  /// The unique symmetric key a sensor shares with the base station.
  [[nodiscard]] SymmetricKey sensor_key(NodeId node) const;

  /// Edge key (smallest shared pool index) between two sensors, if any.
  [[nodiscard]] std::optional<KeyIndex> edge_key(NodeId a, NodeId b) const;

  /// Pool key material for an index.
  [[nodiscard]] SymmetricKey pool_key(KeyIndex index) const {
    return pool_.key(index);
  }

  /// All sensors holding `index` (ring membership or path-key endpoint),
  /// sorted by id — "the base station knows the exact set of the t sensors
  /// holding K_e" (Section VI-A, Figure 6 Step 1). Derived on first query
  /// for a pool index (O(n) sort-free ring draws) and cached per queried
  /// index, never for every key up front. Callers: the Figure 6 holder
  /// search, every pool- or path-keyed predicate test (its repliers are
  /// these holders), and θ counting on revocation — so an execution pays
  /// the derivation only for the handful of keys its walk tests. NOT
  /// thread-safe (cache mutation); serial points only.
  [[nodiscard]] std::span<const NodeId> holders(KeyIndex index) const;

  // --- path keys (Eschenauer-Gligor path-key establishment) ---
  //
  // Neighbor pairs without a shared ring key can be given a dedicated
  // pairwise key through a base-station-mediated exchange. Path keys get
  // indices above the pool range and have exactly two holders.

  /// Register (or return the existing) path key for the pair {a, b}.
  KeyIndex register_path_key(NodeId a, NodeId b);

  [[nodiscard]] bool is_path_key(KeyIndex index) const noexcept {
    return index != kNoKey && index.value >= config_.pool_size;
  }

  /// The established path key between a and b, if any.
  [[nodiscard]] std::optional<KeyIndex> path_key_between(NodeId a,
                                                         NodeId b) const;

  /// Does this node hold the key (ring membership or path-key endpoint)?
  /// Thread-safe: ring membership goes through ring_contains(), path keys
  /// through the read-only per-node list.
  [[nodiscard]] bool node_holds(NodeId node, KeyIndex index) const;

  /// The node's path keys as (peer, index) pairs, in registration order —
  /// ascending index, all above every pool index.
  [[nodiscard]] std::span<const std::pair<NodeId, KeyIndex>> path_keys_of(
      NodeId node) const;

  /// Every key index the node holds, sorted ascending: its ring followed by
  /// its path keys. This is the sequence the Figure 5 binary search runs
  /// over.
  [[nodiscard]] std::vector<KeyIndex> keys_of(NodeId node) const;

  /// Key material for any index (pool or path key).
  [[nodiscard]] SymmetricKey key_material(KeyIndex index) const;

  /// Cached MAC schedule for any key index (pool or path key). The hot-path
  /// counterpart of key_material(): first use derives the key and its HMAC
  /// pad midstates, every later MAC under the same index skips both. Lazily
  /// mutated; NOT thread-safe (each concurrent trial owns its Network).
  [[nodiscard]] const MacContext& mac_context(KeyIndex index) const;

  /// Cached MAC schedule for a sensor's base-station key — same contract as
  /// mac_context() but keyed by sensor_key(node). Serial call sites only
  /// (base-station verification); the sharded phase drivers build stack
  /// MacContexts from sensor_key() instead, so this cache stays O(queried
  /// sensors), not O(n).
  [[nodiscard]] const MacContext& sensor_mac_context(NodeId node) const;

  /// Derive the MAC contexts for every established path key, so a parallel
  /// section that reads mac_context() on path keys sees only cache hits.
  /// Pool-key contexts are warmed per used edge key by
  /// Network::warm_crypto_caches(), which knows which indices the edges
  /// actually use.
  void warm_path_contexts() const;

 private:
  /// Materialized-ring LRU capacity. Must be >= 2 (edge-key merges hold
  /// two rings at once); 64 keeps every serial cascade loop in cache while
  /// bounding resident ring state to LRU × (r indices + pool/8 bitmap).
  static constexpr std::size_t kRingCacheCapacity = 64;

  struct RingCacheEntry {
    std::uint32_t node{0};
    std::uint64_t last_used{0};
    std::unique_ptr<KeyRing> ring;
  };

  KeyMaterialSpec config_;
  KeyPool pool_;
  std::uint32_t node_count_;
  std::vector<std::uint64_t> ring_seeds_;  // indexed by node id — 8 B/node
  // LRU of materialized rings (linear scan: capacity is tiny and ring()
  // is off the per-frame hot path).
  mutable std::vector<RingCacheEntry> ring_cache_;
  mutable std::uint64_t ring_clock_{0};
  // Holder lists derived on demand, cached per queried pool index; path
  // keys keep their two-element lists here too (written at registration).
  mutable std::unordered_map<KeyIndex, std::vector<NodeId>> holders_cache_;
  std::vector<std::vector<std::pair<NodeId, KeyIndex>>> path_keys_;  // by node
  std::uint32_t next_path_index_;
  // Flat lazy slot tables (no hashing on the hot path): path contexts are
  // indexed by (index - pool_size), sensor contexts by node id. unique_ptr
  // keeps handed-out references stable across register_path_key() growth.
  mutable std::vector<std::unique_ptr<MacContext>> path_contexts_;
  mutable std::unordered_map<std::uint32_t, std::unique_ptr<MacContext>>
      sensor_contexts_;
};

}  // namespace vmat
