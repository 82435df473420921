// Authenticated broadcast from the base station (μTESLA-style, per Ning et
// al. [20]), over a two-level hash chain in the style of multi-level μTESLA
// (Liu & Ning).
//
// Levels. A top chain T of up to 257 elements commits the anchors of up to
// 256 lower chains L_j of 257 elements each; every sensor is pre-loaded
// with the top anchor T_0. Global broadcast number e >= 1 lies in segment
// j = (e-1)/256 at lower position i = (e-1)%256 + 1, so one broadcaster
// signs at most 256 × 256 = 65,536 broadcasts (kMaxBroadcasts). The
// constructor hashes only the top chain; lower chain j is built from a
// seed derived from (seed, j) on the first sign() in segment j, and only
// the current segment's chain is kept.
//
// Frames. Each broadcast releases T_{j+1}, the lower anchor L_{j,0}, a
// commitment MAC over (j, L_{j,0}) keyed from T_{j+1}, the lower element
// L_{j,i}, and the payload MAC keyed from L_{j,i}. A receiver that already
// verified segment j hashes L_{j,i} forward to its last verified lower
// element; on a newer segment it first hashes T_{j+1} forward to its last
// verified top element, checks the commitment, then hashes L_{j,i} down to
// L_{j,0}. A receiver that missed whole segments, or was rewound by a
// snapshot restore, therefore still verifies.
//
// Bounded verify. Epoch, segment and position are range-checked before any
// hashing, so one verify costs at most 256 hashes per level however far a
// forged epoch points.
//
// Metering (DESIGN.md): only payload bytes are metered; chain elements,
// MACs and commitments are authenticator overhead and are not.
//
// Simulation note (DESIGN.md): real μTESLA discloses the epoch key one
// interval *after* the MAC'd message to prevent in-epoch forgery; our
// simulator delivers a broadcast atomically, so disclosing key and message
// together is equivalent in-model. The choke-resistance of this primitive
// is an assumption the paper inherits from [20]; the channel below delivers
// to every honest connected node and costs one flooding round.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/hash_chain.h"
#include "crypto/mac.h"
#include "trace/trace.h"
#include "util/bytes.h"

namespace vmat {

/// Broadcasts per lower chain (one segment).
inline constexpr std::uint64_t kSegmentLength = 256;
/// Lower chains the top chain commits.
inline constexpr std::uint64_t kMaxSegments = 256;
/// Broadcast capacity of one broadcaster.
inline constexpr std::uint64_t kMaxBroadcasts = kSegmentLength * kMaxSegments;

/// A signed broadcast frame.
struct SignedBroadcast {
  std::uint64_t epoch{0};    ///< global broadcast number e >= 1
  std::uint64_t segment{0};  ///< j = (e-1) / kSegmentLength
  Digest top_element{};      ///< T_{j+1}
  Digest lower_anchor{};     ///< L_{j,0}
  Mac commitment;            ///< segment_commitment(T_{j+1}, j, L_{j,0})
  Digest chain_element{};    ///< L_{j,i}
  Mac mac;                   ///< payload MAC under broadcast_key(L_{j,i})
  Bytes payload;
};

/// Base-station side: signs successive broadcasts.
class AuthBroadcaster {
 public:
  /// Throws std::invalid_argument unless 0 < max_broadcasts <=
  /// kMaxBroadcasts.
  AuthBroadcaster(std::uint64_t seed, std::size_t max_broadcasts);

  /// The top anchor T_0 every receiver is pre-loaded with.
  [[nodiscard]] const Digest& anchor() const { return top_.anchor(); }

  /// Sign the next broadcast. Throws if the capacity is exhausted.
  [[nodiscard]] SignedBroadcast sign(Bytes payload, Tracer tracer = {});

  [[nodiscard]] std::uint64_t next_epoch() const noexcept { return next_epoch_; }

  /// Reposition the cursor (snapshot restore). The cursor is the whole
  /// state: the cached lower chain is a pure function of (seed, segment)
  /// and is rebuilt when the cursor lands in another segment.
  void restore_next_epoch(std::uint64_t next_epoch) noexcept {
    next_epoch_ = next_epoch;
  }

 private:
  /// Lower chain `index` and its commitment.
  struct Segment {
    std::uint64_t index;
    HashChain chain;
    Mac commitment;
  };

  /// The lower chain of segment j, building it if the cache holds another.
  const Segment& segment(std::uint64_t j);

  std::uint64_t seed_;
  std::uint64_t capacity_;
  HashChain top_;
  std::optional<Segment> segment_;
  std::uint64_t next_epoch_{1};  // epoch 0 is the anchor itself
};

/// Sensor side: verifies successive broadcasts against the top anchor. A
/// plain value (the verification cursor is its whole state), so a snapshot
/// copies it as is.
class AuthReceiver {
 public:
  explicit AuthReceiver(const Digest& anchor);

  /// True iff the epoch is in range and strictly newer, the chain elements
  /// (and, on a newer segment, the commitment) verify against the last
  /// verified ones, and the payload MAC checks out.
  [[nodiscard]] bool verify(const SignedBroadcast& b) const;
  /// Move the cursor to `b`, which verify() accepted.
  void advance(const SignedBroadcast& b) noexcept;
  /// verify(), then advance() on success.
  [[nodiscard]] bool accept(const SignedBroadcast& b);

 private:
  Digest top_;                  // T_{top_pos_}, last verified top element
  Digest lower_{};              // L_{top_pos_-1, lower_pos_}
  std::uint64_t top_pos_{0};    // 0: no segment verified yet
  std::uint64_t lower_pos_{0};
};

/// Derives the broadcast MAC key for a lower chain element.
[[nodiscard]] SymmetricKey broadcast_key(const Digest& chain_element) noexcept;

/// The commitment binding lower anchor L_{j,0} to segment j, keyed from
/// top element T_{j+1}.
[[nodiscard]] Mac segment_commitment(const Digest& top_element,
                                     std::uint64_t segment,
                                     const Digest& lower_anchor) noexcept;

}  // namespace vmat
