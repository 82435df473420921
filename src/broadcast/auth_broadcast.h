// Authenticated broadcast from the base station (μTESLA-style, per Ning et
// al. [20]).
//
// The base station owns a one-way hash chain committed by its anchor, which
// every sensor is pre-loaded with. Broadcast number e releases chain element
// e and MACs the payload with a key derived from that element; receivers
// verify the element by hashing forward to their last verified element and
// then check the MAC, so a forged or replayed broadcast is rejected.
//
// Simulation note (DESIGN.md): real μTESLA discloses the epoch key one
// interval *after* the MAC'd message to prevent in-epoch forgery; our
// simulator delivers a broadcast atomically, so disclosing key and message
// together is equivalent in-model. The choke-resistance of this primitive
// is an assumption the paper inherits from [20]; the channel below delivers
// to every honest connected node and costs one flooding round.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/hash_chain.h"
#include "crypto/mac.h"
#include "trace/trace.h"
#include "util/bytes.h"

namespace vmat {

/// A signed broadcast frame.
struct SignedBroadcast {
  std::uint64_t epoch{0};
  Digest chain_element{};
  Mac mac;
  Bytes payload;
};

/// Base-station side: signs successive broadcasts.
class AuthBroadcaster {
 public:
  AuthBroadcaster(std::uint64_t seed, std::size_t max_broadcasts);

  [[nodiscard]] const Digest& anchor() const { return chain_.anchor(); }

  /// Sign the next broadcast. Throws if the chain is exhausted.
  [[nodiscard]] SignedBroadcast sign(Bytes payload, Tracer tracer = {});

  [[nodiscard]] std::uint64_t next_epoch() const noexcept { return next_epoch_; }

  /// Reposition the chain cursor (snapshot restore). The chain itself is
  /// immutable precomputed material, so the cursor is the whole state.
  void restore_next_epoch(std::uint64_t next_epoch) noexcept {
    next_epoch_ = next_epoch;
  }

 private:
  HashChain chain_;
  std::uint64_t next_epoch_{1};  // epoch 0 is the anchor itself
};

/// Sensor side: verifies successive broadcasts against the anchor. A plain
/// value (the verification cursor is its whole state), so a snapshot
/// copies it as is.
class AuthReceiver {
 public:
  explicit AuthReceiver(const Digest& anchor);

  /// True iff the chain element verifies against the last verified
  /// element, the epoch is strictly newer, and the MAC checks out.
  [[nodiscard]] bool verify(const SignedBroadcast& b) const;
  /// Move the cursor to `b`, which verify() accepted.
  void advance(const SignedBroadcast& b) noexcept;
  /// verify(), then advance() on success.
  [[nodiscard]] bool accept(const SignedBroadcast& b);

 private:
  Digest last_verified_;
  std::uint64_t last_epoch_{0};
};

/// Derives the broadcast MAC key for a chain element.
[[nodiscard]] SymmetricKey broadcast_key(const Digest& chain_element) noexcept;

}  // namespace vmat
