// COUNT/SUM → MIN conversion via verifiable exponential synopses
// (Section VIII, after Mosk-Aoyama & Shah [17]).
//
// A sensor x with reading (weight) v > 0 derives, for each of m parallel
// instances, a_{i,x} ~ Exp(mean 1/v) from a *public* PRG seeded with
// (query nonce ‖ x ‖ i ‖ v). min_x a_{i,x} is computed by m parallel MIN
// queries; with a^min = (Σ_i a_i^min)/m the sum estimate is 1/a^min, an
// (ε,δ)-approximation for m = Θ(ε⁻² log δ⁻¹).
//
// Verifiability: since the PRG seed is public, the base station recomputes
// any claimed synopsis from (origin, instance, weight) and rejects
// mismatches, so a malicious sensor can only submit synopses corresponding
// to *some* reading of its own — exactly the paper's anti-fabrication
// argument. Synopses travel as fixed-point Readings so the MIN machinery,
// audit trails, and pinpointing apply unchanged.
//
// PRG layout: instances are generated in blocks of four. One HMAC-SHA-256
// digest over (nonce ‖ origin ‖ instance/4 ‖ weight) — under the key
// schedule precomputed once per codec — yields four u64 lanes, each mapped
// to a uniform (0,1) draw for instances 4b .. 4b+3. This is still a public
// deterministic function of (nonce, origin, instance, weight), so the
// verifiability argument is unchanged; it just costs ~0.5 SHA-256
// compressions per instance instead of 4 for the one-shot per-instance
// HMAC. Dense per-participant grids should use fill_values(), which walks
// the blocks directly.
#pragma once

#include <cstdint>
#include <span>

#include "core/messages.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "util/ids.h"

namespace vmat {

class SynopsisCodec {
 public:
  /// Fixed-point scale: values in (0, ~2^23) map losslessly enough into
  /// int64 (synopses are at most ~-ln(2^-53)·1 ≈ 36.7 for weight 1).
  static constexpr double kScale = 1099511627776.0;  // 2^40

  /// Instances generated per PRG digest (one 32-byte digest = 4 u64 lanes).
  static constexpr std::uint32_t kLanes = 4;

  explicit SynopsisCodec(std::uint64_t nonce) noexcept;

  [[nodiscard]] std::uint64_t nonce() const noexcept { return nonce_; }

  /// The synopsis a sensor with this weight must produce for an instance.
  [[nodiscard]] Reading value_for(NodeId origin, std::uint32_t instance,
                                  std::int64_t weight) const noexcept;

  /// The full per-participant instance row: out[i] = value_for(origin, i,
  /// weight) for i in [0, out.size()), at one PRG digest per kLanes
  /// instances. This is the hot path of the query codec's grid fill.
  void fill_values(NodeId origin, std::int64_t weight,
                   std::span<Reading> out) const noexcept;

  /// Base-station check: does the message carry exactly the synopsis its
  /// claimed (origin, instance, weight) dictates, with weight > 0?
  [[nodiscard]] bool consistent(const AggMessage& m) const noexcept;

  [[nodiscard]] static Reading encode_value(double a) noexcept;
  [[nodiscard]] static double decode_value(Reading v) noexcept;

 private:
  /// The PRG digest covering instances [block*kLanes, block*kLanes+kLanes).
  [[nodiscard]] Digest block_digest(NodeId origin, std::uint32_t block,
                                    std::int64_t weight) const noexcept;

  std::uint64_t nonce_;
  SymmetricKey prg_key_;   // publicly derivable from the nonce
  HmacKeyState prg_state_;  // key schedule for prg_key_, computed once
};

/// 1 / ((Σ decoded minima)/m); 0 when any instance saw no synopsis (which
/// means no sensor carried positive weight).
[[nodiscard]] double estimate_sum(std::span<const Reading> minima) noexcept;

/// m = ceil(2 ε⁻² ln(2/δ)): enough instances for an (ε,δ)-approximation.
[[nodiscard]] std::uint32_t instances_for(double epsilon, double delta);

}  // namespace vmat
