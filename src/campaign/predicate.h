// AttackPredicate — the composable trigger-condition DSL for adversary
// campaigns.
//
// A predicate is a small boolean expression over the live execution state
// an adversary observes (TriggerState, attack/adversary.h): protocol phase,
// slot index, tree level, frame contents, revocation counters, execution
// round. Leaves test one field; AND/OR/NOT combinators compose them:
//
//   using namespace vmat::campaign;
//   auto fire = AttackPredicate::phase_is(TracePhase::kConfirmation) &&
//               AttackPredicate::slot_at_least(2) &&
//               !AttackPredicate::revoked_keys_at_least(4);
//
// With PredicatedStrategy (campaign/strategy.h) a predicate turns any
// attack policy into *data* — one (policy × predicate) pair describes any
// query-phase attack — which is what makes the strategy space searchable
// and serializable.
//
// evaluate() is PURE: const, no RNG, no mutation, no globals. The
// `predicate-purity` vmat-lint rule enforces this, and the campaign tests
// rely on it (De Morgan equivalence, short-circuit order has no observable
// effect, repeated evaluation is idempotent).
//
// Text form is a LISP-ish s-expression, stable under to_text() → parse():
//
//   expr  := (always) | (never)
//          | (phase NAME)       NAME ∈ none broadcast tree aggregation
//                               confirmation pinpoint
//          | (slot>= N) | (level>= N) | (keys>= N) | (sensors>= N)
//          | (round>= N) | (frames>= N) | (min< N)
//          | (and expr expr) | (or expr expr) | (not expr)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "attack/adversary.h"
#include "util/error.h"

namespace vmat::campaign {

class AttackPredicate {
 public:
  enum class Kind : std::uint8_t {
    kAlways,
    kNever,
    kPhaseIs,                ///< phase == arg
    kSlotAtLeast,            ///< slot >= arg
    kLevelAtLeast,           ///< deepest_level >= arg
    kRevokedKeysAtLeast,     ///< revoked_keys >= arg
    kRevokedSensorsAtLeast,  ///< revoked_sensors >= arg
    kRoundAtLeast,           ///< round >= arg
    kFramesSeenAtLeast,      ///< frames_seen >= arg
    kMinSeenBelow,           ///< min_seen < arg (kInfinity never fires)
    kAnd,
    kOr,
    kNot,
  };

  /// A default predicate fires unconditionally (== always()).
  AttackPredicate() : AttackPredicate(Kind::kAlways, 0) {}

  // --- leaf factories ---

  [[nodiscard]] static AttackPredicate always();
  [[nodiscard]] static AttackPredicate never();
  [[nodiscard]] static AttackPredicate phase_is(TracePhase phase);
  [[nodiscard]] static AttackPredicate slot_at_least(Interval slot);
  [[nodiscard]] static AttackPredicate level_at_least(Level level);
  [[nodiscard]] static AttackPredicate revoked_keys_at_least(std::size_t n);
  [[nodiscard]] static AttackPredicate revoked_sensors_at_least(std::size_t n);
  [[nodiscard]] static AttackPredicate round_at_least(std::uint64_t n);
  [[nodiscard]] static AttackPredicate frames_seen_at_least(std::size_t n);
  [[nodiscard]] static AttackPredicate min_seen_below(Reading value);

  // --- combinators (value semantics; operands are copied in) ---

  friend AttackPredicate operator&&(const AttackPredicate& a,
                                    const AttackPredicate& b) {
    return combine(Kind::kAnd, a, b);
  }
  friend AttackPredicate operator||(const AttackPredicate& a,
                                    const AttackPredicate& b) {
    return combine(Kind::kOr, a, b);
  }
  friend AttackPredicate operator!(const AttackPredicate& a);

  /// Pure evaluation over a trigger-state snapshot: no RNG, no mutation.
  [[nodiscard]] bool evaluate(const TriggerState& state) const;

  /// Expression-tree size (leaves + combinators).
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] Kind root_kind() const noexcept { return nodes_.back().kind; }

  /// Canonical s-expression text (grammar above); parse(to_text()) == *this.
  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] static Expected<AttackPredicate> parse(std::string_view text);

  friend bool operator==(const AttackPredicate&,
                         const AttackPredicate&) = default;

  /// One expression node. The tree is stored flat in evaluation postorder
  /// (children before parents, root last) so predicates copy and compare as
  /// plain vectors. `left`/`right` index into the same vector; leaves use
  /// `arg` only, kNot uses `left` only. Public for the parser; predicates
  /// are only built through the factories/combinators/parse().
  struct Node {
    Kind kind{Kind::kAlways};
    std::int64_t arg{0};
    std::uint32_t left{0};
    std::uint32_t right{0};

    friend bool operator==(const Node&, const Node&) = default;
  };

 private:
  AttackPredicate(Kind kind, std::int64_t arg);
  explicit AttackPredicate(std::vector<Node> nodes)
      : nodes_(std::move(nodes)) {}

  [[nodiscard]] static AttackPredicate combine(Kind kind,
                                               const AttackPredicate& a,
                                               const AttackPredicate& b);
  [[nodiscard]] bool evaluate_node(std::uint32_t index,
                                   const TriggerState& state) const;
  void print_node(std::uint32_t index, std::string& out) const;

  std::vector<Node> nodes_;
};

}  // namespace vmat::campaign
