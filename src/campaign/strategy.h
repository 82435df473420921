// AttackPolicy × AttackPredicate — attack strategies as data.
//
// AttackPolicy is the action genome: WHAT the compromised set does in each
// query phase, drawn from the shared attack building blocks
// (attack/strategies.h). AttackPredicate (campaign/predicate.h) is WHEN it
// does it. PredicatedStrategy glues the two behind the ordinary
// AdversaryStrategy hook interface, so one serializable (policy, predicate,
// seed) triple describes any query-phase attack — which is what the
// campaign fuzzer mutates and the corpus replays.
//
// named_attacks() is the one table of the paper's attacks as
// (policy, predicate) pairs, under vmatsim's --attack names. Build an
// adversary from it with make_named_strategy(), or declaratively via
// SimulationSpec::attack() (spec/attack_spec.h); see DESIGN.md "Campaign
// search & predicates".
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "attack/strategies.h"
#include "campaign/predicate.h"
#include "util/error.h"

namespace vmat::campaign {

/// Aggregation-phase action once the trigger fires. Until it fires (and for
/// kSilentDrop) malicious sensors transmit nothing — the Section IV-B
/// dropping attack is the resting state of every predicated adversary.
enum class AggAction : std::uint8_t {
  kSilentDrop,  ///< never transmit (pure dropping)
  kForwardMax,  ///< forward the collected maximum instead of the minimum
  kInjectJunk,  ///< inject spurious minima with bogus MACs
};

/// Confirmation-phase (SOF) action once the trigger fires.
enum class ConfAction : std::uint8_t {
  kNone,       ///< no confirmation-phase attack
  kChokeVeto,  ///< flood spurious vetoes (Section IV-C choking)
  kSelfVeto,   ///< veto a hidden own reading with a *valid* MAC (Theorem 2)
};

/// The serializable action genome of a predicated adversary.
struct AttackPolicy {
  AggAction agg{AggAction::kSilentDrop};
  ConfAction conf{ConfAction::kNone};
  LiePolicy lie{LiePolicy::kDenyAll};
  /// kInjectJunk claims an honest neighbor as origin (framing) when true.
  bool frame_honest_origin{true};
  /// kSelfVeto: the hidden reading the malicious sensor vetoes.
  Reading self_veto_value{1};

  friend bool operator==(const AttackPolicy&, const AttackPolicy&) = default;
};

/// Compact one-token text form, e.g. "agg:junk,conf:none,lie:deny,frame:1,veto:1".
[[nodiscard]] std::string to_text(const AttackPolicy& policy);
[[nodiscard]] Expected<AttackPolicy> policy_from_text(std::string_view text);

// --- trigger-state builders (the per-phase halves of the evaluation seam;
//     AdversaryView::trigger_state fills the globally visible fields) ---

[[nodiscard]] TriggerState trigger_state(const AdversaryView& view,
                                         const AggCtx& ctx);
[[nodiscard]] TriggerState trigger_state(const AdversaryView& view,
                                         const ConfCtx& ctx);

/// A query-phase attack as data: participates honestly in tree formation
/// (inherited — the profitable play, and the behavior the shared
/// post-formation snapshot assumes), then runs `policy` in every slot whose
/// trigger state satisfies `when`.
class PredicatedStrategy final : public PolicyStrategy {
 public:
  explicit PredicatedStrategy(AttackPolicy policy,
                              AttackPredicate when = AttackPredicate::always(),
                              std::uint64_t seed = 7);

  void on_agg_slot(AdversaryView& view, const AggCtx& ctx) override;
  void on_conf_slot(AdversaryView& view, const ConfCtx& ctx) override;

  [[nodiscard]] const AttackPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] const AttackPredicate& when() const noexcept { return when_; }

 private:
  AttackPolicy policy_;
  AttackPredicate when_;
};

/// The first-slot trigger, slot_at_least(1) && !slot_at_least(2): the
/// injection and choking attacks strike once, in the phase's first slot,
/// so they race every honest message.
[[nodiscard]] AttackPredicate first_slot();

/// One of the paper's attacks as data.
struct NamedAttack {
  std::string_view name;  ///< vmatsim's --attack name
  AttackPolicy policy;
  AttackPredicate when;
};

/// The paper's attacks:
///   silent    transmit nothing, dropping every value routed through the
///             compromised set (Section IV-B);
///   drop      forward the collected maximum instead of the minimum — the
///             stealthy dropping attack (Section IV-B);
///   junk      inject spurious minima framing an honest neighbor in
///             aggregation slot 1 (Figure 1 step 4);
///   choke     flood spurious vetoes in SOF slot 1 (Section IV-C);
///   selfveto  veto the hidden reading 1 with a valid MAC in SOF slot 1
///             (Theorem 2's legitimate veto from a malicious sensor).
/// Every entry denies all keyed predicate tests except drop, which answers
/// them at random.
[[nodiscard]] std::span<const NamedAttack> named_attacks();

/// The entry called `name`, or nullptr.
[[nodiscard]] const NamedAttack* find_attack(std::string_view name);

/// A PredicatedStrategy running the named attack with predicate-test
/// answers `lie`. Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<PredicatedStrategy> make_named_strategy(
    std::string_view name, LiePolicy lie);

}  // namespace vmat::campaign
