// Adversary strategies outside the declarative genome, plus the attack
// building blocks every strategy shares:
//
//   NullStrategy        dormant (passthrough) — the no-attack control.
//   PolicyStrategy      base with the shared predicate-answer policy and
//                       honest tree formation; campaign::PredicatedStrategy
//                       (campaign/strategy.h) derives from it.
//   WormholeStrategy    during tree formation, injects tree frames with
//                       forged hop counts through a wormhole (Figure 2(c));
//                       breaks hop-count trees, is harmless against VMAT's
//                       timestamp trees.
//   RandomByzantineStrategy  seeded random mixture of every attack with
//                       random predicate-test answers — the fuzzing
//                       adversary for the Theorem 7 property tests.
//
// The paper's query-phase attacks — silent and value dropping (IV-B),
// spurious-minimum injection (Figure 1 step 4), choking (IV-C) and the
// Theorem 2 self-veto — are data, not classes: (AttackPolicy,
// AttackPredicate) presets in campaign::named_attacks().
//
// Wormhole, RandomByzantine, Garbage and Composite (attack/composite.h)
// stay classes because they act during tree formation, which the genome
// deliberately leaves out: forked probes (snapshot_after_formation forks,
// the campaign fuzzer) share one honestly formed tree, so an attack that
// shapes the tree cannot be swapped in after the fork.
//
// All strategies take a LiePolicy governing how malicious key holders
// answer keyed predicate tests: deny everything, admit everything, or
// answer randomly.
#pragma once

#include <memory>

#include "attack/adversary.h"
#include "util/random.h"

namespace vmat {

enum class LiePolicy : std::uint8_t {
  kDenyAll,   ///< never answer (stonewall the walk as early as possible)
  kAdmitAll,  ///< always answer yes (drag the walk on, frame if possible)
  kRandom,    ///< coin-flip per test (inconsistent-binary-search trigger)
};

/// Base with the shared predicate-answer policy. By default malicious
/// sensors *participate honestly in tree formation* (the profitable play:
/// attract children first, misbehave later); strategies that attack the
/// tree itself override on_tree_slot.
class PolicyStrategy : public AdversaryStrategy {
 public:
  explicit PolicyStrategy(LiePolicy policy, std::uint64_t seed = 7);

  void on_tree_slot(AdversaryView& view, const TreeCtx& ctx) override;

  [[nodiscard]] bool answer_predicate(AdversaryView& view,
                                      const Predicate& predicate,
                                      NodeId holder) override;

 private:
  LiePolicy policy_;
  Rng rng_;
};

class NullStrategy final : public AdversaryStrategy {
 public:
  [[nodiscard]] bool passthrough() const override { return true; }
};

class WormholeStrategy final : public PolicyStrategy {
 public:
  /// `forged_hop_count` is what the injected tree frames claim; a large
  /// value pushes honest hop-count levels beyond L.
  explicit WormholeStrategy(std::int32_t forged_hop_count,
                            LiePolicy policy = LiePolicy::kDenyAll)
      : PolicyStrategy(policy), forged_hop_count_(forged_hop_count) {}

  void on_tree_slot(AdversaryView& view, const TreeCtx& ctx) override;

 private:
  std::int32_t forged_hop_count_;
};

class RandomByzantineStrategy final : public AdversaryStrategy {
 public:
  explicit RandomByzantineStrategy(std::uint64_t seed);

  void on_tree_slot(AdversaryView& view, const TreeCtx& ctx) override;
  void on_agg_slot(AdversaryView& view, const AggCtx& ctx) override;
  void on_conf_slot(AdversaryView& view, const ConfCtx& ctx) override;
  [[nodiscard]] bool answer_predicate(AdversaryView& view,
                                      const Predicate& predicate,
                                      NodeId holder) override;
  [[nodiscard]] Reading own_reading(NodeId node, Reading honest) override;

 private:
  Rng rng_;
};

// --- shared attack building blocks (also used by tests) ---

/// Forward the per-instance *maximum* (dropping the minimum) from a
/// malicious node at its scheduled slot, to its recorded parents.
void forward_max_instead_of_min(AdversaryView& view, const AggCtx& ctx,
                                NodeId node);

/// Inject one spurious aggregation message (bogus MAC, very small value)
/// from `node` to all of its physical neighbors it shares a usable key
/// with. Claims `origin` as the message source.
void inject_junk_min(AdversaryView& view, const AggCtx& ctx, NodeId node,
                     NodeId claimed_origin);

/// Flood one spurious veto (bogus MAC) from `node` to all reachable
/// neighbors — the choking primitive.
void inject_spurious_veto(AdversaryView& view, const ConfCtx& ctx,
                          NodeId node, NodeId claimed_origin);

/// Send a *valid* veto for `value` from malicious `node` (its own sensor
/// key) to all reachable neighbors.
void inject_valid_self_veto(AdversaryView& view, const ConfCtx& ctx,
                            NodeId node, Reading value);

/// Pick `count` random non-base-station malicious nodes such that the
/// remaining honest subgraph stays connected (the paper's standing
/// assumption). Throws after too many attempts.
[[nodiscard]] std::unordered_set<NodeId> choose_malicious(
    const Topology& topology, std::uint32_t count, std::uint64_t seed);

}  // namespace vmat
