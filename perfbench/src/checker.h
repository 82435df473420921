// Ground-truth checker for MIN executions.
//
// The benchmark generates the readings and knows the malicious set, so it
// can judge every execution against the paper's promise (Theorem 7: the
// right answer or a revocation of adversary key material) instead of
// against the protocol's own bookkeeping. An execution fails when any of
// these hold:
//
//   wrong-result     a result that is not the correct MIN: with no
//                    adversary the exact minimum over the reachable
//                    sensors; under attack anything above the minimum over
//                    the reachable honest sensors (a compromised sensor may
//                    contribute any value of its own, so lower is allowed);
//                    a sensor is reachable when a path of usable (shared,
//                    unrevoked) edge keys through honest, unrevoked sensors
//                    joins it to the base station within the announced
//                    depth bound L — with sparse key rings some sensors
//                    share no key with any neighbor, and no protocol can
//                    hear them;
//   framed-key       a revoked key that no malicious sensor holds
//                    (Theorem 6);
//   base-station     node 0, the trusted base station, revoked.
//
// These are wrong outputs. Workloads that serve queries also count an
// operation that never produced an answer (refused, errored, lost) as
// failed — `unanswered` — which is a failure but not a wrong output.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/coordinator.h"
#include "sim/network.h"

namespace perfbench {

enum class Failure : std::uint8_t {
  kWrongResult,
  kFramedKey,
  kBaseStation,
  kUnanswered,
};
inline constexpr std::size_t kFailureKinds = 4;
[[nodiscard]] const char* to_string(Failure f) noexcept;

/// What one run's checks saw, summed over every checked execution.
struct CheckTally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};  ///< executions with at least one failure
  std::array<std::uint64_t, kFailureKinds> by_kind{};
  std::uint64_t revoked_keys{0};
  std::uint64_t revoked_sensors{0};
  std::uint64_t honest_sensors_revoked{0};  ///< θ collateral, not a failure

  CheckTally& operator+=(const CheckTally& other) noexcept;
  /// Count one more operation with the given failures (empty = passed).
  void count(const std::vector<Failure>& failures);
  /// No operation returned a wrong output (unanswered ones may have failed).
  [[nodiscard]] bool outputs_correct() const noexcept;
};

class MinChecker {
 public:
  /// `net` must outlive the checker; `malicious` empty = clean field;
  /// `depth_bound` is the coordinator's effective L.
  MinChecker(const vmat::Network& net,
             std::unordered_set<vmat::NodeId> malicious,
             vmat::Level depth_bound);

  /// Judge one run_min outcome over the readings it was given. Call after
  /// the execution returned. Returns the failures (empty = correct).
  std::vector<Failure> check(const vmat::ExecutionOutcome& outcome,
                             const std::vector<vmat::Reading>& readings);

  /// The reading a correct result may not exceed: the minimum over the
  /// reachable honest sensors (node 0 excluded).
  [[nodiscard]] vmat::Reading honest_min(
      const std::vector<vmat::Reading>& readings) const;

  [[nodiscard]] const CheckTally& tally() const noexcept { return tally_; }

 private:
  const vmat::Network* net_;
  std::unordered_set<vmat::NodeId> malicious_;
  vmat::Level depth_bound_;
  bool base_station_revoked_{false};
  CheckTally tally_;
};

}  // namespace perfbench
