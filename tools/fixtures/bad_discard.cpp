// Fixture: MAC verification results discarded — a message accepted
// without a checked MAC. [[nodiscard]] on the crypto API (enforced by the
// missing-nodiscard lint rule) makes both calls compile errors under
// -Werror; the vmat_nodiscard_fixture ctest checks exactly that.
#include <cstdint>
#include <span>

#include "crypto/mac.h"

namespace vmat_fixture {

inline void accept(const vmat::MacContext& ctx,
                   std::span<const std::uint8_t> msg, const vmat::Mac& tag) {
  ctx.verify(msg, tag);               // -Werror=unused-result
}

inline void accept_oneshot(const vmat::SymmetricKey& key,
                           std::span<const std::uint8_t> msg,
                           const vmat::Mac& tag) {
  verify_mac(key, msg, tag);          // -Werror=unused-result
}

}  // namespace vmat_fixture
