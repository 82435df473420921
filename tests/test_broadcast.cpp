// Authenticated broadcast tests: chain-element authentication, replay and
// forgery rejection, epoch monotonicity, and the two-level chain's segment
// boundaries, commitments, capacity and bounded verify.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "broadcast/auth_broadcast.h"

namespace vmat {
namespace {

TEST(AuthBroadcast, SignedBroadcastAccepted) {
  AuthBroadcaster bs(1, 10);
  AuthReceiver rx(bs.anchor());
  const auto b = bs.sign({1, 2, 3});
  EXPECT_TRUE(rx.accept(b));
}

TEST(AuthBroadcast, SequenceAccepted) {
  AuthBroadcaster bs(2, 10);
  AuthReceiver rx(bs.anchor());
  for (int i = 0; i < 10; ++i) {
    const auto b = bs.sign({static_cast<std::uint8_t>(i)});
    EXPECT_TRUE(rx.accept(b)) << "epoch " << i;
  }
  EXPECT_THROW((void)bs.sign({0}), std::runtime_error);  // chain exhausted
}

TEST(AuthBroadcast, SkippedEpochsStillVerify) {
  AuthBroadcaster bs(3, 10);
  AuthReceiver rx(bs.anchor());
  (void)bs.sign({1});  // lost broadcast
  const auto b2 = bs.sign({2});
  EXPECT_TRUE(rx.accept(b2));  // verifies across the gap
}

TEST(AuthBroadcast, ReplayRejected) {
  AuthBroadcaster bs(4, 10);
  AuthReceiver rx(bs.anchor());
  const auto b = bs.sign({1});
  EXPECT_TRUE(rx.accept(b));
  EXPECT_FALSE(rx.accept(b));  // same epoch again
}

TEST(AuthBroadcast, TamperedPayloadRejected) {
  AuthBroadcaster bs(5, 10);
  AuthReceiver rx(bs.anchor());
  auto b = bs.sign({1, 2, 3});
  b.payload[0] ^= 1;
  EXPECT_FALSE(rx.accept(b));
}

TEST(AuthBroadcast, ForgedChainElementRejected) {
  AuthBroadcaster bs(6, 10);
  AuthReceiver rx(bs.anchor());
  auto b = bs.sign({1});
  b.chain_element[3] ^= 0x40;
  // Re-MAC with the forged element so only the chain check can catch it.
  b.mac = compute_mac(broadcast_key(b.chain_element), b.payload);
  EXPECT_FALSE(rx.accept(b));
}

TEST(AuthBroadcast, WrongAnchorRejectsEverything) {
  AuthBroadcaster bs(7, 10);
  AuthBroadcaster other(8, 10);
  AuthReceiver rx(other.anchor());
  EXPECT_FALSE(rx.accept(bs.sign({1})));
}

TEST(AuthBroadcast, OldEpochAfterNewerRejected) {
  AuthBroadcaster bs(9, 10);
  AuthReceiver rx(bs.anchor());
  const auto b1 = bs.sign({1});
  const auto b2 = bs.sign({2});
  EXPECT_TRUE(rx.accept(b2));
  EXPECT_FALSE(rx.accept(b1));  // stale
}

/// Broadcasts needed to reach the first epoch of `segment`.
constexpr std::uint64_t first_epoch_of(std::uint64_t segment) {
  return segment * kSegmentLength + 1;
}

TEST(AuthBroadcast, SequenceCrossesSegmentBoundaries) {
  AuthBroadcaster bs(10, 3 * kSegmentLength + 5);
  AuthReceiver rx(bs.anchor());
  for (std::uint64_t e = 1; e <= 3 * kSegmentLength + 5; ++e) {
    const auto b = bs.sign({static_cast<std::uint8_t>(e)});
    ASSERT_EQ(b.epoch, e);
    ASSERT_EQ(b.segment, (e - 1) / kSegmentLength);
    ASSERT_TRUE(rx.accept(b)) << "epoch " << e;
  }
  EXPECT_THROW((void)bs.sign({0}), std::runtime_error);
}

TEST(AuthBroadcast, ReceiverThatSkippedASegmentAcceptsTheNext) {
  AuthBroadcaster bs(11, 4 * kSegmentLength);
  AuthReceiver rx(bs.anchor());
  ASSERT_TRUE(rx.accept(bs.sign({1})));
  // The rest of segment 0 and all of segment 1 are lost.
  while (bs.next_epoch() < first_epoch_of(2) + 7) (void)bs.sign({0});
  const auto b = bs.sign({2});
  ASSERT_EQ(b.segment, 2u);
  EXPECT_TRUE(rx.accept(b));
  EXPECT_TRUE(rx.accept(bs.sign({3})));
}

TEST(AuthBroadcast, CopyBeforeBoundaryAcceptsPostBoundary) {
  AuthBroadcaster bs(12, 2 * kSegmentLength);
  AuthReceiver rx(bs.anchor());
  while (bs.next_epoch() <= kSegmentLength - 50)
    ASSERT_TRUE(rx.accept(bs.sign({0})));
  const AuthReceiver rewound = rx;  // a snapshot's copy
  while (bs.next_epoch() <= kSegmentLength + 40)
    ASSERT_TRUE(rx.accept(bs.sign({0})));
  const auto b = bs.sign({1});
  ASSERT_EQ(b.segment, 1u);
  AuthReceiver restored = rewound;
  EXPECT_TRUE(restored.accept(b));
  EXPECT_TRUE(rx.accept(b));
}

TEST(AuthBroadcast, SwappedLowerAnchorRejected) {
  AuthBroadcaster bs(13, 2 * kSegmentLength);
  AuthBroadcaster other(14, 2 * kSegmentLength);
  AuthReceiver rx(bs.anchor());
  ASSERT_TRUE(rx.accept(bs.sign({1})));
  while (bs.next_epoch() < first_epoch_of(1)) (void)bs.sign({0});
  while (other.next_epoch() < first_epoch_of(1)) (void)other.sign({0});
  auto b = bs.sign({2});
  const auto foreign = other.sign({2});
  // A lower chain the top chain never committed, consistent in itself and
  // with a re-MAC'd payload: only the commitment can catch it.
  b.lower_anchor = foreign.lower_anchor;
  b.chain_element = foreign.chain_element;
  b.mac = compute_mac(broadcast_key(b.chain_element), b.payload);
  EXPECT_FALSE(rx.accept(b));
}

TEST(AuthBroadcast, ForgedTopElementRejected) {
  AuthBroadcaster bs(15, 2 * kSegmentLength);
  AuthReceiver rx(bs.anchor());
  ASSERT_TRUE(rx.accept(bs.sign({1})));
  while (bs.next_epoch() < first_epoch_of(1)) (void)bs.sign({0});
  auto b = bs.sign({2});
  b.top_element[7] ^= 0x01;
  // Re-commit under the forged top element so only the top chain check
  // can catch it.
  b.commitment = segment_commitment(b.top_element, b.segment, b.lower_anchor);
  EXPECT_FALSE(rx.accept(b));
}

TEST(AuthBroadcast, OlderSegmentAfterNewerRejected) {
  AuthBroadcaster bs(16, 2 * kSegmentLength);
  AuthReceiver rx(bs.anchor());
  const auto old = bs.sign({1});
  while (bs.next_epoch() < first_epoch_of(1)) (void)bs.sign({0});
  const auto newer = bs.sign({2});
  ASSERT_TRUE(rx.accept(newer));
  EXPECT_FALSE(rx.accept(old));
}

TEST(AuthBroadcast, CapacityIsExactly65536) {
  ASSERT_EQ(kMaxBroadcasts, 65536u);
  EXPECT_THROW(AuthBroadcaster(1, 0), std::invalid_argument);
  EXPECT_THROW(AuthBroadcaster(1, kMaxBroadcasts + 1), std::invalid_argument);
  AuthBroadcaster bs(17, kMaxBroadcasts);
  AuthReceiver rx(bs.anchor());
  SignedBroadcast last;
  for (std::uint64_t e = 1; e <= kMaxBroadcasts; ++e) last = bs.sign({1});
  EXPECT_EQ(last.epoch, kMaxBroadcasts);
  EXPECT_EQ(last.segment, kMaxSegments - 1);
  EXPECT_TRUE(rx.accept(last));  // a fresh receiver reaches the last one
  EXPECT_THROW((void)bs.sign({0}), std::runtime_error);  // the 65,537th
}

TEST(AuthBroadcast, ForgedEpochBeyondCapacityRejectedAtOnce) {
  AuthBroadcaster bs(18, 10);
  AuthReceiver rx(bs.anchor());
  auto b = bs.sign({1});
  // Unbounded forward hashing would pin the thread here for good.
  b.epoch = std::numeric_limits<std::uint64_t>::max();
  b.segment = (b.epoch - 1) / kSegmentLength;
  EXPECT_FALSE(rx.accept(b));
  b.epoch = kMaxBroadcasts + 1;
  b.segment = kMaxSegments;
  EXPECT_FALSE(rx.accept(b));
  // A segment that does not match the epoch is outside the chain too.
  b.epoch = 1;
  b.segment = 1;
  EXPECT_FALSE(rx.accept(b));
  b.segment = 0;
  EXPECT_TRUE(rx.accept(b));  // the untouched frame still verifies
}

}  // namespace
}  // namespace vmat
