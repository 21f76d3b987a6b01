#include "sim/miner_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

namespace neatbound::sim {
namespace {

using protocol::Block;
using protocol::BlockIndex;
using protocol::BlockStore;
using protocol::kGenesisIndex;

BlockIndex append(BlockStore& store, BlockIndex parent,
                  protocol::HashValue hash) {
  Block b;
  b.hash = hash;
  b.parent_hash = store.block(parent).hash;
  b.round = store.block(parent).round + 1;
  return store.add(std::move(b));
}

TEST(MinerView, StartsAtGenesis) {
  const MinerView view;
  EXPECT_EQ(view.tip(), kGenesisIndex);
  EXPECT_TRUE(view.knows(kGenesisIndex));
}

TEST(MinerView, AdoptsLongerChain) {
  BlockStore store;
  MinerView view;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  const AdoptionEvent e = view.deliver(a, store);
  EXPECT_TRUE(e.adopted);
  EXPECT_EQ(e.reorg_depth, 0u);  // pure extension
  EXPECT_EQ(view.tip(), a);
}

TEST(MinerView, FirstReceivedTieBreak) {
  BlockStore store;
  MinerView view;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  const BlockIndex b = append(store, kGenesisIndex, 2);  // same height
  view.deliver(a, store);
  const AdoptionEvent e = view.deliver(b, store);
  EXPECT_FALSE(e.adopted);
  EXPECT_EQ(view.tip(), a);  // keeps first received
  EXPECT_TRUE(view.knows(b));
}

TEST(MinerView, ReorgDepthMeasuresAbandonedBlocks) {
  BlockStore store;
  MinerView view;
  // Own chain: g → a1 → a2.
  const BlockIndex a1 = append(store, kGenesisIndex, 1);
  const BlockIndex a2 = append(store, a1, 2);
  view.deliver(a1, store);
  view.deliver(a2, store);
  // Competing chain g → b1 → b2 → b3 (longer).
  const BlockIndex b1 = append(store, kGenesisIndex, 11);
  const BlockIndex b2 = append(store, b1, 12);
  const BlockIndex b3 = append(store, b2, 13);
  view.deliver(b1, store);
  view.deliver(b2, store);
  const AdoptionEvent e = view.deliver(b3, store);
  EXPECT_TRUE(e.adopted);
  EXPECT_EQ(e.reorg_depth, 2u);  // abandoned a1, a2
  EXPECT_EQ(view.tip(), b3);
}

TEST(MinerView, OrphanBufferedUntilParentArrives) {
  BlockStore store;
  MinerView view;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  const BlockIndex b = append(store, a, 2);
  // Child delivered first: must not be adopted yet.
  AdoptionEvent e = view.deliver(b, store);
  EXPECT_FALSE(e.adopted);
  EXPECT_FALSE(view.knows(b));
  EXPECT_EQ(view.tip(), kGenesisIndex);
  // Parent arrives: both activate, tip jumps to the grandchild.
  e = view.deliver(a, store);
  EXPECT_TRUE(e.adopted);
  EXPECT_EQ(view.tip(), b);
  EXPECT_TRUE(view.knows(a));
  EXPECT_TRUE(view.knows(b));
}

TEST(MinerView, DeepOrphanChainActivatesInOneShot) {
  BlockStore store;
  MinerView view;
  std::vector<BlockIndex> chain;
  BlockIndex parent = kGenesisIndex;
  for (protocol::HashValue h = 1; h <= 6; ++h) {
    parent = append(store, parent, h);
    chain.push_back(parent);
  }
  // Deliver in reverse order: everything buffers until the first block.
  for (std::size_t i = chain.size(); i-- > 1;) {
    view.deliver(chain[i], store);
    EXPECT_EQ(view.tip(), kGenesisIndex);
  }
  view.deliver(chain[0], store);
  EXPECT_EQ(view.tip(), chain.back());
}

TEST(MinerView, DuplicateDeliveryIgnored) {
  BlockStore store;
  MinerView view;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  EXPECT_TRUE(view.deliver(a, store).adopted);
  const AdoptionEvent again = view.deliver(a, store);
  EXPECT_FALSE(again.adopted);
  EXPECT_EQ(view.tip(), a);
}

// Duplicate delivery of a *still-buffered* orphan passes the knows()
// check, so buffer_orphan must not enter it twice: the sibling waiting
// beside it must still wake, exactly once.  The adversary can trigger
// this by re-sending a withheld child while its parent is still unknown.
TEST(MinerView, DuplicateBufferedOrphanKeepsWaitingSibling) {
  BlockStore store;
  MinerView view;
  const BlockIndex p = append(store, kGenesisIndex, 1);
  const BlockIndex s = append(store, p, 2);
  const BlockIndex b = append(store, p, 3);
  view.deliver(s, store);  // buffers: p -> [s]
  view.deliver(b, store);  // buffers: p -> [s, b]
  view.deliver(b, store);  // duplicate of the latest arrival: a no-op
  view.deliver(p, store);  // parent arrives: both children activate
  EXPECT_TRUE(view.knows(p));
  EXPECT_TRUE(view.knows(b));
  EXPECT_TRUE(view.knows(s));
}

TEST(MinerView, DuplicateBufferedOrphanAtListTailIsNoOp) {
  BlockStore store;
  MinerView view;
  const BlockIndex p = append(store, kGenesisIndex, 1);
  const BlockIndex s = append(store, p, 2);
  const BlockIndex b = append(store, p, 3);
  view.deliver(s, store);  // buffers: p -> [s]
  view.deliver(b, store);  // buffers: p -> [s, b]
  view.deliver(s, store);  // duplicate of the first arrival: a no-op
  view.deliver(p, store);
  EXPECT_TRUE(view.knows(b));
  EXPECT_TRUE(view.knows(s));
  // Orphans buffered again after activation behave normally.
  const BlockIndex c = append(store, b, 4);
  const BlockIndex d = append(store, c, 5);
  view.deliver(d, store);
  EXPECT_FALSE(view.knows(d));
  view.deliver(c, store);
  EXPECT_TRUE(view.knows(c));
  EXPECT_TRUE(view.knows(d));
}

TEST(MinerView, ShorterChainNeverAdopted) {
  BlockStore store;
  MinerView view;
  const BlockIndex a1 = append(store, kGenesisIndex, 1);
  const BlockIndex a2 = append(store, a1, 2);
  view.deliver(a1, store);
  view.deliver(a2, store);
  const BlockIndex b1 = append(store, kGenesisIndex, 11);
  EXPECT_FALSE(view.deliver(b1, store).adopted);
  EXPECT_EQ(view.tip(), a2);
}

// --- the compact orphan buffer ------------------------------------------

// Siblings waiting on one parent wake in arrival order, so with equal
// heights the first to arrive becomes the tip (first-received rule) —
// even when it has the larger block index, and even when orphans of
// another parent arrived in between (which forces the buffer to re-sort).
TEST(MinerViewOrphans, ChildrenWakeInArrivalOrder) {
  BlockStore store;
  const BlockIndex q = append(store, kGenesisIndex, 1);
  const BlockIndex p = append(store, q, 2);
  const BlockIndex early = append(store, p, 3);  // lower index
  const BlockIndex late = append(store, p, 4);
  const BlockIndex q_child = append(store, q, 5);
  for (const bool late_first : {true, false}) {
    SCOPED_TRACE(late_first ? "late index first" : "early index first");
    MinerView view;
    view.deliver(late_first ? late : early, store);
    view.deliver(q_child, store);  // parent q sorts below p
    view.deliver(late_first ? early : late, store);
    EXPECT_EQ(view.orphan_count(), 3u);
    view.deliver(q, store);  // wakes q_child only
    EXPECT_EQ(view.tip(), q_child);
    EXPECT_EQ(view.orphan_count(), 2u);
    view.deliver(p, store);  // both siblings wake; the first arrival wins
    EXPECT_EQ(view.tip(), late_first ? late : early);
    EXPECT_EQ(view.orphan_count(), 0u);
  }
}

TEST(MinerViewOrphans, RedeliveringABufferedOrphanIsANoOp) {
  BlockStore store;
  const BlockIndex p = append(store, kGenesisIndex, 1);
  const BlockIndex c = append(store, p, 2);
  MinerView view;
  EXPECT_FALSE(view.deliver(c, store).adopted);
  const MinerView once = view;
  EXPECT_FALSE(view.deliver(c, store).adopted);
  EXPECT_EQ(view.orphan_count(), 1u);
  EXPECT_TRUE(view.has_seen(c));
  EXPECT_FALSE(view.knows(c));
  EXPECT_TRUE(view == once);
  EXPECT_TRUE(view.deliver(p, store).adopted);
  EXPECT_EQ(view.tip(), c);
  EXPECT_EQ(view.orphan_count(), 0u);
}

// Child-first delivery of a whole chain buffers every block but the root,
// then activates the chain in one cascade.  Each activation is one binary
// search and holes are compacted in bulk, so the cascade costs O(k log k)
// — a linear scan per activation would cost O(k²).  The child-first run
// is timed against in-order delivery of the same chain in the same build,
// so the bound holds under sanitizers too: at k = 2^16 a quadratic buffer
// is hundreds of times slower, a linear one a few times.
TEST(MinerViewOrphans, ChildFirstChainActivationStaysLinear) {
  constexpr BlockIndex kLength = BlockIndex{1} << 16;
  BlockStore store;
  std::vector<BlockIndex> chain;
  chain.reserve(kLength);
  BlockIndex parent = kGenesisIndex;
  for (BlockIndex i = 0; i < kLength; ++i) {
    parent = append(store, parent, 1000 + i);
    chain.push_back(parent);
  }
  using Clock = std::chrono::steady_clock;
  const auto best_of_three = [&](bool child_first) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      MinerView view;
      const Clock::time_point start = Clock::now();
      if (child_first) {
        for (std::size_t i = chain.size(); i-- > 1;) {
          view.deliver(chain[i], store);
        }
        EXPECT_EQ(view.orphan_count(), kLength - 1);
        view.deliver(chain[0], store);
      } else {
        for (const BlockIndex b : chain) view.deliver(b, store);
      }
      best = std::min(
          best, std::chrono::duration<double>(Clock::now() - start).count());
      EXPECT_EQ(view.tip(), chain.back());
      EXPECT_EQ(view.orphan_count(), 0u);
    }
    return best;
  };
  const double in_order = best_of_three(false);
  const double child_first = best_of_three(true);
  EXPECT_LT(child_first, 50 * in_order + 0.05)
      << "child-first " << child_first << " s vs in-order " << in_order
      << " s";
}

TEST(MinerViewOrphans, CopiedViewEvolvesIndependently) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  const BlockIndex w = append(store, a, 2);
  const BlockIndex orphan = append(store, w, 3);
  const BlockIndex rival1 = append(store, kGenesisIndex, 4);
  const BlockIndex rival2 = append(store, rival1, 5);
  MinerView source;
  source.deliver(a, store);
  source.deliver(orphan, store);
  MinerView copy = source;
  EXPECT_TRUE(copy == source);

  copy.deliver(w, store);  // wakes the orphan in the copy only
  EXPECT_EQ(copy.tip(), orphan);
  EXPECT_EQ(copy.orphan_count(), 0u);
  EXPECT_EQ(source.tip(), a);
  EXPECT_FALSE(source.knows(w));
  EXPECT_EQ(source.orphan_count(), 1u);

  source.deliver(rival2, store);  // buffered in the source only
  source.deliver(rival1, store);
  EXPECT_EQ(source.tip(), rival2);
  EXPECT_FALSE(copy.knows(rival1));
  EXPECT_FALSE(copy.has_seen(rival2));
  EXPECT_FALSE(copy == source);
}

// Views compare by state, not history: the same known set, tip and
// per-parent orphan lists compare equal whatever the delivery order, but
// siblings buffered in a different order do not — they would wake in a
// different order.
TEST(MinerViewOrphans, SameStateThroughDifferentOrdersComparesEqual) {
  BlockStore store;
  const BlockIndex x = append(store, kGenesisIndex, 1);
  const BlockIndex y = append(store, x, 2);
  const BlockIndex w1 = append(store, y, 3);
  const BlockIndex w2 = append(store, kGenesisIndex, 4);
  const BlockIndex u = append(store, w1, 5);  // waits for w1
  const BlockIndex v = append(store, w2, 6);  // waits for w2

  MinerView a;
  for (const BlockIndex b : {y, x, u, v}) a.deliver(b, store);
  MinerView b;
  for (const BlockIndex blk : {v, x, u, y}) b.deliver(blk, store);
  EXPECT_EQ(a.tip(), y);
  EXPECT_EQ(a.known_hash(), b.known_hash());
  EXPECT_TRUE(a == b);

  const BlockIndex s1 = append(store, w1, 7);
  const BlockIndex s2 = append(store, w1, 8);
  MinerView first_s1 = a;
  MinerView first_s2 = a;
  first_s1.deliver(s1, store);
  first_s1.deliver(s2, store);
  first_s2.deliver(s2, store);
  first_s2.deliver(s1, store);
  EXPECT_EQ(first_s1.known_hash(), first_s2.known_hash());
  EXPECT_FALSE(first_s1 == first_s2);
  first_s1.deliver(w1, store);
  first_s2.deliver(w1, store);
  EXPECT_EQ(first_s1.tip(), u);  // u arrived before both siblings
  EXPECT_EQ(first_s2.tip(), u);
  EXPECT_TRUE(first_s1 == first_s2);  // all woke: the states meet again
}

}  // namespace
}  // namespace neatbound::sim
