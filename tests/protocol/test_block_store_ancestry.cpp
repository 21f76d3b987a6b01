// Property tests for the skip-pointer ancestry queries: on randomly grown
// trees of several shapes, ancestor()/common_ancestor()/is_ancestor()
// must agree with the naive O(h) parent-walk implementations they
// replaced, and the documented genesis clamp of ancestor() must hold.
#include "protocol/block_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/crng.hpp"

namespace neatbound::protocol {
namespace {

/// Appends a block with a synthetic (but unique) hash under `parent`.
BlockIndex append(BlockStore& store, BlockIndex parent, HashValue hash) {
  Block b;
  b.hash = hash;
  b.parent_hash = store.hash_of(parent);
  b.round = store.round_of(parent) + 1;
  return store.add(std::move(b));
}

// --- naive reference implementations (pre-skip-table semantics) ---------

BlockIndex naive_ancestor(const BlockStore& store, BlockIndex index,
                          std::uint64_t steps) {
  while (steps > 0 && index != kGenesisIndex) {
    index = store.parent_of(index);
    --steps;
  }
  return index;
}

BlockIndex naive_common_ancestor(const BlockStore& store, BlockIndex a,
                                 BlockIndex b) {
  while (store.height_of(a) > store.height_of(b)) a = store.parent_of(a);
  while (store.height_of(b) > store.height_of(a)) b = store.parent_of(b);
  while (a != b) {
    a = store.parent_of(a);
    b = store.parent_of(b);
  }
  return a;
}

// --- tree growers -------------------------------------------------------

/// One chain of `blocks` blocks — the deep, fork-free extreme.
BlockStore grow_chain(std::size_t blocks) {
  BlockStore store;
  BlockIndex tip = kGenesisIndex;
  for (std::size_t i = 0; i < blocks; ++i) {
    tip = append(store, tip, 1000 + i);
  }
  return store;
}

/// Every block picks a uniformly random existing parent — short and bushy.
BlockStore grow_random_attach(std::size_t blocks, std::uint64_t seed) {
  BlockStore store;
  crng::Stream rng(crng::Key{0, seed}, 0, 0, crng::Purpose::kGeneric);
  for (std::size_t i = 0; i < blocks; ++i) {
    const auto parent =
        static_cast<BlockIndex>(rng.uniform_below(store.size()));
    append(store, parent, 2000 + i);
  }
  return store;
}

/// Mostly extends the current tip, occasionally forking a few blocks
/// back — the shape real longest-chain executions produce.
BlockStore grow_chain_with_forks(std::size_t blocks, std::uint64_t seed) {
  BlockStore store;
  crng::Stream rng(crng::Key{0, seed}, 0, 0, crng::Purpose::kGeneric);
  BlockIndex tip = kGenesisIndex;
  for (std::size_t i = 0; i < blocks; ++i) {
    BlockIndex parent = tip;
    if (rng.bernoulli(0.15)) {
      parent = naive_ancestor(store, tip, rng.uniform_below(6));
    }
    const BlockIndex child = append(store, parent, 3000 + i);
    if (store.height_of(child) > store.height_of(tip)) tip = child;
  }
  return store;
}

void check_against_naive(const BlockStore& store, std::uint64_t seed,
                         std::size_t pairs) {
  crng::Stream rng(crng::Key{0, seed}, 0, 0, crng::Purpose::kGeneric);
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto a = static_cast<BlockIndex>(rng.uniform_below(store.size()));
    const auto b = static_cast<BlockIndex>(rng.uniform_below(store.size()));
    const BlockIndex expected = naive_common_ancestor(store, a, b);
    ASSERT_EQ(store.common_ancestor(a, b), expected)
        << "pair " << i << ": a=" << a << " b=" << b;
    ASSERT_EQ(store.common_prefix_height(a, b), store.height_of(expected));
    // Random-step ancestor walks, including past-genesis overshoots.
    const std::uint64_t steps = rng.uniform_below(store.size() + 10);
    ASSERT_EQ(store.ancestor(a, steps), naive_ancestor(store, a, steps))
        << "pair " << i << ": a=" << a << " steps=" << steps;
    // is_ancestor agrees with walking b's chain down to a's height.
    const std::uint64_t ha = store.height_of(a);
    const std::uint64_t hb = store.height_of(b);
    const bool expect_anc =
        ha <= hb && naive_ancestor(store, b, hb - ha) == a;
    ASSERT_EQ(store.is_ancestor(a, b), expect_anc)
        << "pair " << i << ": a=" << a << " b=" << b;
  }
}

TEST(BlockStoreAncestry, MatchesNaiveOnDeepChain) {
  const BlockStore store = grow_chain(1500);
  check_against_naive(store, 11, 1200);
}

TEST(BlockStoreAncestry, MatchesNaiveOnBushyRandomAttach) {
  const BlockStore store = grow_random_attach(1200, 7);
  check_against_naive(store, 13, 1200);
}

TEST(BlockStoreAncestry, MatchesNaiveOnChainWithForks) {
  const BlockStore store = grow_chain_with_forks(1500, 3);
  check_against_naive(store, 17, 1200);
}

TEST(BlockStoreAncestry, AncestorAtHeightWalksToExactHeight) {
  const BlockStore store = grow_chain_with_forks(600, 5);
  crng::Stream rng(crng::Key{0, 19}, 0, 0, crng::Purpose::kGeneric);
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<BlockIndex>(rng.uniform_below(store.size()));
    const std::uint64_t target = rng.uniform_below(store.height_of(a) + 1);
    const BlockIndex anc = store.ancestor_at_height(a, target);
    EXPECT_EQ(store.height_of(anc), target);
    EXPECT_TRUE(store.is_ancestor(anc, a));
  }
  EXPECT_THROW((void)store.ancestor_at_height(kGenesisIndex, 1),
               ContractViolation);
}

// --- the documented genesis clamp (regression for the header contract) --

TEST(BlockStoreAncestry, AncestorClampsAtGenesis) {
  BlockStore store;
  // On a fresh store: every walk from genesis stays at genesis.
  EXPECT_EQ(store.ancestor(kGenesisIndex, 0), kGenesisIndex);
  EXPECT_EQ(store.ancestor(kGenesisIndex, 1), kGenesisIndex);
  EXPECT_EQ(store.ancestor(kGenesisIndex, 1u << 20), kGenesisIndex);

  BlockIndex tip = kGenesisIndex;
  for (HashValue h = 1; h <= 40; ++h) tip = append(store, tip, h);
  // Walking exactly height steps lands on genesis…
  EXPECT_EQ(store.ancestor(tip, 40), kGenesisIndex);
  // …and any longer walk clamps there instead of underflowing.
  EXPECT_EQ(store.ancestor(tip, 41), kGenesisIndex);
  EXPECT_EQ(store.ancestor(tip, ~std::uint64_t{0}), kGenesisIndex);
  // Genesis again, now on a non-trivial store.
  EXPECT_EQ(store.ancestor(kGenesisIndex, 1000), kGenesisIndex);
}

}  // namespace
}  // namespace neatbound::protocol
