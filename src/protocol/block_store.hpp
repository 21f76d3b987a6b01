// Append-only block tree shared by the whole execution.
//
// Every mined block (honest or adversarial, published or withheld) lives
// here exactly once; per-miner *views* are subsets of indices (src/sim).
// The store maintains parent links and heights and answers ancestry /
// common-prefix queries, which is all the longest-chain rule needs.
//
// Storage is structure-of-arrays: each block field lives in its own
// parallel vector, indexed by BlockIndex.  The simulation hot path
// (T×n oracle queries, ancestry walks in the consistency metrics) touches
// only one or two fields per block, so SoA keeps those reads dense in
// cache instead of striding over whole Block records.  A binary-lifting
// skip-pointer table (skip_[k][i] = the 2^(k+1)-th ancestor of i) makes
// ancestor() / common_ancestor() O(log h) pointer hops instead of O(h)
// parent walks.  The `Block` struct survives as the value type used to
// *assemble* a block (mining) and as the materialized record `block()`
// returns for cold paths (tests, validation, demos).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "protocol/block.hpp"
#include "support/contracts.hpp"
#include "support/hot.hpp"

namespace neatbound::protocol {

class BlockStore {
 public:
  /// Creates the store holding only the genesis block (hash 0, height 0).
  BlockStore();

  /// Number of blocks including genesis.
  [[nodiscard]] std::size_t size() const noexcept { return hash_.size(); }

  /// Materialized copy of one block record — a convenience for cold paths
  /// (tests, chain validation, demos).  Hot paths should read the field
  /// they need through the *_of accessors below.
  [[nodiscard]] Block block(BlockIndex index) const;

  // --- per-field accessors over the SoA columns ---
  [[nodiscard]] HashValue hash_of(BlockIndex index) const {
    check_index(index);
    return hash_[index];
  }
  [[nodiscard]] HashValue parent_hash_of(BlockIndex index) const {
    check_index(index);
    return parent_hash_[index];
  }
  [[nodiscard]] BlockIndex parent_of(BlockIndex index) const {
    check_index(index);
    return parent_[index];
  }
  [[nodiscard]] std::uint64_t height_of(BlockIndex index) const {
    check_index(index);
    return height_[index];
  }
  [[nodiscard]] std::uint64_t round_of(BlockIndex index) const {
    check_index(index);
    return round_[index];
  }
  [[nodiscard]] std::uint64_t nonce_of(BlockIndex index) const {
    check_index(index);
    return nonce_[index];
  }
  [[nodiscard]] std::uint64_t payload_digest_of(BlockIndex index) const {
    check_index(index);
    return payload_digest_[index];
  }
  [[nodiscard]] std::uint32_t miner_of(BlockIndex index) const {
    check_index(index);
    return miner_[index];
  }
  [[nodiscard]] MinerClass miner_class_of(BlockIndex index) const {
    check_index(index);
    return miner_class_[index];
  }
  [[nodiscard]] const std::string& message_of(BlockIndex index) const {
    check_index(index);
    return message_[index];
  }

  /// Appends a block whose parent must already exist; fills in height and
  /// parent index, and indexes the hash.  Returns the new block's index.
  /// Duplicate hashes are a contract violation (the oracle is collision-
  /// free at the scales simulated).
  BlockIndex add(Block block);
  /// add() for a caller that already knows the parent's index: the same
  /// contract, checked against `parent` (whose hash must equal
  /// block.parent_hash) instead of looked up by hash, so a block costs
  /// one hash-map operation.  block.parent and block.height are ignored.
  BlockIndex add_child(BlockIndex parent, Block block);

  /// Looks up a block by hash; returns nullptr-like sentinel via found flag.
  [[nodiscard]] bool contains_hash(HashValue hash) const noexcept;
  [[nodiscard]] BlockIndex index_of(HashValue hash) const;

  /// Walks up from `index` by `steps` parent links, *clamping at genesis*:
  /// when `steps` meets or exceeds the block's height the walk bottoms out
  /// and genesis is returned (never an underflow or an error).  In
  /// particular ancestor(genesis, k) == genesis for every k.  O(log steps)
  /// via the skip table.
  [[nodiscard]] NEATBOUND_HOT BlockIndex ancestor(BlockIndex index,
                                                  std::uint64_t steps) const;

  /// The unique ancestor of `index` at height `target_height`, which must
  /// not exceed the block's own height.  O(log h).
  [[nodiscard]] NEATBOUND_HOT BlockIndex ancestor_at_height(
      BlockIndex index, std::uint64_t target_height) const;

  /// The deepest common ancestor of two blocks.  O(log h).
  [[nodiscard]] NEATBOUND_HOT BlockIndex common_ancestor(BlockIndex a,
                                                         BlockIndex b) const;

  /// Height of the deepest common ancestor — the "agreement depth" used by
  /// consistency metrics.
  [[nodiscard]] NEATBOUND_HOT std::uint64_t common_prefix_height(
      BlockIndex a, BlockIndex b) const;

  /// True iff `ancestor_candidate` is on the path from `descendant` to
  /// genesis (inclusive).  O(log h).
  [[nodiscard]] NEATBOUND_HOT bool is_ancestor(BlockIndex ancestor_candidate,
                                               BlockIndex descendant) const;

  /// The chain from genesis to `tip`, genesis first.
  [[nodiscard]] std::vector<BlockIndex> chain_to(BlockIndex tip) const;

  /// ext(κ, C): the ordered sequence of (non-empty) messages along the
  /// chain to `tip`, genesis first (Section III's output algorithm).
  [[nodiscard]] std::vector<std::string> extract_messages(
      BlockIndex tip) const;

 private:
  void check_index(BlockIndex index) const {
    NEATBOUND_EXPECTS(index < hash_.size(), "block index out of range");
  }
  /// The 2^k-th ancestor of `index` (k = 0 is the parent link).  Reads a
  /// genesis pad entry when 2^k exceeds the block's height.
  [[nodiscard]] BlockIndex lift(BlockIndex index, unsigned level) const {
    return level == 0 ? parent_[index] : skip_[level - 1][index];
  }

  // SoA columns, all indexed by BlockIndex and equal in length.
  std::vector<HashValue> hash_;
  std::vector<HashValue> parent_hash_;
  std::vector<BlockIndex> parent_;
  std::vector<std::uint32_t> height_;  ///< ≤ size() − 1, fits 32 bits
  std::vector<std::uint64_t> round_;
  std::vector<std::uint64_t> nonce_;
  std::vector<std::uint64_t> payload_digest_;
  std::vector<std::uint32_t> miner_;
  std::vector<MinerClass> miner_class_;
  std::vector<std::string> message_;
  /// skip_[k][i] = 2^(k+1)-th ancestor of i, genesis-padded when the
  /// block is too shallow.  Row k is created lazily when the first block
  /// of height ≥ 2^(k+1) is added (at which point every earlier block is
  /// shallower, so the backfill is all-genesis by construction).
  std::vector<std::vector<BlockIndex>> skip_;
  std::unordered_map<HashValue, BlockIndex> by_hash_;
};

}  // namespace neatbound::protocol
