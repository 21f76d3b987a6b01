#include "protocol/block_store.hpp"

#include <algorithm>

#include "support/invariant.hpp"
#include "support/telemetry.hpp"

namespace neatbound::protocol {

BlockStore::BlockStore() {
  hash_.push_back(0);
  parent_hash_.push_back(0);
  parent_.push_back(kGenesisIndex);
  height_.push_back(0);
  round_.push_back(0);
  nonce_.push_back(0);
  payload_digest_.push_back(0);
  miner_.push_back(0);
  miner_class_.push_back(MinerClass::kGenesis);
  message_.emplace_back();
  by_hash_.emplace(0, kGenesisIndex);
}

Block BlockStore::block(BlockIndex index) const {
  check_index(index);
  Block b;
  b.hash = hash_[index];
  b.parent_hash = parent_hash_[index];
  b.parent = parent_[index];
  b.height = height_[index];
  b.round = round_[index];
  b.nonce = nonce_[index];
  b.payload_digest = payload_digest_[index];
  b.miner = miner_[index];
  b.miner_class = miner_class_[index];
  b.message = message_[index];
  return b;
}

BlockIndex BlockStore::add(Block block) {
  const auto parent_it = by_hash_.find(block.parent_hash);
  NEATBOUND_EXPECTS(parent_it != by_hash_.end(),
                    "parent block must exist before its child");
  return add_child(parent_it->second, std::move(block));
}

// neatbound-analyze: allow(hot-alloc) — accepted allocation boundary:
// add_child() is the append-only SoA growth point; every push_back
// amortizes geometrically over blocks ever mined, and nothing downstream
// of it is per-delivery work.  Keep new columns inside this function.
BlockIndex BlockStore::add_child(BlockIndex parent, Block block) {
  check_index(parent);
  NEATBOUND_EXPECTS(hash_[parent] == block.parent_hash,
                    "block's parent hash does not name the given parent");
  NEATBOUND_EXPECTS(block.round >= round_[parent],
                    "child round must not precede parent round");
  const std::uint32_t height = height_[parent] + 1;
  const auto index = static_cast<BlockIndex>(hash_.size());
  // The one hash operation per block: indexing the new hash also detects
  // a duplicate, before any column grows.
  const bool fresh = by_hash_.emplace(block.hash, index).second;
  NEATBOUND_EXPECTS(fresh, "duplicate block hash (oracle collision)");

  hash_.push_back(block.hash);
  parent_hash_.push_back(block.parent_hash);
  parent_.push_back(parent);
  height_.push_back(height);
  round_.push_back(block.round);
  nonce_.push_back(block.nonce);
  payload_digest_.push_back(block.payload_digest);
  miner_.push_back(block.miner);
  miner_class_.push_back(block.miner_class);
  message_.push_back(std::move(block.message));

  // Extend the skip table: row k holds the 2^(k+1)-th ancestor, computed
  // as the 2^k-th ancestor of the 2^k-th ancestor.  Rows the new block is
  // too shallow for get a genesis pad so every row stays index-aligned;
  // a row created here is backfilled with genesis, correct because every
  // earlier block is shallower than 2^(k+1).
  BlockIndex half_step = parent;  // the 2^k-th ancestor, k starting at 0
  const std::size_t needed_rows = [&] {
    std::size_t rows = 0;
    while ((std::uint64_t{2} << rows) <= height) ++rows;
    return rows;
  }();
  if (skip_.size() < needed_rows) {
    NEATBOUND_COUNT(kSkipRowsBuilt);
    skip_.emplace_back(index, kGenesisIndex);
    NEATBOUND_ENSURES(skip_.size() == needed_rows,
                      "heights grow by one, so rows appear one at a time");
  }
  for (unsigned k = 1; k <= skip_.size(); ++k) {
    const bool real = (std::uint64_t{1} << k) <= height;
    const BlockIndex anc = real ? lift(half_step, k - 1) : kGenesisIndex;
    skip_[k - 1].push_back(anc);
    half_step = anc;
  }

  // Column-length lockstep: every SoA column (and every skip row) must
  // cover exactly the blocks appended so far — a short column would turn
  // the next *_of read into a silent out-of-bounds.
  NEATBOUND_INVARIANT(
      parent_hash_.size() == hash_.size() && parent_.size() == hash_.size() &&
          height_.size() == hash_.size() && round_.size() == hash_.size() &&
          nonce_.size() == hash_.size() &&
          payload_digest_.size() == hash_.size() &&
          miner_.size() == hash_.size() &&
          miner_class_.size() == hash_.size() &&
          message_.size() == hash_.size() && by_hash_.size() == hash_.size(),
      "SoA columns out of lockstep after add_child()");
  NEATBOUND_INVARIANT(
      std::all_of(skip_.begin(), skip_.end(),
                  [&](const std::vector<BlockIndex>& row) {
                    return row.size() == hash_.size();
                  }),
      "skip-table row not index-aligned with the SoA columns");
  NEATBOUND_INVARIANT(height_[index] == height_[parent] + 1,
                      "child height must be parent height + 1");
  return index;
}

bool BlockStore::contains_hash(HashValue hash) const noexcept {
  return by_hash_.find(hash) != by_hash_.end();
}

BlockIndex BlockStore::index_of(HashValue hash) const {
  const auto it = by_hash_.find(hash);
  NEATBOUND_EXPECTS(it != by_hash_.end(), "unknown block hash");
  return it->second;
}

BlockIndex BlockStore::ancestor(BlockIndex index, std::uint64_t steps) const {
  check_index(index);
  if (steps >= height_[index]) return kGenesisIndex;  // documented clamp
  return ancestor_at_height(index, height_[index] - steps);
}

BlockIndex BlockStore::ancestor_at_height(BlockIndex index,
                                          std::uint64_t target_height) const {
  NEATBOUND_COUNT(kAncestryQueries);
  check_index(index);
  NEATBOUND_EXPECTS(target_height <= height_[index],
                    "target height above the block");
  std::uint64_t diff = height_[index] - target_height;
  for (unsigned k = 0; diff != 0; ++k, diff >>= 1) {
    if (diff & 1) index = lift(index, k);
  }
  return index;
}

BlockIndex BlockStore::common_ancestor(BlockIndex a, BlockIndex b) const {
  NEATBOUND_COUNT(kAncestryQueries);
  check_index(a);
  check_index(b);
  // Equalize heights with skip jumps, then binary-search the fork point.
  if (height_[a] > height_[b]) a = ancestor_at_height(a, height_[b]);
  if (height_[b] > height_[a]) b = ancestor_at_height(b, height_[a]);
  if (a == b) return a;
  for (unsigned k = static_cast<unsigned>(skip_.size()) + 1; k-- > 0;) {
    // Equal lifts mean the common ancestor is at or above that level —
    // don't jump; unequal lifts are both strictly below it — jump.
    // (Genesis-padded entries compare equal, so overshoots never jump.)
    const BlockIndex la = lift(a, k);
    const BlockIndex lb = lift(b, k);
    if (la != lb) {
      a = la;
      b = lb;
    }
  }
  return parent_[a];
}

std::uint64_t BlockStore::common_prefix_height(BlockIndex a,
                                               BlockIndex b) const {
  return height_[common_ancestor(a, b)];
}

bool BlockStore::is_ancestor(BlockIndex ancestor_candidate,
                             BlockIndex descendant) const {
  check_index(ancestor_candidate);
  check_index(descendant);
  if (height_[ancestor_candidate] > height_[descendant]) return false;
  return ancestor_at_height(descendant, height_[ancestor_candidate]) ==
         ancestor_candidate;
}

std::vector<BlockIndex> BlockStore::chain_to(BlockIndex tip) const {
  check_index(tip);
  std::vector<BlockIndex> chain;
  chain.reserve(height_[tip] + 1);
  for (BlockIndex cur = tip;; cur = parent_[cur]) {
    chain.push_back(cur);
    if (cur == kGenesisIndex) break;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::vector<std::string> BlockStore::extract_messages(BlockIndex tip) const {
  std::vector<std::string> messages;
  for (const BlockIndex index : chain_to(tip)) {
    if (!message_[index].empty()) messages.push_back(message_[index]);
  }
  return messages;
}

}  // namespace neatbound::protocol
