// Per-miner view of the block tree and the longest-chain rule.
//
// Each honest player only "knows" the blocks that have been delivered to
// it (plus blocks it mined itself).  It adopts the longest known chain,
// breaking ties in favour of the first-received chain — Nakamoto's rule.
// Because the adversary may reorder messages, a block can arrive before
// its parent; such orphans are buffered and activated once their ancestry
// is complete (an honest player cannot validate, let alone mine on, a
// block whose chain it cannot see).
//
// Storage is compact, so a view costs O(blocks/8 + orphans) bytes to copy
// (the engine copies a view whenever a delivery splits a class of
// identical views, sim/engine.hpp).  The known-set is a bitset over block
// indices with an incremental hash; the orphan buffer is one flat array
// of (parent, child, arrival) entries, sorted by (parent, arrival) on
// demand, so the children of a parent are one binary search away and wake
// in arrival order.  Nothing is allocated per delivery once the arrays
// have grown.
#pragma once

#include <cstdint>
#include <vector>

#include "protocol/block_store.hpp"
#include "support/hot.hpp"
#include "support/telemetry.hpp"

namespace neatbound::sim {

/// Outcome of delivering one block to a view.
struct AdoptionEvent {
  bool adopted = false;       ///< tip changed
  std::uint64_t reorg_depth = 0;  ///< blocks abandoned from the old tip
};

class MinerView {
 public:
  /// A fresh view knows only genesis.
  MinerView();

  [[nodiscard]] protocol::BlockIndex tip() const noexcept { return tip_; }

  /// Height of tip(), cached so the per-delivery longest-chain compare
  /// costs one store read, not two.
  [[nodiscard]] std::uint64_t tip_height() const noexcept {
    return tip_height_;
  }

  [[nodiscard]] bool knows(protocol::BlockIndex block) const noexcept {
    return test_bit(known_, block);
  }

  /// True iff delivering `block` again would change nothing: the block is
  /// known, or it is an orphan already waiting in the buffer.
  [[nodiscard]] bool has_seen(protocol::BlockIndex block) const noexcept {
    return knows(block) || test_bit(buffered_, block);
  }

  /// Hash of the known set: XOR of a fixed per-block mix, maintained on
  /// every activation, so equal known sets always hash equal.
  [[nodiscard]] std::uint64_t known_hash() const noexcept {
    return known_hash_;
  }

  /// Orphans currently waiting for their parent.
  [[nodiscard]] std::size_t orphan_count() const noexcept {
    return orphans_.size() - holes_;
  }

  /// Delivers `block`; activates it (and any waiting descendants) if its
  /// ancestry is known, applying the longest-chain rule.  Returns the
  /// deepest reorg performed during activation (0 when the tip just
  /// extends or does not change).  The duplicate-delivery check (gossip
  /// echoes make duplicates the single most common delivery) stays inline
  /// in the caller's loop.
  NEATBOUND_HOT AdoptionEvent deliver(protocol::BlockIndex block,
                                      const protocol::BlockStore& store) {
    AdoptionEvent event;
    if (knows(block)) {  // duplicate delivery (echo), ignore
      NEATBOUND_COUNT(kDuplicateDeliveries);
      return event;
    }
    deliver_fresh(block, store, event);
    return event;
  }

  /// Same view state: same tip, same known set and the same orphan list
  /// per parent, each in arrival order.  Equal views produce identical
  /// events for every future delivery sequence, however each reached its
  /// state.
  friend bool operator==(const MinerView& a, const MinerView& b);

 private:
  /// A buffered orphan: `child` waits for `parent`; `arrival` orders the
  /// children of one parent.  An activated entry keeps its sort key and
  /// becomes a hole (child = kHole) until the next compaction.
  struct Orphan {
    protocol::BlockIndex parent = 0;
    protocol::BlockIndex child = 0;
    std::uint32_t arrival = 0;
  };
  static constexpr protocol::BlockIndex kHole = ~protocol::BlockIndex{0};

  /// Block-indexed bitsets are plain 64-bit words, so copies and
  /// comparisons run a word at a time.
  using Bits = std::vector<std::uint64_t>;
  [[nodiscard]] static bool test_bit(const Bits& bits,
                                     protocol::BlockIndex block) noexcept {
    return block / 64 < bits.size() &&
           ((bits[block / 64] >> (block % 64)) & 1) != 0;
  }
  /// Sets bit `block`, growing `bits` to cover it.
  NEATBOUND_HOT static void set_bit(Bits& bits, protocol::BlockIndex block);
  static void clear_bit(Bits& bits, protocol::BlockIndex block) noexcept {
    bits[block / 64] &= ~(std::uint64_t{1} << (block % 64));
  }

  /// Out-of-line continuation of deliver() for not-yet-known blocks.
  NEATBOUND_HOT void deliver_fresh(protocol::BlockIndex block,
                                   const protocol::BlockStore& store,
                                   AdoptionEvent& event);
  /// Appends `block` to the orphan buffer (its parent is unknown).
  NEATBOUND_HOT void buffer_orphan(protocol::BlockIndex parent,
                                   protocol::BlockIndex block);
  /// Marks `block` known, then repeatedly activates buffered orphans
  /// whose parents became known.
  NEATBOUND_HOT void activate_ready(protocol::BlockIndex block,
                                    const protocol::BlockStore& store,
                                    AdoptionEvent& event);
  /// Moves the orphans waiting for `parent` onto the activation stack so
  /// they pop in arrival order, leaving holes behind.
  NEATBOUND_HOT void wake_children(protocol::BlockIndex parent);
  NEATBOUND_HOT void consider_tip(protocol::BlockIndex candidate,
                                  const protocol::BlockStore& store,
                                  AdoptionEvent& event);
  /// Sorts the orphan buffer by (parent, arrival) if an out-of-order
  /// append left it unsorted.  Logically const: the set of entries and
  /// each parent's arrival order do not change.
  NEATBOUND_HOT void sort_orphans() const noexcept;

  protocol::BlockIndex tip_;
  std::uint64_t tip_height_ = 0;  ///< height of tip_, kept in lockstep
  /// Known blocks, grown lazily to the largest known index, so equal
  /// known sets have equal sizes.
  Bits known_;
  std::uint64_t known_hash_;
  /// Blocks currently waiting in orphans_.  Guards against duplicate
  /// delivery of a still-buffered orphan (its duplicate passes the
  /// knows() check), which must not enter the buffer twice.  Grown only
  /// when an orphan arrives, so honest-order delivery never touches it.
  Bits buffered_;
  /// The orphan buffer (see the file comment); mutable only so a const
  /// comparison can sort it.
  mutable std::vector<Orphan> orphans_;
  mutable bool orphans_sorted_ = true;
  std::size_t holes_ = 0;        ///< activated entries not yet compacted
  std::uint32_t arrivals_ = 0;   ///< next Orphan::arrival stamp
  /// Reused activation worklist — no allocation on the delivery hot path.
  std::vector<protocol::BlockIndex> activation_stack_;
};

}  // namespace neatbound::sim
