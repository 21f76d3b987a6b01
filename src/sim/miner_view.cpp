#include "sim/miner_view.hpp"

#include <algorithm>

#include "support/contracts.hpp"
#include "support/crng.hpp"
#include "support/invariant.hpp"

namespace neatbound::sim {

namespace {
/// A block's contribution to the known-set hash (mixed, so nearby
/// indices spread over all 64 bits).
constexpr std::uint64_t block_key(protocol::BlockIndex block) noexcept {
  return crng::mix64(block + 0x9e3779b97f4a7c15ULL);
}
}  // namespace

MinerView::MinerView()
    : tip_(protocol::kGenesisIndex),
      known_hash_(block_key(protocol::kGenesisIndex)) {
  set_bit(known_, protocol::kGenesisIndex);
}

void MinerView::set_bit(Bits& bits, protocol::BlockIndex block) {
  // neatbound-analyze: allow(hot-alloc) — lazy growth to the largest
  // index set, amortized over block indices.
  if (bits.size() <= block / 64) bits.resize(block / 64 + 1, 0);
  bits[block / 64] |= std::uint64_t{1} << (block % 64);
}

void MinerView::deliver_fresh(protocol::BlockIndex block,
                              const protocol::BlockStore& store,
                              AdoptionEvent& event) {
  const protocol::BlockIndex parent = store.parent_of(block);
  if (!knows(parent)) {
    buffer_orphan(parent, block);
    return;
  }
  activate_ready(block, store, event);
}

void MinerView::buffer_orphan(protocol::BlockIndex parent,
                              protocol::BlockIndex block) {
  // A still-buffered orphan can be delivered again (adversarial re-send or
  // gossip echo while the parent is withheld); it already waits once.
  if (test_bit(buffered_, block)) return;
  set_bit(buffered_, block);
  NEATBOUND_COUNT(kOrphansBuffered);
  // Appending keeps the (parent, arrival) order unless the new parent
  // sorts below the last entry's; then the next lookup sorts.
  if (!orphans_.empty() && parent < orphans_.back().parent) {
    orphans_sorted_ = false;
  }
  // neatbound-analyze: allow(hot-alloc) — capacity is retained across
  // activations (holes are compacted in place), so appends amortize.
  orphans_.push_back(Orphan{parent, block, arrivals_++});
}

void MinerView::sort_orphans() const noexcept {
  if (orphans_sorted_) return;
  std::sort(orphans_.begin(), orphans_.end(),
            [](const Orphan& a, const Orphan& b) {
              return a.parent != b.parent ? a.parent < b.parent
                                          : a.arrival < b.arrival;
            });
  orphans_sorted_ = true;
}

void MinerView::wake_children(protocol::BlockIndex parent) {
  if (holes_ == orphans_.size()) return;  // nothing is waiting
  sort_orphans();
  const auto first = std::lower_bound(
      orphans_.begin(), orphans_.end(), parent,
      [](const Orphan& o, protocol::BlockIndex p) { return o.parent < p; });
  auto last = first;
  while (last != orphans_.end() && last->parent == parent) ++last;
  // Push the latest arrival first, so the earliest pops first from the
  // LIFO worklist: children wake in arrival order.
  for (auto it = last; it != first;) {
    --it;
    if (it->child == kHole) continue;
    // Every live entry must be marked buffered and still unknown; anything
    // else means some path entered the buffer without buffer_orphan's
    // duplicate guard.
    NEATBOUND_INVARIANT(test_bit(buffered_, it->child),
                        "orphan-buffer entry not marked buffered_");
    NEATBOUND_INVARIANT(!knows(it->child),
                        "known block still waiting as an orphan");
    clear_bit(buffered_, it->child);
    NEATBOUND_COUNT(kOrphansActivated);
    // neatbound-analyze: allow(hot-alloc) — reused worklist (see
    // activate_ready)
    activation_stack_.push_back(it->child);
    it->child = kHole;
    ++holes_;
  }
  // Compact once holes are the majority: each entry is moved O(1) times
  // on average, so a whole cascade stays linear.
  if (2 * holes_ > orphans_.size()) {
    orphans_.erase(std::remove_if(orphans_.begin(), orphans_.end(),
                                  [](const Orphan& o) {
                                    return o.child == kHole;
                                  }),
                   orphans_.end());
    holes_ = 0;
  }
}

void MinerView::activate_ready(protocol::BlockIndex block,
                               const protocol::BlockStore& store,
                               AdoptionEvent& event) {
  // Iterative activation: mark known, adopt if longer, then wake orphans.
  activation_stack_.clear();
  // neatbound-analyze: allow(hot-alloc) — reused worklist: capacity is
  // retained across deliveries, so appends amortize to zero allocation.
  activation_stack_.push_back(block);
  while (!activation_stack_.empty()) {
    const protocol::BlockIndex current = activation_stack_.back();
    activation_stack_.pop_back();
    if (knows(current)) continue;
    set_bit(known_, current);
    known_hash_ ^= block_key(current);
    consider_tip(current, store, event);
    wake_children(current);
  }
}

void MinerView::consider_tip(protocol::BlockIndex candidate,
                             const protocol::BlockStore& store,
                             AdoptionEvent& event) {
  // Longest-chain rule; strict inequality implements first-received
  // tie-breaking (an equally long chain never displaces the current tip).
  const std::uint64_t candidate_height = store.height_of(candidate);
  if (candidate_height <= tip_height_) return;
  const std::uint64_t common = store.common_prefix_height(candidate, tip_);
  const std::uint64_t abandoned = tip_height_ - common;
  event.adopted = true;
  event.reorg_depth = std::max(event.reorg_depth, abandoned);
  tip_ = candidate;
  tip_height_ = candidate_height;
  // The cached height is what every longest-chain compare reads; drift
  // from the store's truth silently changes which chains win.
  NEATBOUND_INVARIANT(tip_height_ == store.height_of(tip_),
                      "cached tip height out of lockstep with the store");
}

bool operator==(const MinerView& a, const MinerView& b) {
  // Cheap fields first; the known bitsets have equal sizes whenever the
  // sets are equal (each grows exactly to cover its largest known index).
  if (a.tip_ != b.tip_ || a.known_hash_ != b.known_hash_ ||
      a.orphan_count() != b.orphan_count() || a.known_ != b.known_) {
    return false;
  }
  a.sort_orphans();
  b.sort_orphans();
  // Compare the live entries in (parent, arrival) order; arrival stamps
  // themselves are view-local and do not take part.
  auto i = a.orphans_.begin();
  auto j = b.orphans_.begin();
  while (true) {
    while (i != a.orphans_.end() && i->child == MinerView::kHole) ++i;
    while (j != b.orphans_.end() && j->child == MinerView::kHole) ++j;
    if (i == a.orphans_.end() || j == b.orphans_.end()) {
      return i == a.orphans_.end() && j == b.orphans_.end();
    }
    if (i->parent != j->parent || i->child != j->child) return false;
    ++i;
    ++j;
  }
}

}  // namespace neatbound::sim
