#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "chains/convergence.hpp"
#include "protocol/mining.hpp"
#include "support/contracts.hpp"
#include "support/crng.hpp"
#include "support/invariant.hpp"

namespace neatbound::sim {

namespace {
std::uint32_t corrupted_count(const EngineConfig& config) {
  return static_cast<std::uint32_t>(std::llround(
      config.adversary_fraction * static_cast<double>(config.miner_count)));
}

constexpr std::uint64_t purpose_of(crng::Purpose p) noexcept {
  return static_cast<std::uint64_t>(p);
}
}  // namespace

std::uint32_t honest_miner_count(const EngineConfig& config) {
  return config.miner_count - corrupted_count(config);
}

crng::Key engine_rng_key(const EngineConfig& config) {
  // Chained mix over the trajectory-shaping parameters; `rounds` and
  // `seed` deliberately excluded (see the declaration comment).
  std::uint64_t cell = 0x6e65617462756e64ULL;  // "neatbund" domain tag
  const auto fold = [&cell](std::uint64_t v) { cell = crng::mix64(cell ^ v); };
  fold(config.miner_count);
  fold(std::bit_cast<std::uint64_t>(config.adversary_fraction));
  fold(std::bit_cast<std::uint64_t>(config.p));
  fold(config.delta);
  return {cell, config.seed};
}

void validate_engine_config(const EngineConfig& config) {
  NEATBOUND_EXPECTS(config.miner_count >= 4,
                    "the paper's condition (3): n >= 4");
  NEATBOUND_EXPECTS(config.adversary_fraction >= 0.0 &&
                        config.adversary_fraction < 0.5,
                    "adversary fraction nu must be in [0, 1/2)");
  NEATBOUND_EXPECTS(config.p > 0.0 && config.p < 1.0,
                    "mining hardness p must be in (0, 1)");
  NEATBOUND_EXPECTS(config.delta >= 1, "delta must be >= 1");
  // Message due rounds reach up to 2Δ + 1 rounds past the calendar's
  // drain point (an adversary release at delay Δ, then its gossip echo Δ
  // later), and the calendar holds kMaxSpan rounds at most.
  constexpr std::uint64_t kMaxDelta =
      (net::DeliveryCalendar::kMaxSpan - 1) / 2;
  NEATBOUND_EXPECTS(config.delta <= kMaxDelta,
                    "delta must be <= " + std::to_string(kMaxDelta) +
                        ": its lookahead 2*delta + 1 must fit the delivery "
                        "calendar's span of " +
                        std::to_string(net::DeliveryCalendar::kMaxSpan) +
                        " rounds");
  NEATBOUND_EXPECTS(config.rounds >= 1, "rounds must be >= 1");
  NEATBOUND_EXPECTS(config.miner_count > corrupted_count(config),
                    "at least one honest miner needed");
}

/// AdversaryOps backed by the engine.  Lives only during act().
class ExecutionEngine::Ops final : public AdversaryOps {
 public:
  Ops(ExecutionEngine& engine, std::uint64_t round, std::uint64_t budget)
      : engine_(engine), round_(round), remaining_(budget), budget_(budget) {}

  [[nodiscard]] const protocol::BlockStore& store() const override {
    return engine_.store_;
  }
  [[nodiscard]] std::uint64_t round() const override { return round_; }
  [[nodiscard]] std::uint64_t delta() const override {
    return engine_.config_.delta;
  }
  [[nodiscard]] std::uint32_t honest_count() const override {
    return engine_.honest_count_;
  }
  [[nodiscard]] std::span<const protocol::BlockIndex> honest_tips()
      const override {
    return engine_.tips_scratch_;
  }
  [[nodiscard]] protocol::BlockIndex best_honest_tip() const override {
    return engine_.best_honest_tip();
  }
  [[nodiscard]] std::uint64_t remaining_queries() const override {
    return remaining_;
  }

  std::optional<protocol::BlockIndex> mine_on(
      protocol::BlockIndex parent, std::uint64_t max_queries) override {
    NEATBOUND_EXPECTS(max_queries >= 1 && max_queries <= remaining_,
                      "max_queries must be in [1, remaining queries]: "
                      "adversary query budget exhausted");
    // Success is decided by the addressable Bernoulli field: query q of
    // this round sits at flat position (round−1)·budget + q.  Every query
    // spent before this call consumed its position, so the cursor's next
    // success is the first these queries can meet; it either lies among
    // them or every one of them fails.
    GapCursor& gaps = engine_.adversary_gaps_;
    const std::uint64_t base = (round_ - 1) * budget_;
    const std::uint64_t first = base + (budget_ - remaining_);
    NEATBOUND_INVARIANT(gaps.peek() >= first,
                        "adversary success field behind the spent queries");
    if (gaps.peek() >= first + max_queries) {
      remaining_ -= max_queries;
      return std::nullopt;
    }
    const std::uint64_t query = gaps.take() - base;  // index within round
    remaining_ = budget_ - query - 1;
    // Block draws are keyed by (round, query), so they are independent of
    // every other success.
    const crng::Block draws = crng::philox4x64(
        {round_, query, purpose_of(crng::Purpose::kAdversaryBlock), 0},
        engine_.key_);
    protocol::Block block = protocol::assemble_block(
        engine_.oracle_, engine_.store_.hash_of(parent),
        /*payload_digest=*/draws[1], /*nonce=*/draws[0]);
    block.round = round_;
    block.miner_class = protocol::MinerClass::kAdversary;
    block.miner = engine_.honest_count_;  // corrupted ids share one bucket
    ++engine_.adversary_blocks_total_;
    ++engine_.round_activity_.adversary_mined;
    NEATBOUND_COUNT(kAdversaryBlocksMined);
    return engine_.store_.add(std::move(block));
  }

  void publish_to(std::uint32_t recipient, protocol::BlockIndex block,
                  std::uint64_t delay) override {
    NEATBOUND_EXPECTS(recipient < engine_.honest_count_,
                      "recipient out of range");
    const std::uint64_t d = engine_.clamp_delay(delay);
    engine_.calendar_.schedule(round_ + d, recipient, block);
    engine_.schedule_echo(round_ + d, block);
  }

  void publish_to_all(protocol::BlockIndex block,
                      std::uint64_t delay) override {
    const std::uint64_t d = engine_.clamp_delay(delay);
    engine_.calendar_.schedule_all(round_ + d, block);
    engine_.schedule_echo(round_ + d, block);
  }

 private:
  ExecutionEngine& engine_;
  std::uint64_t round_;
  std::uint64_t remaining_;
  std::uint64_t budget_;
};

ExecutionEngine::ExecutionEngine(EngineConfig config,
                                 std::unique_ptr<Adversary> adversary)
    : ExecutionEngine(config, std::move(adversary), nullptr) {}

ExecutionEngine::ExecutionEngine(EngineConfig config,
                                 std::unique_ptr<Adversary> adversary,
                                 std::unique_ptr<Environment> environment)
    : config_(config),
      honest_count_(honest_miner_count(config)),
      adversary_queries_(corrupted_count(config)),
      oracle_(crng::mix64(config.seed ^ 0x5bd1e995u)),
      calendar_(honest_miner_count(config)),
      adversary_(std::move(adversary)),
      environment_(std::move(environment)),
      key_(engine_rng_key(config)) {
  validate_engine_config(config);
  NEATBOUND_EXPECTS(adversary_ != nullptr, "an adversary is required");
  honest_gaps_ = GapCursor(key_, crng::Purpose::kHonestGap, config.p);
  if (adversary_queries_ > 0) {
    adversary_gaps_ = GapCursor(key_, crng::Purpose::kAdversaryGap, config.p);
  }
  // Quiet-round skipping requires that the adversary's act() is
  // observably a no-op on quiet rounds (the contract in
  // sim/adversary.hpp) and that no environment feeds block payloads.
  quiet_eligible_ =
      environment_ == nullptr &&
      (adversary_queries_ == 0 || adversary_->quiet_act_is_noop());
  // One class holding every honest miner at genesis.
  member_words_ = (std::size_t{honest_count_} + 63) / 64;
  solo_members_.assign(member_words_, 0);
  classes_.resize(1);
  classes_[0].members.resize(member_words_);
  net::set_all_members(classes_[0].members, honest_count_);
  classes_[0].size = honest_count_;
  // There are never more classes than honest miners, so the merge pass's
  // table stays at most half full and its scratch never grows.
  merge_slot_class_.assign(std::bit_ceil(2 * std::size_t{honest_count_}), 0);
  merge_slot_epoch_.assign(merge_slot_class_.size(), 0);
  absorbed_.assign(honest_count_, false);
  class_tips_.reserve(honest_count_);
  tips_scratch_.resize(honest_count_, protocol::kGenesisIndex);
  // At most honest_count_ honest blocks per round, so the per-round miner
  // list never reallocates after this.
  round_miners_.reserve(honest_count_);
  // Broadcast scratch: a delay per recipient, the delay → slot index
  // (delays lie in [1, Δ], which validation bounds) and per slot a delay
  // and a member set, at most kBroadcastSlots of them, so the sets take
  // O(n) words whatever Δ is.  Reused by every broadcast.
  const std::size_t slots = static_cast<std::size_t>(std::min<std::uint64_t>(
      {config_.delta, honest_count_, kBroadcastSlots}));
  delays_.assign(honest_count_, 0);
  slot_of_delay_.assign(config_.delta, kNoSlot);
  slot_delay_.assign(slots, 0);
  slot_members_.assign(slots * member_words_, 0);
}

ExecutionEngine::~ExecutionEngine() = default;

protocol::BlockIndex ExecutionEngine::honest_tip(std::uint32_t miner) const {
  NEATBOUND_EXPECTS(miner < honest_count_, "miner id out of range");
  return tips_scratch_[miner];
}

protocol::BlockIndex ExecutionEngine::best_honest_tip() const {
  return best_tip_;
}

void ExecutionEngine::note_adoption(std::size_t c, const AdoptionEvent& event,
                                    ReorgWitness& witness) {
  const ViewClass& cls = classes_[c];
  const protocol::BlockIndex tip = cls.view.tip();
  const std::uint64_t height = cls.view.tip_height();
  round_activity_.adoptions += cls.size;
  NEATBOUND_COUNT_ADD(kAdoptions, cls.size);
  std::uint32_t lowest = honest_count_;
  net::for_each_member(cls.members, [&](std::uint32_t m) {
    lowest = std::min(lowest, m);
    tips_scratch_[m] = tip;
  });
  // Members share the tip, so of all of them only the lowest can move the
  // lowest-index best-tip maximum.
  if (height > best_height_ ||
      (height == best_height_ && lowest < best_view_)) {
    best_height_ = height;
    best_view_ = lowest;
    best_tip_ = tip;
  }
  if (event.reorg_depth > 0) {
    NEATBOUND_COUNT_ADD(kReorgs, cls.size);
    consistency_.observe_reorg(event.reorg_depth);
    if (event.reorg_depth > witness.depth ||
        (event.reorg_depth == witness.depth && lowest < witness.view)) {
      witness = {event.reorg_depth, lowest};
    }
  }
  // The incremental best-tip triple is what the adversary and the metrics
  // read instead of rescanning views: it must keep naming a real view's
  // tip at its real height, and must never fall behind the tip that was
  // just adopted.
  NEATBOUND_INVARIANT(lowest < honest_count_, "adopting class has no member");
  NEATBOUND_INVARIANT(best_height_ == store_.height_of(best_tip_),
                      "best-tip height cache out of lockstep with the store");
  NEATBOUND_INVARIANT(best_view_ < honest_count_ &&
                          tips_scratch_[best_view_] == best_tip_,
                      "best-tip cache names a tip no view holds");
  NEATBOUND_INVARIANT(best_height_ >= height,
                      "best-tip cache fell behind a fresh adoption");
}

void ExecutionEngine::note_witness(const ReorgWitness& witness) noexcept {
  if (witness.depth > round_activity_.max_reorg_depth) {
    round_activity_.max_reorg_depth = witness.depth;
    round_activity_.max_reorg_view = witness.view;
  }
}

std::size_t ExecutionEngine::split_class(
    std::size_t c, std::span<const std::uint64_t> members,
    std::uint32_t covered) {
  if (live_classes_ == classes_.size()) {
    // neatbound-analyze: allow(hot-alloc) — a new slot only when every
    // retired one is in use: at most one per honest miner over a run.
    classes_.emplace_back();
    // neatbound-analyze: allow(hot-alloc) — sized once per slot (above)
    classes_.back().members.resize(member_words_, 0);
  }
  ViewClass& whole = classes_[c];
  ViewClass& part = classes_[live_classes_];
  // Copy-assignment reuses the retired slot's grown storage.
  part.view = whole.view;
  for (std::size_t w = 0; w < member_words_; ++w) {
    part.members[w] = whole.members[w] & members[w];
    whole.members[w] &= ~members[w];
  }
  part.size = covered;
  whole.size -= covered;
  part.touched = true;
  whole.touched = true;
  NEATBOUND_INVARIANT(part.size > 0 && whole.size > 0,
                      "split must leave two non-empty classes");
  classes_changed_ = true;
  return live_classes_++;
}

std::size_t ExecutionEngine::solo_class(std::uint32_t miner) {
  const std::size_t word = miner / 64;
  const std::uint64_t bit = std::uint64_t{1} << (miner % 64);
  std::size_t c = 0;
  while (c < live_classes_ && (classes_[c].members[word] & bit) == 0) ++c;
  NEATBOUND_INVARIANT(c < live_classes_, "miner belongs to no live class");
  if (classes_[c].size == 1) return c;
  solo_members_[word] = bit;
  const std::size_t solo = split_class(c, solo_members_, 1);
  solo_members_[word] = 0;
  return solo;
}

void ExecutionEngine::merge_equal_classes() {
  classes_changed_ = false;
  // One pass of an open-addressing table keyed by (tip, known-set hash):
  // each class probes for an earlier class with its key, and the full
  // comparison confirms a candidate.  Slots are stamped with the pass
  // number, so the table is never cleared.  After every pass the live
  // classes are pairwise distinct, so two untouched classes are never
  // compared.  A pairwise scan would do for the usual 3-7 classes, but
  // private-withhold on the uniform network at multiple 0.2 (dense_unsafe)
  // brings up to 658 live classes into one pass at n = 1000 (24 on
  // average), and there a pairwise scan ran 5% slower end to end.
  ++merge_epoch_;
  const std::size_t mask = merge_slot_class_.size() - 1;
  for (std::size_t c = 0; c < live_classes_; ++c) {
    const MinerView& view = classes_[c].view;
    const std::uint64_t key =
        view.known_hash() ^ (std::uint64_t{view.tip()} << 32);
    std::size_t slot = (key ^ (key >> 31)) & mask;
    for (;; slot = (slot + 1) & mask) {
      if (merge_slot_epoch_[slot] != merge_epoch_) {
        merge_slot_epoch_[slot] = merge_epoch_;
        merge_slot_class_[slot] = static_cast<std::uint32_t>(c);
        break;
      }
      const std::size_t into = merge_slot_class_[slot];
      if ((classes_[c].touched || classes_[into].touched) &&
          classes_[into].view == view) {
        for (std::size_t w = 0; w < member_words_; ++w) {
          classes_[into].members[w] |= classes_[c].members[w];
        }
        classes_[into].size += classes_[c].size;
        absorbed_[c] = true;
        break;
      }
    }
  }
  // Stable compaction: survivors keep their relative order, absorbed
  // classes move past live_classes_ as retired slots.
  std::size_t out = 0;
  for (std::size_t c = 0; c < live_classes_; ++c) {
    classes_[c].touched = false;
    if (absorbed_[c]) {
      absorbed_[c] = false;
      continue;
    }
    if (out != c) std::swap(classes_[out], classes_[c]);
    ++out;
  }
  live_classes_ = out;
  NEATBOUND_INVARIANT(
      [&] {
        std::uint64_t members = 0;
        for (std::size_t c = 0; c < live_classes_; ++c) {
          members += classes_[c].size;
        }
        return members == honest_count_;
      }(),
      "view classes no longer partition the honest miners");
}

std::uint64_t ExecutionEngine::clamp_delay(std::uint64_t d) const noexcept {
  return std::clamp<std::uint64_t>(d, 1, config_.delta);
}

void ExecutionEngine::schedule_echo(std::uint64_t first_receipt_round,
                                    protocol::BlockIndex block) {
  // neatbound-analyze: allow(hot-alloc) — lazy bitset growth, amortized
  // O(1) per block ever mined (not per delivery).
  if (echoed_.size() <= block) echoed_.resize(block + 1, false);
  if (echoed_[block]) return;
  echoed_[block] = true;
  calendar_.schedule_all(first_receipt_round + config_.delta, block);
}

void ExecutionEngine::deliver_due(std::uint64_t round) {
  calendar_.drain_records(
      round, [this](const net::DeliveryRecord& r) { deliver_record(r); });
}

void ExecutionEngine::deliver_record(const net::DeliveryRecord& record) {
  round_activity_.delivered += record.count;
  NEATBOUND_COUNT_ADD(kDeliveries, record.count);
  ReorgWitness witness;
  // Splits append classes past `live`; those hold members this record
  // has already reached, so the sweep stops at the classes it started
  // with.
  const std::size_t live = live_classes_;
  for (std::size_t c = 0; c < live; ++c) {
    std::uint32_t covered = classes_[c].size;
    if (record.count != honest_count_) {
      covered = 0;
      for (std::size_t w = 0; w < member_words_; ++w) {
        covered += static_cast<std::uint32_t>(
            std::popcount(classes_[c].members[w] & record.members[w]));
      }
      if (covered == 0) continue;
    }
    // A block the view already knows, or already holds as an orphan,
    // changes nothing, so the class need not split.
    if (classes_[c].view.has_seen(record.block)) {
      NEATBOUND_COUNT_ADD(kDuplicateDeliveries, covered);
      continue;
    }
    const std::size_t target =
        covered == classes_[c].size
            ? c
            : split_class(c, record.members, covered);
    const AdoptionEvent event = classes_[target].view.deliver(record.block,
                                                             store_);
    classes_[target].touched = true;
    classes_changed_ = true;
    if (event.adopted) note_adoption(target, event, witness);
  }
  note_witness(witness);
}

void ExecutionEngine::broadcast_honest(std::uint64_t round,
                                       std::uint32_t sender,
                                       protocol::BlockIndex block) {
  // Scoped per mined block (rare: n·p per round), not per recipient.
  NEATBOUND_PHASE_SCOPE(kSchedule);
  adversary_->honest_delays(round, sender, block, delays_);
  // Collect the recipients of each distinct clamped delay into the member
  // set of a slot, numbered in order of the delay's first recipient, and
  // schedule each set with one calendar call.  Distinct delays land in
  // distinct buckets, so these calls leave exactly the records that one
  // schedule() per recipient in ascending order would, and taking them in
  // first-recipient order grows the ring at the same points.  With more
  // distinct delays than slots, the full slots are scheduled early; a
  // delay's later set then joins its record.  The loop reads locals, so
  // its member-word stores cannot force reloads of engine fields.
  const std::uint64_t delta = config_.delta;
  const std::size_t words = member_words_;
  std::uint32_t* const slot_of_delay = slot_of_delay_.data();
  std::uint64_t* const members = slot_members_.data();
  std::size_t slots = 0;
  for (std::uint32_t r = 0; r < honest_count_; ++r) {
    if (r == sender) continue;
    const std::uint64_t d = std::clamp<std::uint64_t>(delays_[r], 1, delta);
    std::uint32_t slot = slot_of_delay[d - 1];
    if (slot == kNoSlot) {
      if (slots == slot_delay_.size()) {
        schedule_slots(round, block, slots);
        slots = 0;
      }
      slot = static_cast<std::uint32_t>(slots++);
      slot_of_delay[d - 1] = slot;
      slot_delay_[slot] = d;
    }
    members[slot * words + r / 64] |= std::uint64_t{1} << (r % 64);
  }
  schedule_slots(round, block, slots);
  // The sender itself received the block at `round`; gossip echo from that
  // first receipt (a no-op here since every recipient is already
  // scheduled within Δ, but it keeps the invariant uniform).
  // neatbound-analyze: allow(hot-alloc) — lazy bitset growth, amortized
  if (echoed_.size() <= block) echoed_.resize(block + 1, false);
  echoed_[block] = true;
}

void ExecutionEngine::schedule_slots(std::uint64_t round,
                                     protocol::BlockIndex block,
                                     std::size_t slots) {
  for (std::size_t s = 0; s < slots; ++s) {
    const std::span<std::uint64_t> members(
        slot_members_.data() + s * member_words_, member_words_);
    calendar_.schedule_set(round + slot_delay_[s], block, members);
    std::fill(members.begin(), members.end(), 0);
    slot_of_delay_[slot_delay_[s] - 1] = kNoSlot;
  }
}

void ExecutionEngine::register_honest_block(std::uint64_t round,
                                            std::uint32_t miner,
                                            protocol::Block&& block) {
  block.round = round;
  block.miner = miner;
  block.miner_class = protocol::MinerClass::kHonest;
  if (environment_ != nullptr) {
    block.message = environment_->message_for(round, miner);
  }
  const protocol::BlockIndex index = store_.add(std::move(block));
  ++round_activity_.honest_mined;
  // neatbound-analyze: allow(hot-alloc) — capacity pre-reserved to
  // honest_count_ in the constructor; this append never reallocates.
  round_miners_.push_back(miner);
  NEATBOUND_COUNT(kHonestBlocksMined);
  // The miner adopts its own block immediately (it extends its tip); its
  // view leaves any class it shared.
  const std::size_t c = solo_class(miner);
  const AdoptionEvent event = classes_[c].view.deliver(index, store_);
  classes_[c].touched = true;
  classes_changed_ = true;
  if (event.adopted) {
    ReorgWitness witness;
    note_adoption(c, event, witness);
    note_witness(witness);
  }
  adversary_->on_honest_block(round, index);
  broadcast_honest(round, miner, index);
}

void ExecutionEngine::honest_mining_phase(std::uint64_t round) {
  // Walk the honest Bernoulli success field over this round's positions
  // [(round−1)·n, round·n).  The cursor is monotone and every earlier
  // round consumed its own span, so its next success is already ≥ the
  // round base; miners come out in increasing id order.
  const std::uint64_t end = round * static_cast<std::uint64_t>(honest_count_);
  const std::uint64_t base = end - honest_count_;
  while (honest_gaps_.peek() < end) {
    const auto m = static_cast<std::uint32_t>(honest_gaps_.take() - base);
    const crng::Block draws = crng::philox4x64(
        {round, m, purpose_of(crng::Purpose::kHonestBlock), 0}, key_);
    register_honest_block(
        round, m,
        protocol::assemble_block(oracle_, store_.hash_of(tips_scratch_[m]),
                                 /*payload_digest=*/draws[1],
                                 /*nonce=*/draws[0]));
  }
  // neatbound-analyze: allow(hot-alloc) — one amortized append per round
  // into the result metric; geometric growth, not per-miner work.
  honest_counts_.push_back(round_activity_.honest_mined);
}

void ExecutionEngine::step_round(std::uint64_t round,
                                 const RoundObserver& observer) {
  round_activity_ = {};
  round_miners_.clear();
  {
    NEATBOUND_PHASE_SCOPE(kDeliver);
    deliver_due(round);
  }
  {
    NEATBOUND_PHASE_SCOPE(kMine);
    honest_mining_phase(round);
  }
  // tips_scratch_ / best_tip_ are already current: every adoption path
  // runs through note_adoption, so the adversary and metrics read the
  // same snapshot the old per-round rescan produced.
  if (adversary_queries_ > 0) {
    NEATBOUND_PHASE_SCOPE(kAdversary);
    Ops ops(*this, round, adversary_queries_);
    adversary_->act(ops);
    // Publication may not change views until delivery, so the snapshot
    // taken above remains valid for metrics.  Unspent queries of this
    // round are forfeited: the success field restarts at the next round's
    // base regardless of how much budget the strategy used, so
    // trajectories never depend on spent budget.
    adversary_gaps_.advance_to(round *
                               static_cast<std::uint64_t>(adversary_queries_));
  }
  {
    NEATBOUND_PHASE_SCOPE(kMetrics);
    if (classes_changed_) {
      merge_equal_classes();
      // Members of a class share its tip, so the class tips are exactly
      // the distinct honest tips the tracker needs.
      class_tips_.clear();
      for (std::size_t c = 0; c < live_classes_; ++c) {
        // neatbound-analyze: allow(hot-alloc) — reserved to honest_count_
        // in the constructor, which bounds the class count.
        class_tips_.push_back(classes_[c].view.tip());
      }
      consistency_.observe_round(class_tips_, store_);
    } else {
      // No class was delivered to, split or mined into since the last
      // merge, and tips move only through note_adoption: every tip is
      // where the last observed round left it, the fold the quiet skip
      // commits.
      consistency_.observe_rounds_unchanged(1);
    }
  }
  if (observer) observer(*this, round);
}

std::uint64_t ExecutionEngine::skip_quiet_rounds(std::uint64_t round) {
  if (!quiet_eligible_) return round;
  // A round is quiet iff all three event sources are silent: the honest
  // success field has no position in the round's span, the adversary
  // field has none either (so every one of its queries would fail), and
  // no message is due.  Each source names its next busy round directly —
  // a gap-cursor position p is the flat address (round−1)·span + slot,
  // so its round is p/span + 1 — which locates the whole quiet run
  // without examining the rounds inside it.  Cursors are not advanced;
  // their next success already lies inside the first busy round.
  std::uint64_t busy =
      honest_gaps_.peek() / static_cast<std::uint64_t>(honest_count_) + 1;
  if (adversary_queries_ > 0) {
    const std::uint64_t a_busy =
        adversary_gaps_.peek() /
            static_cast<std::uint64_t>(adversary_queries_) + 1;
    busy = std::min(busy, a_busy);
  }
  if (busy <= round) return round;
  // has_due first: it advances the ring past drained buckets exactly as
  // step_round's drain would (the state-equivalence contract), which
  // also establishes next_due_round's "nothing pending ≤ round"
  // precondition.
  if (calendar_.has_due(round)) return round;
  const std::uint64_t stop = std::min(
      {busy, calendar_.next_due_round(round), config_.rounds + 1});
  const std::uint64_t skipped = stop - round;
  // Commit the quiet rounds: observably identical to stepping each one,
  // which the quiet-skip differential battery pins per strategy.
  round_activity_ = {};
  round_miners_.clear();
  // neatbound-analyze: allow(hot-alloc) — reserved to `rounds` in run();
  // this append never reallocates.
  honest_counts_.insert(honest_counts_.end(), skipped, 0);
  consistency_.observe_rounds_unchanged(skipped);
  NEATBOUND_COUNT_ADD(kQuietRoundsSkipped, skipped);
  return stop;
}

RunResult ExecutionEngine::finish_run() {
  RunResult result;
  result.honest_counts = honest_counts_;
  result.honest_blocks_total = 0;
  for (const std::uint32_t c : honest_counts_) {
    result.honest_blocks_total += c;
  }
  result.adversary_blocks_total = adversary_blocks_total_;
  result.convergence_opportunities =
      chains::count_convergence_opportunities(honest_counts_, config_.delta);
  result.max_reorg_depth = consistency_.max_reorg_depth();
  result.max_divergence = consistency_.max_divergence();
  result.disagreement_rounds = consistency_.disagreement_rounds();
  result.violation_depth = consistency_.violation_depth();
  result.chain = measure_chain(store_, best_honest_tip(), config_.rounds);
  result.store_size = store_.size();
  result.telemetry = telemetry::snapshot();
  return result;
}

RunResult ExecutionEngine::run(const RoundObserver& observer) {
  NEATBOUND_EXPECTS(!ran_, "run() may be called once");
  ran_ = true;
  honest_counts_.reserve(config_.rounds);
  // Telemetry registers are thread_local and reset here, so the snapshot
  // taken by finish_run covers exactly this run, on whichever worker
  // thread executed it.
  telemetry::reset();
  for (std::uint64_t round = 1; round <= config_.rounds;) {
    // An observer must see every round, so only unobserved runs skip.
    if (!observer) {
      round = skip_quiet_rounds(round);
      if (round > config_.rounds) break;
    }
    step_round(round++, observer);
  }
  return finish_run();
}

}  // namespace neatbound::sim
