// The Δ-delay asynchronous network (Section III, adversary capability ①).
//
// A block broadcast at the end of round r reaches recipient i at the start
// of round r + d, where the delay d is chosen per (message, recipient) by
// a DeliverySchedule with 1 ≤ d ≤ Δ (one call fills the delays of every
// recipient of a broadcast).  d = 1 is "next round" (the fastest
// physically meaningful delivery in the round model); d = Δ saturates the
// adversary's delaying power.  The adversary may not drop or modify
// messages — only the delay is under its control — which the queue
// enforces by construction.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "protocol/block.hpp"
#include "support/contracts.hpp"
#include "support/crng.hpp"
#include "support/hot.hpp"
#include "support/invariant.hpp"
#include "support/telemetry.hpp"

namespace neatbound::net {

/// A block announcement in flight to one recipient.
struct Delivery {
  std::uint64_t due_round = 0;
  std::uint32_t recipient = 0;
  protocol::BlockIndex block = 0;
};

/// One block in flight to a set of recipients, as drain_records hands it
/// out: recipient r is in the set iff bit r % 64 of members[r / 64] is.
struct DeliveryRecord {
  std::uint64_t due_round = 0;
  protocol::BlockIndex block = 0;
  std::uint32_t count = 0;  ///< recipients in the set
  std::span<const std::uint64_t> members;
};

/// Calls fn(recipient) for every member of a recipient bitset, ascending.
template <typename Fn>
void for_each_member(std::span<const std::uint64_t> members, Fn&& fn) {
  for (std::size_t w = 0; w < members.size(); ++w) {
    for (std::uint64_t bits = members[w]; bits != 0; bits &= bits - 1) {
      fn(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
}

/// Sets exactly the bits of recipients [0, count) in `members`, which
/// holds (count + 63) / 64 words.
inline void set_all_members(std::span<std::uint64_t> members,
                            std::uint32_t count) noexcept {
  std::fill(members.begin(), members.end(), ~std::uint64_t{0});
  if (count % 64 != 0) {
    members.back() = (std::uint64_t{1} << (count % 64)) - 1;
  }
}

/// Round-indexed delivery calendar for all recipients: a flat ring buffer
/// of per-round buckets.  Δ is small and bounded, so every in-flight
/// message lives within a narrow window of future rounds — a
/// bucket-per-round ring makes schedule() an O(1) append and the
/// per-round drain a contiguous sweep, where any ordered container would
/// pay comparisons and pointer chasing on the T×n hot path.
///
/// A bucket holds records, each one block plus a bitset of recipients.
/// schedule() extends the bucket's last record when it carries the same
/// block and the new recipient is above the record's highest member;
/// otherwise it opens a new record.  A record is therefore a run of
/// consecutive schedule() calls for one block with ascending recipients,
/// and expanding the records in order, each in ascending member order,
/// replays the schedule() sequence exactly.  schedule_set() takes a whole
/// recipient set in one call and leaves exactly the records the
/// ascending schedule() calls for its members would, so a broadcast to n
/// recipients costs one call and at most one record per distinct delay.
///
/// Ordering contract: collect_due/drain_due emit strictly ascending due
/// rounds, FIFO (schedule order) within a round.  drain_records emits the
/// same deliveries grouped into records, so each recipient sees its
/// blocks in the same order either way.  Determinism therefore depends
/// only on the schedule() call sequence.
///
/// The window grows on demand: scheduling past the current horizon
/// re-buckets into a larger power-of-two ring, up to kMaxSpan rounds
/// ahead (memory is O(span), so a far-future due round is a contract
/// violation rather than an unbounded allocation).  Scheduling at or
/// before an already-collected round is clamped to the next collectable
/// round — the message is late, not lost.
class DeliveryCalendar {
 public:
  /// Hard bound on how far ahead of the drain point a delivery may be
  /// scheduled.  The engine needs at most 2Δ + 1, so
  /// sim::validate_engine_config rejects any Δ above (kMaxSpan − 1) / 2.
  static constexpr std::uint64_t kMaxSpan = std::uint64_t{1} << 20;

  explicit DeliveryCalendar(std::uint32_t recipient_count);

  /// Schedules `block` to reach `recipient` at `due_round`, which must
  /// lie less than kMaxSpan rounds past the earliest uncollected round.
  NEATBOUND_HOT void schedule(std::uint64_t due_round,
                              std::uint32_t recipient,
                              protocol::BlockIndex block) {
    NEATBOUND_EXPECTS(recipient < recipient_count_, "recipient out of range");
    Bucket& bucket = bucket_for(due_round);
    std::uint64_t* words = record_words_for(bucket, block, recipient);
    Record& record = bucket.records.back();
    words[recipient / 64] |= std::uint64_t{1} << (recipient % 64);
    record.highest = recipient;
    ++record.count;
    ++pending_;
    NEATBOUND_COUNT(kCalendarScheduled);
  }

  /// Schedules `block` to every member of the recipient bitset `members`
  /// (one word per 64 recipients) at `due_round`: the same records,
  /// pending() and kCalendarScheduled count as schedule() for each member
  /// in ascending order, in one pass over its words.  The set joins the
  /// bucket's last record when that record carries `block` and the set's
  /// lowest member is above its highest; otherwise it opens one record.
  /// An empty set schedules nothing.
  NEATBOUND_HOT void schedule_set(std::uint64_t due_round,
                                  protocol::BlockIndex block,
                                  std::span<const std::uint64_t> members);

  /// Schedules `block` to every recipient at `due_round`: schedule_set()
  /// with the full set.
  NEATBOUND_HOT void schedule_all(std::uint64_t due_round,
                                  protocol::BlockIndex block) {
    schedule_set(due_round, block, all_members_);
  }

  /// Pops everything due at or before `round` for all recipients; the
  /// result is grouped as (recipient, block) pairs in due order (see the
  /// ordering contract above).
  [[nodiscard]] std::vector<Delivery> collect_due(std::uint64_t round);

  /// Invokes `fn(record)` for every record due at or before `round`, in
  /// due order and FIFO within a round.  The record's member span stays
  /// valid for the duration of the call, even if `fn` schedules more
  /// deliveries; bucket storage is retained for reuse.
  template <typename Fn>
  NEATBOUND_HOT void drain_records(std::uint64_t round, Fn&& fn) {
    // bucket_at masks with size-1: a non-power-of-two ring would map
    // rounds onto the wrong buckets and deliveries would silently swap
    // rounds.
    NEATBOUND_INVARIANT(std::has_single_bit(buckets_.size()),
                        "calendar ring size must be a power of two");
    if (pending_ == 0) {
      if (round >= base_round_) base_round_ = round + 1;
      return;
    }
    while (base_round_ <= round) {
      // Re-fetch the bucket every step: schedule() during the callback
      // may append to this very bucket (same-round delivery) or grow the
      // ring (reallocating buckets_); index-based access stays valid
      // through both.  The member words are copied out for the same
      // reason.
      for (std::size_t i = 0; i < bucket_at(base_round_).records.size();
           ++i) {
        Bucket& bucket = bucket_at(base_round_);
        const Record record = bucket.records[i];
        std::copy_n(bucket.words.begin() + i * words_per_set_,
                    words_per_set_, members_.begin());
        // Close the record before fn runs: a same-round schedule() from
        // fn must open a new record, drained later in this loop, rather
        // than join this already consumed one and be lost.
        bucket.records[i].highest = ~std::uint32_t{0};
        pending_ -= record.count;
        fn(DeliveryRecord{base_round_, record.block, record.count,
                          members_});
      }
      bucket_at(base_round_).records.clear();
      bucket_at(base_round_).words.clear();
      ++base_round_;
      if (pending_ == 0) {
        base_round_ = round >= base_round_ ? round + 1 : base_round_;
        break;
      }
    }
  }

  /// Per-recipient drain: invokes `fn(delivery)` for everything due at or
  /// before `round`, in exactly collect_due's order (drain_records with
  /// each record expanded in ascending member order).
  // neatbound-analyze: allow(contract-coverage) — thin wrapper: the ring
  // invariants are checked in drain_records, which it delegates to.
  template <typename Fn>
  void drain_due(std::uint64_t round, Fn&& fn) {
    drain_records(round, [&fn](const DeliveryRecord& record) {
      for_each_member(record.members, [&](std::uint32_t recipient) {
        fn(Delivery{record.due_round, recipient, record.block});
      });
    });
  }

  /// Deliveries pending, counted per recipient.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// True iff anything is due at or before `round`.  Advances past empty
  /// buckets exactly as drain_due would, so interleaving has_due with
  /// drain_due keeps the ring state identical to calling drain_due alone
  /// — the engine's quiet-round check relies on that equivalence.
  // neatbound-analyze: allow(hot-hygiene) — mutating by design: the whole
  // point is to advance base_round_ exactly as drain_due would.
  [[nodiscard]] NEATBOUND_HOT bool has_due(std::uint64_t round) noexcept {
    NEATBOUND_INVARIANT(std::has_single_bit(buckets_.size()),
                        "calendar ring size must be a power of two");
    if (pending_ == 0) {
      if (round >= base_round_) base_round_ = round + 1;
      return false;
    }
    while (base_round_ <= round && bucket_at(base_round_).records.empty()) {
      ++base_round_;
    }
    return base_round_ <= round;
  }

  /// next_due_round's "nothing pending" sentinel.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// Earliest round ≥ `from` with something due, or kNever when nothing
  /// is pending.  Pure lookahead (never advances the ring) for the
  /// quiet-round bulk skip: callers probe it only after has_due(from)
  /// returned false, so every pending entry sits in (from, from + span].
  [[nodiscard]] std::uint64_t next_due_round(std::uint64_t from) const
      noexcept {
    if (pending_ == 0) return kNever;
    const std::uint64_t start = from > base_round_ ? from : base_round_;
    const std::uint64_t end = base_round_ + buckets_.size();
    for (std::uint64_t r = start; r < end; ++r) {
      if (!buckets_[r & (buckets_.size() - 1)].records.empty()) return r;
    }
    return kNever;
  }

  /// Rounds the ring currently spans (diagnostic; grows on demand).
  [[nodiscard]] std::uint64_t horizon() const noexcept {
    return buckets_.size();
  }

 private:
  struct Record {
    protocol::BlockIndex block = 0;
    std::uint32_t highest = 0;  ///< highest member so far
    std::uint32_t count = 0;    ///< members so far
  };
  /// One round's records; record i's member bitset is
  /// words[i·words_per_set_, (i+1)·words_per_set_).
  struct Bucket {
    std::vector<Record> records;
    std::vector<std::uint64_t> words;
  };

  [[nodiscard]] Bucket& bucket_at(std::uint64_t round) {
    return buckets_[round & (buckets_.size() - 1)];
  }
  /// The bucket `due_round` lands in, clamped and grown as schedule()
  /// documents.
  [[nodiscard]] NEATBOUND_HOT Bucket& bucket_for(std::uint64_t due_round) {
    // A message scheduled at or before an already-collected round is
    // late, not lost: it lands in the next collectable bucket.
    const std::uint64_t round = std::max(due_round, base_round_);
    NEATBOUND_EXPECTS(round - base_round_ < kMaxSpan,
                      "due round too far past the delivery horizon");
    if (round - base_round_ >= buckets_.size()) {
      grow(round - base_round_ + 1);
    }
    // Ring capacity: the bucket count must stay a power of two
    // (bucket_at masks with size-1) and span the scheduled round —
    // anything else and the append lands in a bucket belonging to a
    // different round.
    NEATBOUND_INVARIANT(std::has_single_bit(buckets_.size()),
                        "calendar ring size must be a power of two");
    NEATBOUND_INVARIANT(round - base_round_ < buckets_.size(),
                        "scheduled round outside the grown ring span");
    return bucket_at(round);
  }
  /// Member words of the record that recipients from `lowest` up join at
  /// the end of `bucket`: the last record's when it carries `block` and
  /// `lowest` is above its highest member, else a newly opened record's.
  [[nodiscard]] NEATBOUND_HOT std::uint64_t* record_words_for(
      Bucket& bucket, protocol::BlockIndex block, std::uint32_t lowest) {
    if (!bucket.records.empty() && bucket.records.back().block == block &&
        bucket.records.back().highest < lowest) {
      return bucket.words.data() + bucket.words.size() - words_per_set_;
    }
    return open_record(bucket, block);
  }
  /// Opens a new, empty record for `block` at the end of `bucket`.
  std::uint64_t* open_record(Bucket& bucket, protocol::BlockIndex block);
  /// Re-buckets into a ring spanning at least `span` rounds.
  void grow(std::uint64_t span);

  std::uint32_t recipient_count_;
  std::size_t words_per_set_;
  std::uint64_t base_round_ = 0;  ///< earliest round not yet collected
  std::size_t pending_ = 0;
  /// Power-of-two bucket count; bucket for round r is r mod size.
  std::vector<Bucket> buckets_;
  /// Member words of the record being drained (see drain_records).
  std::vector<std::uint64_t> members_;
  /// Every recipient, for schedule_all.
  std::vector<std::uint64_t> all_members_;
};

/// Chooses per-(message, recipient) delays, within [1, Δ].
class DeliverySchedule {
 public:
  virtual ~DeliverySchedule() = default;

  /// Delays for `block` broadcast by `sender` at `round`: fills out[r],
  /// in ascending r, for every recipient r ≠ sender (out.size() is the
  /// recipient count); out[sender] is ignored.  Each value must lie in
  /// [1, max_delay()].  Called once per broadcast.
  virtual void delays(std::uint64_t round, std::uint32_t sender,
                      protocol::BlockIndex block,
                      std::span<std::uint64_t> out) = 0;

  [[nodiscard]] virtual std::uint64_t max_delay() const noexcept = 0;
};

/// Synchronous baseline: every message arrives next round.
class ImmediateDelivery final : public DeliverySchedule {
 public:
  explicit ImmediateDelivery(std::uint64_t delta) : delta_(delta) {
    NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
  }
  void delays(std::uint64_t, std::uint32_t, protocol::BlockIndex,
              std::span<std::uint64_t> out) override {
    std::fill(out.begin(), out.end(), 1);
  }
  [[nodiscard]] std::uint64_t max_delay() const noexcept override {
    return delta_;
  }

 private:
  std::uint64_t delta_;
};

/// Worst-case benign adversary: everything takes the full Δ.
class MaxDelayDelivery final : public DeliverySchedule {
 public:
  explicit MaxDelayDelivery(std::uint64_t delta) : delta_(delta) {
    NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
  }
  void delays(std::uint64_t, std::uint32_t, protocol::BlockIndex,
              std::span<std::uint64_t> out) override {
    std::fill(out.begin(), out.end(), delta_);
  }
  [[nodiscard]] std::uint64_t max_delay() const noexcept override {
    return delta_;
  }

 private:
  std::uint64_t delta_;
};

/// Random delays uniform on [1, Δ] — a non-adversarial jittery network.
/// Every delay is a pure function of (key, round, sender, recipient) — no
/// stream state — so skipped, stepped and replayed runs read identical
/// delays regardless of draw order.  Each honest miner broadcasts at most
/// one block per round, so (round, sender, recipient) addresses every
/// delay draw uniquely.
class CounterUniformDelay final : public DeliverySchedule {
 public:
  CounterUniformDelay(std::uint64_t delta, crng::Key key)
      : delta_(delta), key_(key) {
    NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
  }
  /// Recipient r's delay is 1 + crng::Stream(key, round, sender·2³² + r,
  /// kNetDelay).uniform_below(Δ), drawn here without the Stream: the
  /// rejection threshold is computed once per broadcast, and r's draws
  /// are the lanes of its own Philox blocks at slots 0, 1, ... in order.
  // neatbound-analyze: allow(contract-coverage) — pure function of its
  // arguments; the only precondition (Δ ≥ 1) is enforced at construction.
  void delays(std::uint64_t round, std::uint32_t sender,
              protocol::BlockIndex,
              std::span<std::uint64_t> out) override {
    if (delta_ == 1) {
      std::fill(out.begin(), out.end(), 1);
      return;
    }
    // Draws below 2^64 mod Δ are rejected, so the final modulo is
    // unbiased (the same rule as Stream::uniform_below).
    const std::uint64_t threshold = (0 - delta_) % delta_;
    const std::uint64_t actor = static_cast<std::uint64_t>(sender) << 32;
    for (std::size_t r = 0; r < out.size(); ++r) {
      if (r == sender) continue;
      out[r] = 1 + draw_below(round, actor | r, threshold);
    }
  }
  [[nodiscard]] std::uint64_t max_delay() const noexcept override {
    return delta_;
  }

 private:
  /// The first lane at least `threshold`, over the Philox blocks at slots
  /// 0, 1, ... of (round, actor, kNetDelay), reduced modulo Δ.
  [[nodiscard]] std::uint64_t draw_below(std::uint64_t round,
                                         std::uint64_t actor,
                                         std::uint64_t threshold) const {
    for (std::uint64_t slot = 0;; ++slot) {
      const crng::Block block = crng::philox4x64(
          {round, actor, static_cast<std::uint64_t>(crng::Purpose::kNetDelay),
           slot},
          key_);
      for (const std::uint64_t bits : block) {
        if (bits >= threshold) return bits % delta_;
      }
    }
  }

  std::uint64_t delta_;
  crng::Key key_;
};

/// Partition-keeping schedule: recipients in the sender's group get the
/// message next round; the other group gets it after the full Δ.  This is
/// the delivery half of the PSS chain-splitting attack.
class SplitDelivery final : public DeliverySchedule {
 public:
  /// `group_of[i]` ∈ {0, 1} assigns each miner to a side.
  SplitDelivery(std::uint64_t delta, std::vector<std::uint8_t> group_of)
      : delta_(delta), group_of_(std::move(group_of)) {
    NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
  }
  void delays(std::uint64_t, std::uint32_t sender, protocol::BlockIndex,
              std::span<std::uint64_t> out) override {
    NEATBOUND_EXPECTS(sender < group_of_.size() &&
                          out.size() <= group_of_.size(),
                      "miner id out of range");
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = group_of_[sender] == group_of_[r] ? 1 : delta_;
    }
  }
  [[nodiscard]] std::uint64_t max_delay() const noexcept override {
    return delta_;
  }

 private:
  std::uint64_t delta_;
  std::vector<std::uint8_t> group_of_;
};

}  // namespace neatbound::net
