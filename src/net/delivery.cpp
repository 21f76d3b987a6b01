#include "net/delivery.hpp"

#include <algorithm>
#include <bit>

#include "support/invariant.hpp"
#include "support/telemetry.hpp"

namespace neatbound::net {

namespace {
constexpr std::uint64_t kInitialSpan = 16;  ///< ring buckets at construction
}  // namespace

DeliveryCalendar::DeliveryCalendar(std::uint32_t recipient_count)
    : recipient_count_(recipient_count),
      words_per_set_((std::size_t{recipient_count} + 63) / 64),
      buckets_(kInitialSpan),
      members_(words_per_set_, 0),
      all_members_(words_per_set_, 0) {
  NEATBOUND_EXPECTS(recipient_count > 0, "need at least one recipient");
  set_all_members(all_members_, recipient_count_);
}

// neatbound-analyze: allow(contract-coverage) — private helper whose
// callers check the bucket and recipient preconditions.
std::uint64_t* DeliveryCalendar::open_record(Bucket& bucket,
                                             protocol::BlockIndex block) {
  // neatbound-analyze: allow(hot-alloc) — O(1) amortized appends into a
  // bucket whose capacity is retained across rounds (cleared, never
  // shrunk), so steady-state scheduling allocates nothing.
  bucket.records.push_back(Record{block, 0, 0});
  // neatbound-analyze: allow(hot-alloc) — same bucket, same reason
  bucket.words.resize(bucket.words.size() + words_per_set_, 0);
  return bucket.words.data() + bucket.words.size() - words_per_set_;
}

void DeliveryCalendar::schedule_set(std::uint64_t due_round,
                                    protocol::BlockIndex block,
                                    std::span<const std::uint64_t> members) {
  NEATBOUND_EXPECTS(members.size() == words_per_set_,
                    "member set must hold one word per 64 recipients");
  // Only the last word can hold bits past the last recipient.
  NEATBOUND_EXPECTS((members.back() & ~all_members_.back()) == 0,
                    "recipient out of range");
  std::size_t first = 0;
  while (first < words_per_set_ && members[first] == 0) ++first;
  if (first == words_per_set_) return;
  const auto lowest = static_cast<std::uint32_t>(
      first * 64 + std::countr_zero(members[first]));
  Bucket& bucket = bucket_for(due_round);
  std::uint64_t* words = record_words_for(bucket, block, lowest);
  std::size_t last = first;
  std::uint32_t count = 0;
  for (std::size_t w = first; w < words_per_set_; ++w) {
    words[w] |= members[w];
    count += static_cast<std::uint32_t>(std::popcount(members[w]));
    if (members[w] != 0) last = w;
  }
  Record& record = bucket.records.back();
  record.highest = static_cast<std::uint32_t>(
      last * 64 + 63 - std::countl_zero(members[last]));
  record.count += count;
  pending_ += count;
  NEATBOUND_COUNT_ADD(kCalendarScheduled, count);
}

// neatbound-analyze: allow(contract-coverage) — thin cold wrapper: the
// preconditions and ring invariants live in drain_due/schedule, which it
// delegates to; it adds no state of its own to check.
std::vector<Delivery> DeliveryCalendar::collect_due(std::uint64_t round) {
  std::vector<Delivery> due;
  due.reserve(pending_);
  drain_due(round, [&due](const Delivery& d) { due.push_back(d); });
  return due;
}

// neatbound-analyze: allow(hot-alloc) — accepted allocation boundary:
// re-bucketing the ring is rare by design (power-of-two growth capped at
// kMaxSpan), and schedule() only enters it when the horizon is exceeded.
void DeliveryCalendar::grow(std::uint64_t span) {
  NEATBOUND_COUNT(kCalendarGrows);
  const std::uint64_t old_size = buckets_.size();
  std::vector<Bucket> grown(std::bit_ceil(span));
  // Every pending entry lives in [base_round_, base_round_ + old span);
  // move each round's bucket wholesale to its slot in the wider ring.
  for (std::uint64_t r = base_round_; r < base_round_ + old_size; ++r) {
    grown[r & (grown.size() - 1)] = std::move(buckets_[r & (old_size - 1)]);
  }
  buckets_ = std::move(grown);
  // Re-bucketing must preserve every pending entry: the new ring holds
  // exactly pending_ messages, all within the live window.
  NEATBOUND_INVARIANT(
      [&] {
        std::size_t total = 0;
        for (const Bucket& bucket : buckets_) {
          for (const Record& record : bucket.records) total += record.count;
        }
        return total == pending_;
      }(),
      "grow() lost or duplicated pending deliveries");
}

}  // namespace neatbound::net
