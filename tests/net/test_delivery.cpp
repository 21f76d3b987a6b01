#include "net/delivery.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "support/contracts.hpp"
#include "support/crng.hpp"
#include "support/telemetry.hpp"

namespace neatbound::net {
namespace {

TEST(DeliveryCalendar, DeliversAtDueRound) {
  DeliveryCalendar calendar(4);
  calendar.schedule(5, 0, 10);
  calendar.schedule(3, 1, 11);
  calendar.schedule(7, 2, 12);
  EXPECT_EQ(calendar.pending(), 3u);

  auto due3 = calendar.collect_due(3);
  ASSERT_EQ(due3.size(), 1u);
  EXPECT_EQ(due3[0].recipient, 1u);
  EXPECT_EQ(due3[0].block, 11u);

  auto due6 = calendar.collect_due(6);
  ASSERT_EQ(due6.size(), 1u);
  EXPECT_EQ(due6[0].block, 10u);
  EXPECT_EQ(calendar.pending(), 1u);
}

TEST(DeliveryCalendar, CollectsMultipleInDueOrder) {
  DeliveryCalendar calendar(2);
  calendar.schedule(2, 0, 1);
  calendar.schedule(1, 1, 2);
  calendar.schedule(2, 1, 3);
  const auto due = calendar.collect_due(2);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].due_round, 1u);
}

TEST(DeliveryCalendar, FifoWithinARound) {
  // The calendar pins within-round order to schedule order (the old heap
  // left it unspecified); ascending due rounds between rounds.
  DeliveryCalendar calendar(4);
  calendar.schedule(3, 2, 30);
  calendar.schedule(2, 1, 20);
  calendar.schedule(3, 0, 31);
  calendar.schedule(2, 3, 21);
  calendar.schedule(3, 1, 32);
  const auto due = calendar.collect_due(3);
  ASSERT_EQ(due.size(), 5u);
  const std::uint64_t expected_rounds[] = {2, 2, 3, 3, 3};
  const protocol::BlockIndex expected_blocks[] = {20, 21, 30, 31, 32};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(due[i].due_round, expected_rounds[i]) << i;
    EXPECT_EQ(due[i].block, expected_blocks[i]) << i;
  }
}

TEST(DeliveryCalendar, GrowsPastTheInitialHorizon) {
  DeliveryCalendar calendar(2);
  const std::uint64_t start_horizon = calendar.horizon();
  calendar.schedule(1, 0, 1);
  calendar.schedule(start_horizon + 500, 1, 2);  // far beyond the ring
  EXPECT_GT(calendar.horizon(), start_horizon);
  EXPECT_EQ(calendar.pending(), 2u);
  // Both survive the re-bucketing, in due order.
  const auto due = calendar.collect_due(start_horizon + 500);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].block, 1u);
  EXPECT_EQ(due[1].block, 2u);
  EXPECT_EQ(due[1].due_round, start_horizon + 500);
}

TEST(DeliveryCalendar, LateScheduleClampsToNextCollect) {
  // Scheduling at or before an already-collected round may not lose the
  // message: it arrives at the next collect (late, like the old heap).
  DeliveryCalendar calendar(2);
  (void)calendar.collect_due(10);
  calendar.schedule(3, 0, 7);  // round 3 already collected
  EXPECT_EQ(calendar.pending(), 1u);
  EXPECT_TRUE(calendar.collect_due(10).empty());  // nothing newly due ≤ 10
  const auto due = calendar.collect_due(11);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].block, 7u);
}

TEST(DeliveryCalendar, DrainDueMatchesCollectDue) {
  crng::Stream rng(crng::Key{0, 5}, 0, 0, crng::Purpose::kGeneric);
  std::vector<Delivery> inserts;
  for (int i = 0; i < 200; ++i) {
    inserts.push_back(
        Delivery{1 + rng.uniform_below(12),
                 static_cast<std::uint32_t>(rng.uniform_below(4)),
                 static_cast<protocol::BlockIndex>(rng.uniform_below(50))});
  }
  DeliveryCalendar collected(4);
  DeliveryCalendar drained(4);
  for (const Delivery& d : inserts) {
    collected.schedule(d.due_round, d.recipient, d.block);
    drained.schedule(d.due_round, d.recipient, d.block);
  }
  for (std::uint64_t round = 0; round <= 12; ++round) {
    const auto via_collect = collected.collect_due(round);
    std::vector<Delivery> via_drain;
    drained.drain_due(round,
                      [&via_drain](const Delivery& d) { via_drain.push_back(d); });
    ASSERT_EQ(via_collect.size(), via_drain.size()) << "round " << round;
    for (std::size_t i = 0; i < via_collect.size(); ++i) {
      EXPECT_EQ(via_collect[i].due_round, via_drain[i].due_round);
      EXPECT_EQ(via_collect[i].recipient, via_drain[i].recipient);
      EXPECT_EQ(via_collect[i].block, via_drain[i].block);
    }
  }
  EXPECT_EQ(collected.pending(), 0u);
  EXPECT_EQ(drained.pending(), 0u);
}

struct DrainedRecord {
  std::uint64_t due_round;
  protocol::BlockIndex block;
  std::uint32_t count;
  std::vector<std::uint32_t> members;
};

std::vector<DrainedRecord> drain_all_records(DeliveryCalendar& calendar,
                                             std::uint64_t round) {
  std::vector<DrainedRecord> out;
  calendar.drain_records(round, [&out](const DeliveryRecord& r) {
    DrainedRecord d{r.due_round, r.block, r.count, {}};
    for_each_member(r.members,
                    [&d](std::uint32_t m) { d.members.push_back(m); });
    out.push_back(d);
  });
  return out;
}

// A record is a run of consecutive schedule() calls for one block with
// ascending recipients; a repeated or lower recipient, or another block,
// opens a new record.  Expanding the records replays the calls exactly.
TEST(DeliveryCalendar, RecordsGroupAscendingRunsOfOneBlock) {
  const std::vector<std::pair<std::uint32_t, protocol::BlockIndex>> calls = {
      {0, 5}, {2, 5}, {1, 5}, {1, 6}, {3, 6}, {0, 5}};
  DeliveryCalendar grouped(4);
  DeliveryCalendar expanded(4);
  for (const auto& [to, block] : calls) {
    grouped.schedule(3, to, block);
    expanded.schedule(3, to, block);
  }
  const std::vector<DrainedRecord> records = drain_all_records(grouped, 3);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].block, 5u);
  EXPECT_EQ(records[0].members, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(records[1].members, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(records[2].block, 6u);
  EXPECT_EQ(records[2].members, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(records[3].block, 5u);
  EXPECT_EQ(records[3].members, (std::vector<std::uint32_t>{0}));
  for (const DrainedRecord& r : records) {
    EXPECT_EQ(r.due_round, 3u);
    EXPECT_EQ(r.count, r.members.size());
  }
  const std::vector<Delivery> due = expanded.collect_due(3);
  ASSERT_EQ(due.size(), calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(due[i].recipient, calls[i].first);
    EXPECT_EQ(due[i].block, calls[i].second);
  }
  EXPECT_EQ(grouped.pending(), 0u);
}

// schedule_all is one schedule() per recipient, ascending — including
// across a 64-recipient word boundary and after a record for the same
// block (recipient 0 can never extend it).
TEST(DeliveryCalendar, ScheduleAllEqualsOneCallPerRecipient) {
  constexpr std::uint32_t kRecipients = 70;
  DeliveryCalendar bulk(kRecipients);
  DeliveryCalendar single(kRecipients);
  bulk.schedule(5, 3, 9);
  single.schedule(5, 3, 9);
  bulk.schedule_all(5, 9);
  for (std::uint32_t r = 0; r < kRecipients; ++r) single.schedule(5, r, 9);
  EXPECT_EQ(bulk.pending(), single.pending());
  const std::vector<DrainedRecord> a = drain_all_records(bulk, 5);
  const std::vector<DrainedRecord> b = drain_all_records(single, 5);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].block, b[i].block);
    EXPECT_EQ(a[i].count, b[i].count);
    EXPECT_EQ(a[i].members, b[i].members);
  }
  EXPECT_EQ(a[1].count, kRecipients);
}

/// A recipient bitset of `recipients` bits holding exactly `members`.
std::vector<std::uint64_t> member_set(
    std::uint32_t recipients, const std::vector<std::uint32_t>& members) {
  std::vector<std::uint64_t> words((recipients + 63) / 64, 0);
  for (const std::uint32_t m : members) {
    words[m / 64] |= std::uint64_t{1} << (m % 64);
  }
  return words;
}

/// Schedules `members` of `block` at `due` into `by_set` with one
/// schedule_set call and into `by_member` with ascending schedule() calls.
void schedule_both(DeliveryCalendar& by_set, DeliveryCalendar& by_member,
                   std::uint32_t recipients, std::uint64_t due,
                   protocol::BlockIndex block,
                   const std::vector<std::uint32_t>& members) {
  by_set.schedule_set(due, block, member_set(recipients, members));
  for (const std::uint32_t m : members) by_member.schedule(due, m, block);
}

void expect_same_records(const std::vector<DrainedRecord>& a,
                         const std::vector<DrainedRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_round, b[i].due_round) << "record " << i;
    EXPECT_EQ(a[i].block, b[i].block) << "record " << i;
    EXPECT_EQ(a[i].count, b[i].count) << "record " << i;
    EXPECT_EQ(a[i].members, b[i].members) << "record " << i;
  }
}

// schedule_set leaves exactly the records and pending() that schedule()
// for each member in ascending order leaves, in every way a set can meet
// the bucket's last record.
TEST(DeliveryCalendar, ScheduleSetEqualsAscendingScheduleCalls) {
  constexpr std::uint32_t kRecipients = 130;
  DeliveryCalendar by_set(kRecipients);
  DeliveryCalendar by_member(kRecipients);
  const auto both = [&](std::uint64_t due, protocol::BlockIndex block,
                        const std::vector<std::uint32_t>& members) {
    schedule_both(by_set, by_member, kRecipients, due, block, members);
    EXPECT_EQ(by_set.pending(), by_member.pending());
  };
  // Joins the last record of the same block: the set's lowest member is
  // above the record's highest (and spans a word boundary).
  both(3, 5, {0, 2});
  both(3, 5, {4, 64, 129});
  // Another block opens a record.
  both(3, 6, {1, 3});
  // The same block again, but the set's lowest member is not above the
  // record's highest: a new record, even though 70 is above it.
  both(3, 6, {3, 70});
  both(3, 6, {2});
  // An empty set schedules nothing.
  both(3, 6, {});
  // Other rounds, including one past the initial ring span.
  both(4, 5, {7});
  both(40, 8, {0, 127});
  expect_same_records(drain_all_records(by_set, 3),
                      drain_all_records(by_member, 3));
  // Due at or before the drain point: clamped into the next collectable
  // round, joining what is already there exactly as schedule() does.
  both(2, 5, {8, 9});
  both(4, 5, {10});
  expect_same_records(drain_all_records(by_set, 40),
                      drain_all_records(by_member, 40));
  EXPECT_EQ(by_set.pending(), 0u);
  EXPECT_EQ(by_member.pending(), 0u);
}

// The same-round case: a set of the block being drained, scheduled from
// its own callback, opens a record the same drain delivers — as the
// per-recipient calls do (the consumed record is closed first).
TEST(DeliveryCalendar, ScheduleSetFromDrainCallbackMatchesScheduleCalls) {
  constexpr std::uint32_t kRecipients = 10;
  DeliveryCalendar by_set(kRecipients);
  DeliveryCalendar by_member(kRecipients);
  schedule_both(by_set, by_member, kRecipients, 2, 7, {3});
  const auto drain = [&](DeliveryCalendar& calendar, bool as_set) {
    std::vector<DrainedRecord> seen;
    calendar.drain_records(2, [&](const DeliveryRecord& r) {
      if (seen.empty()) {
        if (as_set) {
          calendar.schedule_set(2, 7, member_set(kRecipients, {5, 9}));
        } else {
          calendar.schedule(2, 5, 7);
          calendar.schedule(2, 9, 7);
        }
      }
      DrainedRecord d{r.due_round, r.block, r.count, {}};
      for_each_member(r.members,
                      [&d](std::uint32_t m) { d.members.push_back(m); });
      seen.push_back(d);
    });
    return seen;
  };
  const std::vector<DrainedRecord> a = drain(by_set, true);
  const std::vector<DrainedRecord> b = drain(by_member, false);
  expect_same_records(a, b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[1].members, (std::vector<std::uint32_t>{5, 9}));
  EXPECT_EQ(by_set.pending(), 0u);
  EXPECT_EQ(by_member.pending(), 0u);
}

// kCalendarScheduled counts scheduled deliveries per member, whichever
// entry point scheduled them.
TEST(DeliveryCalendar, ScheduleSetCountsEveryMember) {
  if (!telemetry::enabled()) GTEST_SKIP() << "telemetry compiled out";
  constexpr auto kScheduled = static_cast<std::size_t>(
      telemetry::Counter::kCalendarScheduled);
  DeliveryCalendar calendar(70);
  telemetry::reset();
  calendar.schedule_set(3, 1, member_set(70, {0, 5, 69}));
  calendar.schedule(3, 6, 2);
  calendar.schedule_all(4, 3);
  EXPECT_EQ(telemetry::snapshot().counters[kScheduled], 3u + 1u + 70u);
}

TEST(DeliveryCalendar, ScheduleSetRejectsMalformedSets) {
  DeliveryCalendar calendar(70);
  EXPECT_THROW(calendar.schedule_set(3, 1, member_set(64, {1})),
               ContractViolation);  // one word, two needed
  EXPECT_THROW(calendar.schedule_set(3, 1, member_set(128, {70})),
               ContractViolation);  // member past the last recipient
  EXPECT_EQ(calendar.pending(), 0u);
}

// A callback may schedule into the round being drained; the record it is
// reading stays intact and the new delivery is drained in the same call.
TEST(DeliveryCalendar, DrainRecordsToleratesSameRoundScheduling) {
  DeliveryCalendar calendar(130);
  calendar.schedule(2, 129, 1);
  std::vector<DrainedRecord> seen;
  calendar.drain_records(2, [&](const DeliveryRecord& r) {
    if (r.block == 1) {
      for (protocol::BlockIndex b = 2; b < 40; ++b) calendar.schedule(2, 0, b);
    }
    DrainedRecord d{r.due_round, r.block, r.count, {}};
    for_each_member(r.members,
                    [&d](std::uint32_t m) { d.members.push_back(m); });
    seen.push_back(d);
  });
  ASSERT_EQ(seen.size(), 39u);
  EXPECT_EQ(seen[0].members, (std::vector<std::uint32_t>{129}));
  EXPECT_EQ(seen[38].block, 39u);
  EXPECT_EQ(calendar.pending(), 0u);
}

// A record is consumed before its callback runs, so scheduling the same
// block to a higher recipient from inside the callback must open a new
// record (delivered in the same drain) instead of joining the consumed one.
TEST(DeliveryCalendar, DrainDeliversSameBlockScheduledFromItsCallback) {
  DeliveryCalendar calendar(10);
  calendar.schedule(2, 3, 7);
  std::vector<DrainedRecord> seen;
  calendar.drain_records(2, [&](const DeliveryRecord& r) {
    if (seen.empty()) {
      calendar.schedule(2, 5, 7);  // due this round
      calendar.schedule(1, 9, 7);  // late: clamped into this round
    }
    DrainedRecord d{r.due_round, r.block, r.count, {}};
    for_each_member(r.members,
                    [&d](std::uint32_t m) { d.members.push_back(m); });
    seen.push_back(d);
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].members, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(seen[1].block, 7u);
  EXPECT_EQ(seen[1].members, (std::vector<std::uint32_t>{5, 9}));
  EXPECT_EQ(calendar.pending(), 0u);
  EXPECT_FALSE(calendar.has_due(10));

  // The per-recipient drain sees the same deliveries.
  calendar.schedule(12, 3, 7);
  std::vector<std::uint32_t> recipients;
  calendar.drain_due(12, [&](const Delivery& d) {
    if (recipients.empty()) calendar.schedule(12, 5, 7);
    recipients.push_back(d.recipient);
  });
  EXPECT_EQ(recipients, (std::vector<std::uint32_t>{3, 5}));
  EXPECT_EQ(calendar.pending(), 0u);
}

TEST(DeliveryCalendar, RejectsBadRecipient) {
  DeliveryCalendar calendar(2);
  EXPECT_THROW(calendar.schedule(1, 2, 0), ContractViolation);
  EXPECT_THROW(DeliveryCalendar(0), ContractViolation);
}

TEST(DeliveryCalendar, RejectsFarFutureSchedule) {
  // Memory is O(span): a due round past kMaxSpan is a contract violation,
  // not an unbounded allocation.
  DeliveryCalendar calendar(2);
  calendar.schedule(DeliveryCalendar::kMaxSpan - 1, 0, 1);  // just inside
  EXPECT_THROW(calendar.schedule(DeliveryCalendar::kMaxSpan, 0, 2),
               ContractViolation);
  EXPECT_THROW(calendar.schedule(~std::uint64_t{0}, 0, 3),
               ContractViolation);
  // The horizon is relative to the drain point, not absolute.
  (void)calendar.collect_due(DeliveryCalendar::kMaxSpan);
  calendar.schedule(2 * DeliveryCalendar::kMaxSpan, 1, 4);
  EXPECT_EQ(calendar.pending(), 1u);
}

/// The delays `schedule` gives a broadcast by `sender` to `recipients`
/// miners, with the sender's own (ignored) entry left at 0.
std::vector<std::uint64_t> delays_of(DeliverySchedule& schedule,
                                     std::uint64_t round,
                                     std::uint32_t recipients,
                                     std::uint32_t sender) {
  std::vector<std::uint64_t> out(recipients, 0);
  schedule.delays(round, sender, 0, out);
  out[sender] = 0;
  return out;
}

TEST(Schedules, ImmediateAlwaysOne) {
  ImmediateDelivery schedule(8);
  EXPECT_EQ(delays_of(schedule, 0, 3, 0),
            (std::vector<std::uint64_t>{0, 1, 1}));
  EXPECT_EQ(schedule.max_delay(), 8u);
}

TEST(Schedules, MaxDelayAlwaysDelta) {
  MaxDelayDelivery schedule(8);
  EXPECT_EQ(delays_of(schedule, 0, 3, 2),
            (std::vector<std::uint64_t>{8, 8, 0}));
}

TEST(Schedules, UniformWithinBounds) {
  CounterUniformDelay schedule(5, crng::Key{1, 1});
  bool saw_low = false, saw_high = false;
  for (std::uint64_t round = 1; round <= 2000; ++round) {
    const std::uint64_t d = delays_of(schedule, round, 2, 0)[1];
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, 5u);
    saw_low |= (d == 1);
    saw_high |= (d == 5);
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

// Recipient r's delay is the uniform_below draw of its own Stream at
// (round, sender·2^32 + r, kNetDelay), whatever Δ.  Δ = 2^63 + 1 rejects
// almost half of all draws, so runs of rejected lanes cross into later
// Philox blocks.
TEST(Schedules, UniformMatchesOneStreamPerRecipient) {
  const crng::Key key{0x1234, 99};
  for (const std::uint64_t delta :
       {std::uint64_t{2}, std::uint64_t{4}, std::uint64_t{1000},
        (std::uint64_t{1} << 63) + 1}) {
    CounterUniformDelay schedule(delta, key);
    for (std::uint64_t round = 1; round <= 40; ++round) {
      const std::uint32_t sender = static_cast<std::uint32_t>(round % 7);
      const std::vector<std::uint64_t> got =
          delays_of(schedule, round, 70, sender);
      for (std::uint32_t r = 0; r < 70; ++r) {
        if (r == sender) continue;
        crng::Stream stream(key, round,
                            (std::uint64_t{sender} << 32) | r,
                            crng::Purpose::kNetDelay);
        ASSERT_EQ(got[r], 1 + stream.uniform_below(delta))
            << "delta " << delta << " round " << round << " recipient " << r;
      }
    }
  }
}

TEST(Schedules, SplitKeepsGroupsApart) {
  // Miners 0,1 in group 0; miners 2,3 in group 1.
  SplitDelivery schedule(6, {0, 0, 1, 1});
  EXPECT_EQ(delays_of(schedule, 0, 4, 0),
            (std::vector<std::uint64_t>{0, 1, 6, 6}));
  EXPECT_EQ(delays_of(schedule, 0, 4, 3),
            (std::vector<std::uint64_t>{6, 6, 1, 0}));
}

TEST(Schedules, SplitChecksIds) {
  SplitDelivery schedule(6, {0, 1});
  std::vector<std::uint64_t> out(6, 0);
  EXPECT_THROW(schedule.delays(0, 0, 0, out), ContractViolation);
  out.resize(2);
  EXPECT_THROW(schedule.delays(0, 5, 0, out), ContractViolation);
}

TEST(Schedules, DeltaValidation) {
  EXPECT_THROW(ImmediateDelivery(0), ContractViolation);
  EXPECT_THROW(MaxDelayDelivery(0), ContractViolation);
  EXPECT_THROW(CounterUniformDelay(0, crng::Key{1, 1}), ContractViolation);
  EXPECT_THROW(SplitDelivery(0, {0, 1}), ContractViolation);
}

}  // namespace
}  // namespace neatbound::net
