#include "net/delivery.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "support/contracts.hpp"
#include "support/crng.hpp"

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

TEST(Schedules, ImmediateAlwaysOne) {
  ImmediateDelivery schedule(8);
  EXPECT_EQ(schedule.delay(0, 0, 1, 0), 1u);
  EXPECT_EQ(schedule.max_delay(), 8u);
}

TEST(Schedules, MaxDelayAlwaysDelta) {
  MaxDelayDelivery schedule(8);
  EXPECT_EQ(schedule.delay(0, 0, 1, 0), 8u);
}

TEST(Schedules, UniformWithinBounds) {
  CounterUniformDelay schedule(5, crng::Key{1, 1});
  bool saw_low = false, saw_high = false;
  for (std::uint64_t round = 1; round <= 2000; ++round) {
    const std::uint64_t d = schedule.delay(round, 0, 1, 0);
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, 5u);
    saw_low |= (d == 1);
    saw_high |= (d == 5);
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(Schedules, SplitKeepsGroupsApart) {
  // Miners 0,1 in group 0; miners 2,3 in group 1.
  SplitDelivery schedule(6, {0, 0, 1, 1});
  EXPECT_EQ(schedule.delay(0, 0, 1, 0), 1u);  // same group
  EXPECT_EQ(schedule.delay(0, 2, 3, 0), 1u);
  EXPECT_EQ(schedule.delay(0, 0, 2, 0), 6u);  // cross group
  EXPECT_EQ(schedule.delay(0, 3, 1, 0), 6u);
}

TEST(Schedules, SplitChecksIds) {
  SplitDelivery schedule(6, {0, 1});
  EXPECT_THROW((void)schedule.delay(0, 0, 5, 0), ContractViolation);
}

TEST(Schedules, DeltaValidation) {
  EXPECT_THROW(ImmediateDelivery(0), ContractViolation);
  EXPECT_THROW(MaxDelayDelivery(0), ContractViolation);
  EXPECT_THROW(CounterUniformDelay(0, crng::Key{1, 1}), ContractViolation);
  EXPECT_THROW(SplitDelivery(0, {0, 1}), ContractViolation);
}

}  // namespace
}  // namespace neatbound::net
