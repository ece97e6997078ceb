#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace myrtus::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(SimTime::Millis(3).ns, 3'000'000);
  EXPECT_EQ(SimTime::Seconds(2).ns, 2'000'000'000);
  EXPECT_DOUBLE_EQ(SimTime::Millis(1500).ToSecondsF(), 1.5);
  EXPECT_EQ(SimTime::FromSeconds(0.001).ns, 1'000'000);
}

TEST(SimTime, Arithmetic) {
  EXPECT_EQ((SimTime::Millis(2) + SimTime::Millis(3)).ns, SimTime::Millis(5).ns);
  EXPECT_LT(SimTime::Millis(2), SimTime::Millis(3));
  EXPECT_EQ(SimTime::Micros(5) * 3, SimTime::Micros(15));
}

TEST(Engine, ExecutesInTimestampOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(SimTime::Millis(30), [&] { order.push_back(3); });
  e.ScheduleAt(SimTime::Millis(10), [&] { order.push_back(1); });
  e.ScheduleAt(SimTime::Millis(20), [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.Now(), SimTime::Millis(30));
}

TEST(Engine, FifoTieBreakAtEqualTimestamps) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(SimTime::Millis(5), [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  SimTime seen = SimTime::Zero();
  e.ScheduleAt(SimTime::Millis(10), [&] {
    e.ScheduleAfter(SimTime::Millis(5), [&] { seen = e.Now(); });
  });
  e.Run();
  EXPECT_EQ(seen, SimTime::Millis(15));
}

TEST(Engine, PastSchedulingClampsToNow) {
  Engine e;
  SimTime seen{-1};
  e.ScheduleAt(SimTime::Millis(10), [&] {
    e.ScheduleAt(SimTime::Millis(1), [&] { seen = e.Now(); });
  });
  e.Run();
  EXPECT_EQ(seen, SimTime::Millis(10));
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  EventHandle h = e.ScheduleAt(SimTime::Millis(10), [&] { fired = true; });
  e.Cancel(h);
  e.Run();
  EXPECT_FALSE(fired);
}

TEST(Engine, PeriodicFiresUntilCancelled) {
  Engine e;
  int count = 0;
  EventHandle h = e.SchedulePeriodic(SimTime::Millis(10), [&] { ++count; });
  e.RunUntil(SimTime::Millis(55));
  EXPECT_EQ(count, 5);
  e.Cancel(h);
  e.RunUntil(SimTime::Millis(200));
  EXPECT_EQ(count, 5);
}

TEST(Engine, PeriodicCanCancelItself) {
  Engine e;
  int count = 0;
  EventHandle h;
  h = e.SchedulePeriodic(SimTime::Millis(10), [&] {
    if (++count == 3) e.Cancel(h);
  });
  e.RunUntil(SimTime::Seconds(10));
  EXPECT_EQ(count, 3);
}

TEST(Engine, RunUntilAdvancesClockToDeadline) {
  Engine e;
  e.RunUntil(SimTime::Millis(100));
  EXPECT_EQ(e.Now(), SimTime::Millis(100));
}

TEST(Engine, RunUntilLeavesFutureEventsPending) {
  Engine e;
  bool fired = false;
  e.ScheduleAt(SimTime::Millis(200), [&] { fired = true; });
  e.RunUntil(SimTime::Millis(100));
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.pending_events(), 1u);
  e.Run();
  EXPECT_TRUE(fired);
}

TEST(Engine, StopInterruptsRun) {
  Engine e;
  int count = 0;
  e.SchedulePeriodic(SimTime::Millis(1), [&] {
    if (++count == 10) e.Stop();
  });
  e.Run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, RunWithEventLimit) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 100; ++i) {
    e.ScheduleAt(SimTime::Millis(i), [&] { ++count; });
  }
  EXPECT_EQ(e.Run(7), 7u);
  EXPECT_EQ(count, 7);
}

// Regression: RunUntil used to set the clock to the deadline even when
// Stop() ended it early, so the next run fired earlier events in the past.
TEST(Engine, RunUntilStoppedEarlyKeepsTheClockAtTheLastEvent) {
  Engine e;
  std::vector<std::int64_t> fired_at;
  e.ScheduleAt(SimTime::Millis(10), [&] {
    fired_at.push_back(e.Now().ns);
    e.Stop();
  });
  e.ScheduleAt(SimTime::Millis(20), [&] { fired_at.push_back(e.Now().ns); });
  EXPECT_EQ(e.RunUntil(SimTime::Millis(100)), 1u);
  EXPECT_EQ(e.Now(), SimTime::Millis(10));
  e.Run();
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{SimTime::Millis(10).ns,
                                                 SimTime::Millis(20).ns}));
  EXPECT_EQ(e.Now(), SimTime::Millis(20));
}

TEST(Engine, CancelReleasesTheCallbackCapturesAtOnce) {
  Engine e;
  auto payload = std::make_shared<int>(7);
  const EventHandle h =
      e.ScheduleAfter(SimTime::Seconds(10), [payload] { ++*payload; });
  const EventHandle tick =
      e.SchedulePeriodic(SimTime::Seconds(10), [payload] { ++*payload; });
  EXPECT_EQ(payload.use_count(), 3);
  e.Cancel(h);
  e.Cancel(tick);
  EXPECT_EQ(payload.use_count(), 1);  // not held until the deadline
  EXPECT_EQ(e.live_events(), 0u);
  EXPECT_EQ(e.pending_events(), 2u);  // the dead entries stay queued
  e.Run();
  EXPECT_EQ(*payload, 7);
}

TEST(Engine, StaleHandleCannotCancelTheSlotsNextEvent) {
  Engine e;
  bool first = false;
  bool second = false;
  const EventHandle stale =
      e.ScheduleAt(SimTime::Millis(5), [&] { first = true; });
  e.Cancel(stale);
  // The freed slot is reused by the next event.
  e.ScheduleAt(SimTime::Millis(5), [&] { second = true; });
  EXPECT_EQ(e.live_events(), 1u);
  e.Cancel(stale);
  EXPECT_EQ(e.live_events(), 1u);
  e.Run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(Engine, CancelAfterFireIsANoOp) {
  Engine e;
  int fired = 0;
  const EventHandle h = e.ScheduleAt(SimTime::Millis(1), [&] { ++fired; });
  e.Run();
  EXPECT_EQ(e.live_events(), 0u);
  e.Cancel(h);
  int later = 0;
  e.ScheduleAt(SimTime::Millis(2), [&] { ++later; });
  e.Cancel(h);  // the slot now holds the new event; h must not reach it
  e.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(later, 1);
  EXPECT_EQ(e.live_events(), 0u);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, CancelOwnHandleInsideOneShotCallbackIsANoOp) {
  Engine e;
  EventHandle self;
  int next = 0;
  self = e.ScheduleAt(SimTime::Millis(1), [&] {
    // The slot is already free: this schedule may reuse it, and cancelling
    // the firing event's own handle must not reach the new event.
    e.ScheduleAfter(SimTime::Millis(1), [&] { ++next; });
    e.Cancel(self);
  });
  e.Run();
  EXPECT_EQ(next, 1);
}

TEST(Engine, PeriodicThatCancelsItselfAndSchedulesStopsTheSeries) {
  Engine e;
  int ticks = 0;
  int follow_up = 0;
  EventHandle h;
  h = e.SchedulePeriodic(SimTime::Millis(10), [&] {
    ++ticks;
    e.Cancel(h);
    // May land in the series' just-freed slot.
    e.ScheduleAfter(SimTime::Millis(10), [&] { ++follow_up; });
  });
  e.RunUntil(SimTime::Seconds(1));
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(follow_up, 1);
  EXPECT_EQ(e.live_events(), 0u);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, CancelledPeriodicsQueuedTickStillCountsAsExecuted) {
  Engine e;
  int ticks = 0;
  const EventHandle h =
      e.SchedulePeriodic(SimTime::Millis(10), [&] { ++ticks; });
  e.RunUntil(SimTime::Millis(15));
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(e.executed_events(), 1u);
  e.Cancel(h);
  EXPECT_EQ(e.pending_events(), 1u);  // the 20 ms tick, now dead
  // The dead tick fires as a no-op, counted, and advances the clock; a dead
  // one-shot would be dropped uncounted.
  EXPECT_EQ(e.Run(), 1u);
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(e.executed_events(), 2u);
  EXPECT_EQ(e.Now(), SimTime::Millis(20));

  const EventHandle one_shot = e.ScheduleAfter(SimTime::Millis(1), [] {});
  e.Cancel(one_shot);
  EXPECT_EQ(e.Run(), 0u);
  EXPECT_EQ(e.executed_events(), 2u);
}

// Regression: a zero (or negative) period used to re-enqueue the task at the
// same timestamp forever, hanging Run()/RunUntil(). It is now clamped to the
// 1 ns tick, so the loop advances and terminates.
TEST(Engine, SchedulePeriodicClampsNonPositivePeriod) {
  Engine e;
  int zero_fires = 0;
  const EventHandle h =
      e.SchedulePeriodic(SimTime::Zero(), [&] { ++zero_fires; });
  EXPECT_TRUE(h.valid());
  e.RunUntil(SimTime::Nanos(10));
  EXPECT_EQ(zero_fires, 10);  // one fire per clamped 1 ns tick
  e.Cancel(h);

  int negative_fires = 0;
  e.SchedulePeriodic(SimTime::Nanos(-5), [&] { ++negative_fires; });
  e.RunUntil(e.Now() + SimTime::Nanos(3));
  EXPECT_EQ(negative_fires, 3);
}

}  // namespace
}  // namespace myrtus::sim
