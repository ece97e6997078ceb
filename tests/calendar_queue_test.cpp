#include "sim/calendar_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "util/rng.hpp"

namespace myrtus::sim {
namespace {

// Reference model: a binary heap with the same (at_ns, seq) order the
// calendar queue promises. Property tests drive both structures with one
// operation stream and demand identical pop sequences.
struct Later {
  bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
    if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
    return a.seq > b.seq;
  }
};
using ReferenceHeap =
    std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, Later>;

QueuedEvent Ev(std::int64_t at_ns, std::uint64_t seq) {
  return QueuedEvent{at_ns, seq};
}

TEST(CalendarQueue, PopsByTimestampThenSeq) {
  CalendarQueue q;
  q.Push(Ev(30, 1));
  q.Push(Ev(10, 2));
  q.Push(Ev(10, 3));
  q.Push(Ev(20, 4));
  std::vector<std::uint64_t> seqs;
  QueuedEvent out;
  while (q.PopMin(out)) seqs.push_back(out.seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{2, 3, 4, 1}));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, FifoWithinEqualTimestamps) {
  CalendarQueue q;
  for (std::uint64_t s = 1; s <= 100; ++s) q.Push(Ev(5'000, s));
  QueuedEvent out;
  std::uint64_t expect = 1;
  while (q.PopMin(out)) EXPECT_EQ(out.seq, expect++);
  EXPECT_EQ(expect, 101u);
}

TEST(CalendarQueue, MatchesReferenceHeapUnderRandomWorkload) {
  util::Rng rng(0xC0FFEEu, "calendar-property");
  CalendarQueue q;
  ReferenceHeap ref;
  std::uint64_t seq = 1;
  std::int64_t clock = 0;

  for (int step = 0; step < 20'000; ++step) {
    const bool push = ref.empty() || rng.NextDouble() < 0.55;
    if (push) {
      // Mixed horizon: mostly near-future, occasionally far future to force
      // the queue through empty-day scans and year-wrap fallbacks.
      std::int64_t delta = static_cast<std::int64_t>(rng.NextBounded(1'000));
      if (rng.NextDouble() < 0.02) {
        delta += static_cast<std::int64_t>(rng.NextBounded(100) + 1) * 1'000'000;
      }
      const QueuedEvent ev = Ev(clock + delta, seq++);
      q.Push(Ev(ev.at_ns, ev.seq));
      ref.push(ev);
    } else {
      QueuedEvent got;
      ASSERT_TRUE(q.PopMin(got));
      const QueuedEvent want = ref.top();
      ref.pop();
      ASSERT_EQ(got.at_ns, want.at_ns) << "step " << step;
      ASSERT_EQ(got.seq, want.seq) << "step " << step;
      ASSERT_GE(got.at_ns, clock);  // time never runs backwards
      clock = got.at_ns;
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  // Drain whatever is left and compare the tails too.
  QueuedEvent got;
  while (q.PopMin(got)) {
    const QueuedEvent want = ref.top();
    ref.pop();
    ASSERT_EQ(got.at_ns, want.at_ns);
    ASSERT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(ref.empty());
}

TEST(CalendarQueue, ResizesWithPopulation) {
  CalendarQueue q;
  const std::size_t initial = q.bucket_count();
  for (std::uint64_t s = 0; s < 4096; ++s) {
    q.Push(Ev(static_cast<std::int64_t>(s) * 17, s));
  }
  EXPECT_GT(q.bucket_count(), initial);
  QueuedEvent out;
  while (q.PopMin(out)) {
  }
  EXPECT_EQ(q.bucket_count(), initial);  // shrinks back as it drains
}

TEST(CalendarQueue, SparseFarApartEvents) {
  // Events much farther apart than nbuckets * width exercise the full-year
  // fallback that jumps the cursor directly to the global minimum.
  CalendarQueue q;
  std::vector<std::int64_t> times = {0, 1'000'000'000, 7'000'000'000,
                                     7'000'000'001, 90'000'000'000};
  for (std::size_t i = 0; i < times.size(); ++i) {
    q.Push(Ev(times[times.size() - 1 - i], static_cast<std::uint64_t>(i)));
  }
  std::vector<std::int64_t> popped;
  QueuedEvent out;
  while (q.PopMin(out)) popped.push_back(out.at_ns);
  std::vector<std::int64_t> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(popped, sorted);
}

TEST(CalendarQueue, PushEarlierThanCursorReordersCorrectly) {
  CalendarQueue q;
  q.Push(Ev(1'000, 1));
  q.Push(Ev(2'000, 2));
  QueuedEvent out;
  ASSERT_TRUE(q.PopMin(out));
  EXPECT_EQ(out.at_ns, 1'000);
  // An event landing before the cursor's current window must still pop next.
  q.Push(Ev(1'100, 3));
  ASSERT_TRUE(q.PopMin(out));
  EXPECT_EQ(out.at_ns, 1'100);
  ASSERT_TRUE(q.PopMin(out));
  EXPECT_EQ(out.at_ns, 2'000);
}

}  // namespace
}  // namespace myrtus::sim
