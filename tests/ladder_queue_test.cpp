#include "sim/ladder_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace myrtus::sim {
namespace {

// Reference model: a binary heap with the same (at_ns, seq) order the
// ladder queue promises. Property tests drive both structures with one
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

TEST(LadderQueue, PopsByTimestampThenSeq) {
  LadderQueue q;
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

TEST(LadderQueue, FifoWithinEqualTimestamps) {
  LadderQueue q;
  for (std::uint64_t s = 1; s <= 100; ++s) q.Push(Ev(5'000, s));
  QueuedEvent out;
  std::uint64_t expect = 1;
  while (q.PopMin(out)) EXPECT_EQ(out.seq, expect++);
  EXPECT_EQ(expect, 101u);
}

// Operation-stream shapes for the differential test. Times are offsets from
// the last popped timestamp, as the engine schedules them.
enum class Shape {
  kUniformNearTerm,   // every event within 1 us
  kBimodalTimeouts,   // microsecond hops plus 10 s RPC timeouts
  kBurstsOnLiveBottom,  // equal-timestamp bursts at the current time
  kSparseSpans,       // offsets up to 2^40 ns
  kPutBack,           // RunUntil puts the popped minimum back
};

std::string ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kUniformNearTerm: return "uniform";
    case Shape::kBimodalTimeouts: return "bimodal";
    case Shape::kBurstsOnLiveBottom: return "bursts";
    case Shape::kSparseSpans: return "sparse";
    case Shape::kPutBack: return "putback";
  }
  return "?";
}

std::int64_t NextOffset(Shape shape, util::Rng& rng) {
  const auto bounded = [&rng](std::uint64_t n) {
    return static_cast<std::int64_t>(rng.NextBounded(n));
  };
  switch (shape) {
    case Shape::kUniformNearTerm:
    case Shape::kPutBack:
      return bounded(1'000);
    case Shape::kBimodalTimeouts:
      return rng.NextDouble() < 0.5 ? 10'000'000'000 + bounded(1'000)
                                    : bounded(50'000);
    case Shape::kBurstsOnLiveBottom:
      return rng.NextDouble() < 0.5 ? 0 : bounded(20'000);
    case Shape::kSparseSpans:
      return bounded(std::uint64_t{1} << (rng.NextBounded(41)));
  }
  return 0;
}

/// Drives the queue and the reference heap with one seeded stream of
/// pushes and pops, then drains both; every pop must agree.
void RunDifferential(Shape shape, std::uint64_t seed) {
  SCOPED_TRACE(ShapeName(shape) + " seed " + std::to_string(seed));
  util::Rng rng(seed, "ladder-property/" + ShapeName(shape));
  LadderQueue q;
  ReferenceHeap ref;
  std::uint64_t seq = 1;
  std::int64_t clock = 0;
  const auto push = [&](std::int64_t at_ns) {
    const QueuedEvent ev = Ev(at_ns, seq++);
    q.Push(ev);
    ref.push(ev);
  };
  const auto pop = [&]() -> QueuedEvent {
    QueuedEvent got;
    EXPECT_TRUE(q.PopMin(got));
    const QueuedEvent want = ref.top();
    ref.pop();
    EXPECT_EQ(got.at_ns, want.at_ns);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_GE(got.at_ns, clock);  // time never runs backwards
    clock = got.at_ns;
    return got;
  };

  for (int step = 0; step < 4'000 && !::testing::Test::HasFailure(); ++step) {
    if (ref.empty() || rng.NextDouble() < 0.52) {
      if (shape == Shape::kBurstsOnLiveBottom && rng.NextDouble() < 0.05) {
        const std::uint64_t burst = 2 + rng.NextBounded(150);
        for (std::uint64_t i = 0; i < burst; ++i) push(clock);
      } else {
        push(clock + NextOffset(shape, rng));
      }
    } else {
      const QueuedEvent got = pop();
      if (shape == Shape::kPutBack && rng.NextDouble() < 0.3) {
        q.Push(got);  // original seq: it must pop next again
        ref.push(got);
      }
    }
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
  }
  while (!ref.empty() && !::testing::Test::HasFailure()) pop();
  QueuedEvent out;
  EXPECT_FALSE(q.PopMin(out));
  EXPECT_TRUE(q.empty());
}

TEST(LadderQueue, MatchesReferenceHeapUnderRandomWorkload) {
  for (const Shape shape :
       {Shape::kUniformNearTerm, Shape::kBimodalTimeouts,
        Shape::kBurstsOnLiveBottom, Shape::kSparseSpans, Shape::kPutBack}) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      RunDifferential(shape, seed);
      if (HasFailure()) return;
    }
  }
}

TEST(LadderQueue, PoolIsReusedAcrossDrains) {
  LadderQueue q;
  std::size_t pool_after_first = 0;
  std::uint64_t seq = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4096; ++i) {
      q.Push(Ev(round * 1'000'000 + (i * 7919) % 4096 * 17, seq++));
    }
    QueuedEvent out;
    std::int64_t last = INT64_MIN;
    while (q.PopMin(out)) {
      ASSERT_GE(out.at_ns, last);
      last = out.at_ns;
    }
    if (round == 0) pool_after_first = q.pool_size();
    EXPECT_EQ(q.pool_size(), pool_after_first) << "round " << round;
  }
  EXPECT_GT(pool_after_first, 0u);
  EXPECT_LE(pool_after_first, 4096u);
}

TEST(LadderQueue, SparseFarApartEvents) {
  // Events far apart relative to their count: rung 0's buckets are wide and
  // mostly empty, and the 1 ns pair still pops in order.
  LadderQueue q;
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

TEST(LadderQueue, PushEarlierThanCursorReordersCorrectly) {
  LadderQueue q;
  q.Push(Ev(1'000, 1));
  q.Push(Ev(2'000, 2));
  QueuedEvent out;
  ASSERT_TRUE(q.PopMin(out));
  EXPECT_EQ(out.at_ns, 1'000);
  // An event landing before the rung's unconsumed range must still pop next.
  q.Push(Ev(1'100, 3));
  ASSERT_TRUE(q.PopMin(out));
  EXPECT_EQ(out.at_ns, 1'100);
  ASSERT_TRUE(q.PopMin(out));
  EXPECT_EQ(out.at_ns, 2'000);
}

}  // namespace
}  // namespace myrtus::sim
