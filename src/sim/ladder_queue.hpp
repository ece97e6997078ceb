// Ladder queue (Tang, Goh & Thng, ACM TOMACS 15(3), 2005): the simulation
// engine's event store. It copes with skewed event times, such as
// microsecond-spaced RPC hops queued beside cancelled 10 s timeouts, where a
// calendar queue's single bucket width is either too wide for the hops or
// too narrow for the timeouts. Three tiers, earliest last:
//
//   top     unsorted events at or after top_start_; a push is O(1), and a far
//           event (a parked timeout) waits here untouched until its epoch;
//   rungs   created on demand, each a row of buckets whose width comes from
//           the events the rung received; a bucket holding more than
//           kSplitThreshold events is split into a finer child rung that
//           reaches the parent bucket's end, where the parent resumes;
//   bottom  a small sorted array, consumed from a head index, holding every
//           event earlier than the finest rung's unconsumed range.
//
// Total order contract (what sim::Engine's determinism rides on): events pop
// strictly by (at_ns, seq), earliest timestamp first and FIFO within a
// timestamp via the engine's increasing sequence number. The order is a pure
// function of the pushed set, never of tier geometry: tiers only decide when
// an event gets sorted, and the bottom sorts by (at_ns, seq).
//
// Storage: every event in the top or a rung is a node of one pool (the
// 24-byte event plus a 32-bit next index), recycled through a free list.
// Buckets and the top are singly linked lists of pool indices, so a bucket
// costs a 4-byte list head. Timestamps must stay below INT64_MAX.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace myrtus::sim {

/// One queued engine event: a 24-byte plain record, no callback. `seq` is
/// assigned by the engine and breaks ties at equal timestamps (FIFO).
/// `slot` and `generation` name the engine's slab slot holding the callback;
/// the entry is live only while the slot still carries that generation.
/// `periodic` marks a periodic series' tick, which the engine counts as
/// executed even after the series was cancelled.
struct QueuedEvent {
  std::int64_t at_ns = 0;
  std::uint64_t seq = 0;
  std::uint32_t slot : 31 = 0;
  std::uint32_t periodic : 1 = 0;
  std::uint32_t generation = 0;
};
static_assert(sizeof(QueuedEvent) == 24, "queued events stay 24-byte PODs");

class LadderQueue {
 public:
  /// Queues `event` at any timestamp, earlier than popped ones included.
  void Push(const QueuedEvent& event);
  /// Pops the minimum-(at_ns, seq) event into `out`; false when empty.
  bool PopMin(QueuedEvent& out);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Nodes the pool holds, free ones included (diagnostics / tests).
  [[nodiscard]] std::size_t pool_size() const { return pool_.size(); }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  /// A bucket with more events than this is split into a child rung.
  static constexpr std::size_t kSplitThreshold = 48;
  /// The bottom tier turns into a rung past this many live events.
  static constexpr std::size_t kBottomLimit = 64;
  static constexpr std::size_t kMaxRungs = 8;

  struct Node {
    QueuedEvent event;
    std::uint32_t next = kNil;
  };
  /// Buckets of width 2^shift from `start`; the last bucket reaches `end`.
  /// [cur_ns, end) is the range not yet handed down to a finer tier.
  struct Rung {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t cur_ns = 0;
    std::uint32_t shift = 0;
    std::uint32_t cur = 0;  // next bucket to consume
    std::vector<std::uint32_t> heads;
  };

  std::uint32_t Alloc(const QueuedEvent& event);
  /// Spreads the list `head` (`count` events within [lo, hi]) over a new
  /// finest rung covering [lo, end).
  void SpawnRung(std::uint32_t head, std::size_t count, std::int64_t lo,
                 std::int64_t hi, std::int64_t end);
  void InsertIntoRung(Rung& rung, std::uint32_t node);
  void PushBottom(const QueuedEvent& event);
  /// Refills the empty bottom tier from the finest non-empty bucket.
  void Refill();

  std::vector<Node> pool_;
  std::uint32_t free_ = kNil;
  std::size_t size_ = 0;

  std::uint32_t top_ = kNil;
  std::size_t top_count_ = 0;
  std::int64_t top_min_ = 0;
  std::int64_t top_max_ = 0;
  std::int64_t top_start_ = INT64_MIN;

  std::array<Rung, kMaxRungs> rungs_;
  std::size_t nrungs_ = 0;

  std::vector<QueuedEvent> bottom_;
  std::size_t bottom_head_ = 0;
};

}  // namespace myrtus::sim
