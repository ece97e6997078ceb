// Calendar-queue (bucketed timing-wheel) event queue for the simulation
// engine — Brown's classic O(1)-amortized structure, replacing the binary
// heap whose push/pop cost O(log n) per event in the measured hot path.
//
// Total order contract (what sim::Engine's determinism rides on): events pop
// strictly by (at_ns, seq) — earliest timestamp first, and FIFO within a
// timestamp via the monotonically increasing sequence number. The order is a
// pure function of the pushed set, never of bucket geometry: resizes and
// width changes only re-hash storage, they cannot reorder a pop.
#pragma once

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

class CalendarQueue {
 public:
  CalendarQueue();

  void Push(QueuedEvent event);
  /// Pops the minimum-(at_ns, seq) event into `out`; false when empty.
  bool PopMin(QueuedEvent& out);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Current bucket count (diagnostics / tests).
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

 private:
  [[nodiscard]] std::size_t BucketIndex(std::int64_t at_ns) const;
  /// Re-hashes every event into `nbuckets` buckets with a width recomputed
  /// from the current event population's time span.
  void Resize(std::size_t nbuckets);
  /// Repositions the search cursor onto the bucket containing `at_ns`.
  void SeekTo(std::int64_t at_ns);
  /// True when `a` orders before `b` under (at_ns, seq).
  static bool Before(const QueuedEvent& a, const QueuedEvent& b) {
    if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
    return a.seq < b.seq;
  }

  std::vector<std::vector<QueuedEvent>> buckets_;
  std::size_t size_ = 0;
  std::int64_t width_ns_ = 1;    // bucket (day) width
  std::size_t cursor_ = 0;       // bucket the search resumes from
  std::int64_t cursor_top_ns_ = 0;  // end of cursor_'s current day window
};

}  // namespace myrtus::sim
