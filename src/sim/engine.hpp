// Deterministic discrete-event simulation engine. Single-threaded by design:
// determinism matters more than parallel speed for orchestration experiments,
// and ties are broken by a monotonically increasing sequence number so two
// runs with the same seed produce identical traces. The event store is a
// ladder queue (sim/ladder_queue.hpp): O(1) amortized push/pop under skewed
// event times (microsecond hops beside parked 10 s timeouts), with the
// binary heap's exact (time, seq) pop order.
//
// Callbacks live in a slab of slots, not in the queue. A queued entry is a
// plain (time, seq, slot, generation) record; an EventHandle is the same
// (slot, generation) pair. Every time a slot is freed (its one-shot event
// fires, or its event is cancelled) the slot's generation is bumped, so any
// handle or queued entry still carrying the old generation is dead by
// construction: a pop compares two integers instead of consulting a
// tombstone set, and a stale Cancel is a no-op. Deletion from the queue
// stays lazy: a cancelled event's entry remains queued (and counts in
// pending_events()) until it reaches the head, where a dead one-shot is
// dropped uncounted and a dead periodic tick fires as a counted no-op.
//
// Generations are 32-bit and wrap (skipping 0, the invalid handle). A stale
// handle could alias a live event only if its slot were freed and reused 2^32
// times while the handle was held; freed slots are reused most-recent-first,
// so that takes 2^32 events scheduled and retired through that one slot.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/ladder_queue.hpp"
#include "sim/time.hpp"
#include "util/units.hpp"

namespace myrtus::sim {

/// Handle used to cancel a scheduled event: the event's slab slot and the
/// slot's generation at scheduling time. Once the event has fired (one-shot)
/// or been cancelled, the slot's generation moves on and the handle is stale;
/// cancelling a stale handle does nothing, even after the slot is reused.
class EventHandle {
 public:
  EventHandle() = default;
  /// True for a handle returned by a Schedule* call (also after it fired).
  [[nodiscard]] bool valid() const { return generation_ != 0; }

 private:
  friend class Engine;
  EventHandle(std::uint32_t slot, std::uint32_t generation)
      : slot_(slot), generation_(generation) {}
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;  // 0 = default-constructed, never live
};

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  /// Destroys the callbacks of unfired events without running them. Out of
  /// line: the slab teardown inlined into every frame that owns an engine
  /// trips a GCC 12 -O3 -Wrestrict false positive (tests/net_test.cpp).
  ~Engine();
  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;

  /// Current simulated time.
  [[nodiscard]] SimTime Now() const { return now_; }

  /// Schedules `cb` at absolute time `when` (clamped to Now() if in the
  /// past). Returns a handle usable with Cancel().
  EventHandle ScheduleAt(SimTime when, Callback cb);
  /// Schedules `cb` after the given delay.
  EventHandle ScheduleAfter(SimTime delay, Callback cb);
  /// Schedules `cb` every `period`, starting after `period`. The callback
  /// keeps firing until its handle is cancelled or the engine stops. A
  /// zero/negative period is clamped to 1 ns (an unclamped value would loop
  /// forever at a single timestamp).
  EventHandle SchedulePeriodic(SimTime period, Callback cb);

  /// Cancels the event and destroys its callback (and captures) at once.
  /// A no-op on a default, fired, already-cancelled or reused-slot handle.
  /// A periodic series may cancel itself from inside its own callback.
  void Cancel(EventHandle h);

  /// Runs events until the queue drains or `limit` events have fired.
  /// Returns the number of events executed.
  std::size_t Run(std::size_t limit = SIZE_MAX);
  /// Runs events with timestamp <= deadline. The clock then ends at exactly
  /// `deadline` (even if the queue drained earlier), unless Stop() ended the
  /// run first: then it stays at the last fired event, so events at or
  /// before the deadline that are still queued never fire in the past.
  std::size_t RunUntil(SimTime deadline);
  /// Executes exactly one event if available. Returns false on empty queue.
  bool Step();

  /// Requests that Run()/RunUntil() return after the current event.
  void Stop() { stop_requested_ = true; }

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  /// Queued entries, dead (cancelled, not yet popped) ones included.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Scheduled events not yet fired or cancelled (occupied slab slots).
  [[nodiscard]] std::size_t live_events() const {
    return util::SubSat(slots_.size(), free_slots_.size());
  }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  struct Slot {
    Callback cb;
    std::int64_t period_ns = 0;     // > 0 for a periodic series
    std::uint32_t generation = 1;   // bumped on every release, never 0
  };

  /// Takes a free slot (or grows the slab) and parks `cb` in it.
  std::uint32_t Acquire(Callback cb, std::int64_t period_ns);
  /// Frees a slot; its current generation becomes stale. Returns the
  /// callback so the caller destroys it after the slab is consistent (a
  /// capture's destructor may schedule or cancel events).
  Callback Release(std::uint32_t slot);
  void Push(std::int64_t at_ns, std::uint32_t slot, bool periodic);
  bool PopNext(QueuedEvent& out);
  void Fire(const QueuedEvent& ev);

  LadderQueue queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  // LIFO: reuse the warmest slot
  SimTime now_ = SimTime::Zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace myrtus::sim
