#include "sim/engine.hpp"

#include <cstdlib>
#include <utility>

namespace myrtus::sim {
namespace {

// QueuedEvent::slot is a 31-bit field.
constexpr std::size_t kMaxSlots = std::size_t{1} << 31;

}  // namespace

Engine::~Engine() = default;

std::uint32_t Engine::Acquire(Callback cb, std::int64_t period_ns) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    if (slots_.size() >= kMaxSlots) std::abort();
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].cb = std::move(cb);
  slots_[slot].period_ns = period_ns;
  return slot;
}

Engine::Callback Engine::Release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (++s.generation == 0) s.generation = 1;  // 0 marks the invalid handle
  free_slots_.push_back(slot);
  return std::move(s.cb);
}

void Engine::Push(std::int64_t at_ns, std::uint32_t slot, bool periodic) {
  queue_.Push(QueuedEvent{at_ns, next_seq_++, slot, periodic ? 1u : 0u,
                          slots_[slot].generation});
}

EventHandle Engine::ScheduleAt(SimTime when, Callback cb) {
  if (when < now_) when = now_;
  const std::uint32_t slot = Acquire(std::move(cb), 0);
  Push(when.ns, slot, /*periodic=*/false);
  return EventHandle{slot, slots_[slot].generation};
}

EventHandle Engine::ScheduleAfter(SimTime delay, Callback cb) {
  return ScheduleAt(now_ + delay, std::move(cb));
}

EventHandle Engine::SchedulePeriodic(SimTime period, Callback cb) {
  // A zero/negative period would re-fire forever at one timestamp and hang
  // Run()/RunUntil(); clamp to the finest representable tick instead.
  if (period.ns <= 0) period = SimTime::Nanos(1);
  const std::uint32_t slot = Acquire(std::move(cb), period.ns);
  Push((now_ + period).ns, slot, /*periodic=*/true);
  return EventHandle{slot, slots_[slot].generation};
}

void Engine::Cancel(EventHandle h) {
  if (!h.valid() || h.slot_ >= slots_.size() ||
      slots_[h.slot_].generation != h.generation_) {
    return;  // never scheduled here, already fired, or already cancelled
  }
  // Destroyed at scope exit, after the slab is consistent again.
  const Callback dead = Release(h.slot_);
}

bool Engine::PopNext(QueuedEvent& out) {
  while (queue_.PopMin(out)) {
    // A periodic tick always fires (a cancelled series' tick as a counted
    // no-op); a one-shot fires only if its slot still holds it.
    if (out.periodic || slots_[out.slot].generation == out.generation) {
      return true;
    }
  }
  return false;
}

void Engine::Fire(const QueuedEvent& ev) {
  now_ = SimTime::Nanos(ev.at_ns);
  ++executed_;
  if (!ev.periodic) {
    // Free the slot first: the callback may reschedule into it, and Cancel
    // on this event's handle from inside the callback must be a no-op.
    const Callback cb = Release(ev.slot);
    cb();
    return;
  }
  if (slots_[ev.slot].generation != ev.generation) return;
  // Run the callback out of the slab: scheduling from inside it may grow
  // (and move) the slab, and it may cancel its own series.
  Callback cb = std::move(slots_[ev.slot].cb);
  cb();
  Slot& slot = slots_[ev.slot];
  if (slot.generation != ev.generation) return;  // cancelled by its callback
  slot.cb = std::move(cb);
  Push(now_.ns + slot.period_ns, ev.slot, /*periodic=*/true);
}

bool Engine::Step() {
  QueuedEvent ev;
  if (!PopNext(ev)) return false;
  Fire(ev);
  return true;
}

std::size_t Engine::Run(std::size_t limit) {
  stop_requested_ = false;
  std::size_t n = 0;
  while (n < limit && !stop_requested_ && Step()) ++n;
  return n;
}

std::size_t Engine::RunUntil(SimTime deadline) {
  stop_requested_ = false;
  std::size_t n = 0;
  while (!stop_requested_) {
    QueuedEvent ev;
    if (!PopNext(ev)) break;
    if (ev.at_ns > deadline.ns) {
      // Put it back; it belongs to the future beyond this run. The original
      // seq rides along, so its FIFO position among equal timestamps holds.
      queue_.Push(ev);
      break;
    }
    Fire(ev);
    ++n;
  }
  if (!stop_requested_ && now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace myrtus::sim
