#include "sim/ladder_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/units.hpp"

namespace myrtus::sim {
namespace {

/// True when `a` orders before `b` under (at_ns, seq).
bool Before(const QueuedEvent& a, const QueuedEvent& b) {
  if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
  return a.seq < b.seq;
}

}  // namespace

std::uint32_t LadderQueue::Alloc(const QueuedEvent& event) {
  if (free_ == kNil) {
    pool_.push_back(Node{event, kNil});
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }
  const std::uint32_t node = free_;
  free_ = pool_[node].next;
  pool_[node].event = event;
  return node;
}

void LadderQueue::InsertIntoRung(Rung& rung, std::uint32_t node) {
  // Callers guarantee start <= at_ns < end; past the last full-width bucket
  // the last bucket takes it, since that bucket reaches `end`.
  std::uint64_t i = (static_cast<std::uint64_t>(pool_[node].event.at_ns) -
                     static_cast<std::uint64_t>(rung.start)) >>
                    rung.shift;
  i = std::min<std::uint64_t>(i, rung.heads.size() - 1);
  pool_[node].next = rung.heads[i];
  rung.heads[i] = node;
}

void LadderQueue::SpawnRung(std::uint32_t head, std::size_t count,
                            std::int64_t lo, std::int64_t hi,
                            std::int64_t end) {
  // The narrowest power-of-two width that gives the `count` events about
  // one bucket each over their own span [lo, hi]; the span, not `end`, sets
  // it, so a far bucket end adds no empty buckets.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  const std::uint64_t width = span / count + 1;
  Rung& rung = rungs_[nrungs_++];
  rung.start = lo;
  rung.end = end;
  rung.cur_ns = lo;
  rung.shift = static_cast<std::uint32_t>(std::bit_width(width - 1));
  rung.cur = 0;
  rung.heads.assign((span >> rung.shift) + 1, kNil);
  while (head != kNil) {
    const std::uint32_t next = pool_[head].next;
    InsertIntoRung(rung, head);
    head = next;
  }
}

void LadderQueue::Push(const QueuedEvent& event) {
  ++size_;
  if (event.at_ns >= top_start_) {
    const std::uint32_t node = Alloc(event);
    pool_[node].next = top_;
    top_ = node;
    if (top_count_++ == 0) {
      top_min_ = top_max_ = event.at_ns;
    } else {
      top_min_ = std::min(top_min_, event.at_ns);
      top_max_ = std::max(top_max_, event.at_ns);
    }
    return;
  }
  // Finest rung first: a rung ends exactly where its parent resumes, so an
  // event past a rung's end belongs to a coarser one, and one before the
  // finest rung's unconsumed range belongs to the bottom.
  for (std::size_t k = nrungs_; k-- > 0;) {
    Rung& rung = rungs_[k];
    if (event.at_ns < rung.cur_ns) break;
    if (event.at_ns < rung.end) {
      InsertIntoRung(rung, Alloc(event));
      return;
    }
  }
  PushBottom(event);
}

void LadderQueue::PushBottom(const QueuedEvent& event) {
  if (bottom_head_ == bottom_.size()) {
    bottom_.clear();
    bottom_head_ = 0;
  } else if (bottom_head_ >= kBottomLimit &&
             2 * bottom_head_ >= bottom_.size()) {
    // Drop the consumed prefix once it outweighs the live entries.
    bottom_.erase(bottom_.begin(),
                  bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_));
    bottom_head_ = 0;
  }
  const auto first = bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_);
  if (first == bottom_.end() || !Before(event, bottom_.back())) {
    bottom_.push_back(event);  // same-time bursts land here, in O(1)
  } else {
    const auto pos = std::upper_bound(first, bottom_.end(), event, Before);
    if (pos == first && bottom_head_ > 0) {
      // Ahead of every live entry (a zero-delay event, RunUntil's
      // put-back): reuse the consumed slot before the head.
      bottom_[--bottom_head_] = event;
    } else {
      bottom_.insert(pos, event);
    }
  }

  const std::size_t live = util::SubSat(bottom_.size(), bottom_head_);
  if (live <= kBottomLimit || nrungs_ == kMaxRungs ||
      bottom_[bottom_head_].at_ns == bottom_.back().at_ns) {
    return;
  }
  // Overflow with two or more timestamps: the bottom becomes the finest
  // rung, covering up to where the previous finest rung resumes.
  std::uint32_t head = kNil;
  for (std::size_t i = bottom_.size(); i-- > bottom_head_;) {
    const std::uint32_t node = Alloc(bottom_[i]);
    pool_[node].next = head;
    head = node;
  }
  const std::int64_t lo = bottom_[bottom_head_].at_ns;
  const std::int64_t hi = bottom_.back().at_ns;
  bottom_.clear();
  bottom_head_ = 0;
  SpawnRung(head, live, lo, hi,
            nrungs_ > 0 ? rungs_[nrungs_ - 1].cur_ns : top_start_);
}

void LadderQueue::Refill() {
  for (;;) {
    if (nrungs_ == 0) {
      // A new epoch: the top (non-empty, as the rest is) becomes rung 0,
      // and later pushes join the top only past its latest event.
      const std::uint32_t head = top_;
      top_ = kNil;
      top_start_ = top_max_ + 1;
      SpawnRung(head, std::exchange(top_count_, 0), top_min_, top_max_,
                top_start_);
    }
    Rung& rung = rungs_[nrungs_ - 1];
    const std::size_t nbuckets = rung.heads.size();
    while (rung.cur < nbuckets && rung.heads[rung.cur] == kNil) ++rung.cur;
    if (rung.cur == nbuckets) {
      --nrungs_;
      continue;
    }
    std::uint32_t head = std::exchange(rung.heads[rung.cur], kNil);
    ++rung.cur;
    rung.cur_ns = rung.cur < nbuckets
                      ? static_cast<std::int64_t>(
                            static_cast<std::uint64_t>(rung.start) +
                            (std::uint64_t{rung.cur} << rung.shift))
                      : rung.end;

    std::size_t count = 0;
    std::int64_t lo = INT64_MAX;
    std::int64_t hi = INT64_MIN;
    for (std::uint32_t n = head; n != kNil; n = pool_[n].next) {
      ++count;
      lo = std::min(lo, pool_[n].event.at_ns);
      hi = std::max(hi, pool_[n].event.at_ns);
    }
    // A bucket whose events share one timestamp (every 1 ns wide bucket)
    // or that no further rung may split goes to the bottom whole.
    if (count > kSplitThreshold && lo < hi && nrungs_ < kMaxRungs) {
      SpawnRung(head, count, lo, hi, rung.cur_ns);
      continue;
    }
    while (head != kNil) {
      Node& node = pool_[head];
      bottom_.push_back(node.event);
      const std::uint32_t next = node.next;
      node.next = free_;
      free_ = head;
      head = next;
    }
    std::sort(bottom_.begin(), bottom_.end(), Before);
    return;
  }
}

bool LadderQueue::PopMin(QueuedEvent& out) {
  if (size_ == 0) return false;
  if (bottom_head_ == bottom_.size()) {
    bottom_.clear();
    bottom_head_ = 0;
    Refill();
  }
  out = bottom_[bottom_head_++];
  if (--size_ == 0) {
    // Drained: the next push starts a fresh top.
    nrungs_ = 0;
    top_start_ = INT64_MIN;
    bottom_.clear();
    bottom_head_ = 0;
  }
  return true;
}

}  // namespace myrtus::sim
