// Causal spans for the Monitoring & Observability building block (§III):
// every cross-layer action (a contract-net negotiation, an RPC hop, a
// scheduler pass) records a span with trace/span/parent ids so one workload
// placement is visible as a single tree across the continuum. Timestamps are
// simulation-clock nanoseconds supplied by the owning engine — wall-clock
// never leaks into a trace, keeping exports bit-reproducible per seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace myrtus::telemetry {

/// Propagatable identity of one span. RPC envelopes carry it (`tctx`) so
/// causality survives network hops.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool valid() const { return span_id != 0; }
  /// The `tctx` header as JSON; its encoded size is what the context adds
  /// to a traced request.
  [[nodiscard]] util::Json ToJson() const;
};

/// One finished (or in-flight) span.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::string name;
  std::string category;  // "net", "mirto", "sched", "kb", "continuum"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Bounded store of finished spans, which fault dumps write out: grows like a
/// vector up to `capacity()`, then each newly ended span overwrites the
/// oldest. Iterates oldest first, in end order, so a long run keeps the spans
/// right before its end (or its fault), and `size() + dropped()` is every
/// span ever ended.
class SpanRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 18;

  class const_iterator {
   public:
    const SpanRecord& operator*() const { return (*ring_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class SpanRing;
    const_iterator(const SpanRing* ring, std::size_t i) : ring_(ring), i_(i) {}
    const SpanRing* ring_;
    std::size_t i_;
  };

  /// Spans retained (<= capacity()).
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] bool empty() const { return slots_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Spans overwritten by newer ones, or discarded by a capacity change.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// `i`-th oldest retained span.
  [[nodiscard]] const SpanRecord& operator[](std::size_t i) const {
    return slots_[(head_ + i) % slots_.size()];
  }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, slots_.size()}; }

 private:
  friend class Tracer;
  void Push(SpanRecord&& span);
  /// Restarts empty at `capacity` (at least 1), keeping the storage;
  /// retained spans count as dropped.
  void Restart(std::size_t capacity);

  std::vector<SpanRecord> slots_;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t head_ = 0;  // oldest slot once the ring is full
  std::uint64_t dropped_ = 0;
};

/// Span factory + store. Single-threaded by design, like the simulator it
/// observes. Ids are dense counters, so two runs with the same seed produce
/// identical traces.
class Tracer {
 public:
  /// Installs the time source (typically `[&engine]{ return engine.Now().ns; }`)
  /// and returns an installation token. The engine behind the most recently
  /// installed clock must outlive any span started without an explicit
  /// timestamp; Clear() uninstalls it, and an installer whose clock closes
  /// over its own lifetime must call reset_clock(token) before that lifetime
  /// ends (see ~Network).
  std::int64_t set_clock(std::function<std::int64_t()> now_ns) {
    clock_ = std::move(now_ns);
    return ++clock_generation_;
  }
  /// Uninstalls the clock iff `token` identifies the current installation —
  /// a stale token (someone installed over us) is a no-op, preserving
  /// last-constructed-wins. Falls back to the epoch clock (NowNs() == 0).
  void reset_clock(std::int64_t token) {
    if (token == clock_generation_) clock_ = nullptr;
  }
  [[nodiscard]] std::int64_t NowNs() const { return clock_ ? clock_() : 0; }

  /// Starts a span. An invalid `parent` starts a new trace.
  SpanContext StartSpan(std::string name, std::string category,
                        SpanContext parent, std::int64_t start_ns);
  /// Convenience: parent = current(), start = NowNs().
  SpanContext StartSpan(std::string name, std::string category = "");

  void SetAttribute(const SpanContext& ctx, std::string key, std::string value);
  void EndSpan(const SpanContext& ctx, std::int64_t end_ns);
  void EndSpan(const SpanContext& ctx) { EndSpan(ctx, NowNs()); }

  /// --- Implicit context (the "current span" stack) ----------------------
  void PushContext(SpanContext ctx) { stack_.push_back(ctx); }
  void PopContext() { if (!stack_.empty()) stack_.pop_back(); }
  [[nodiscard]] SpanContext current() const {
    return stack_.empty() ? SpanContext{} : stack_.back();
  }

  [[nodiscard]] const SpanRing& finished() const { return finished_; }
  [[nodiscard]] std::size_t open_spans() const { return open_.size(); }
  /// Finished spans the ring no longer holds.
  [[nodiscard]] std::uint64_t dropped_spans() const { return finished_.dropped(); }
  /// Restarts the ring empty at `capacity` spans (at least 1).
  void set_span_capacity(std::size_t capacity) { finished_.Restart(capacity); }

  /// --- Fault dumps -------------------------------------------------------
  /// Arms dumps: every Trigger() then writes the ring as a Chrome trace to
  /// `<prefix><trigger-ordinal>_<sanitized-reason>.json`. Empty disarms.
  void set_dump_prefix(std::string prefix) { dump_prefix_ = std::move(prefix); }
  /// Fault boundary hook (chaos injection, Raft leadership loss, SLO breach):
  /// counts the trigger, keeps its reason and, when armed, dumps the ring. The
  /// trigger itself never enters the ring. Returns the written path, empty
  /// when disarmed or the write failed.
  std::string Trigger(std::string_view reason);
  [[nodiscard]] std::uint64_t triggers() const { return triggers_; }
  [[nodiscard]] const std::string& last_trigger() const { return last_trigger_; }

  /// Drops all spans, the context stack, the installed clock and the trigger
  /// state; resets ids, disarms dumps and restores the default capacity.
  void Clear();

 private:
  std::function<std::int64_t()> clock_;
  std::int64_t clock_generation_ = 0;
  std::unordered_map<std::uint64_t, SpanRecord> open_;  // by span_id
  SpanRing finished_;
  std::vector<SpanContext> stack_;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t next_span_id_ = 1;
  std::string dump_prefix_;
  std::uint64_t triggers_ = 0;
  std::string last_trigger_;
};

/// RAII: pushes an existing context for the current scope (used to restore
/// causality inside async completion callbacks).
class ContextGuard {
 public:
  ContextGuard(Tracer& tracer, SpanContext ctx) : tracer_(&tracer) {
    tracer_->PushContext(ctx);
  }
  ~ContextGuard() { tracer_->PopContext(); }
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace myrtus::telemetry
