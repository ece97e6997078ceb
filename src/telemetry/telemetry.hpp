// Process-wide telemetry facade. Instrumentation across the continuum
// (transport RPCs, MIRTO negotiation, scheduler passes, Raft, monitoring)
// writes to one global Tracer + MetricsRegistry, guarded by a single enabled
// flag: when telemetry is off, every instrumentation site reduces to one
// predictable branch, so the disabled path is effectively free (quantified by
// bench_fig3_mirto_loop's overhead table).
//
// The global is deliberate: the simulator is single-threaded and telemetry
// must cross layers whose constructors predate this subsystem. Components
// that own a sim::Engine install it as the tracer clock; tests call
// ResetGlobal() between worlds to drop spans, metrics, and the clock.
#pragma once

#include <string_view>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace myrtus::telemetry {

struct Telemetry {
  Tracer tracer;
  MetricsRegistry metrics;
};

/// The process-wide sink.
Telemetry& Global();

namespace internal {
inline bool g_enabled = false;
}  // namespace internal

/// Fast check every instrumentation site performs first. Off by default.
inline bool Enabled() { return internal::g_enabled; }
inline void SetEnabled(bool on) { internal::g_enabled = on; }

/// Clears the global tracer (span ring, context stack, clock, fault-dump
/// state) and all metrics. Does not touch the enabled flag.
void ResetGlobal();

/// RAII span on the global tracer: no-op when telemetry is disabled,
/// otherwise starts a span as a child of the current context, makes it
/// current, and ends it at scope exit. The workhorse for synchronous
/// instrumentation (scheduler passes, MAPE phases, monitor sampling).
class ScopedSpan {
 public:
  /// string_view parameters on purpose: when telemetry is disabled the
  /// owning std::strings are never materialized, so an instrumented hot path
  /// costs one branch — not two allocations — per scope.
  ScopedSpan(std::string_view name, std::string_view category) {
    if (!Enabled()) return;
    tracer_ = &Global().tracer;
    ctx_ = tracer_->StartSpan(std::string(name), std::string(category));
    tracer_->PushContext(ctx_);
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    tracer_->PopContext();
    tracer_->EndSpan(ctx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Accepts any string-ish pair (literal, string_view, lvalue or rvalue
  /// std::string). Nothing is copied or allocated unless the span is live;
  /// rvalue std::strings are moved straight into the attribute.
  template <typename K, typename V>
  void SetAttribute(K&& key, V&& value) {
    if (tracer_ != nullptr) {
      tracer_->SetAttribute(ctx_, std::string(std::forward<K>(key)),
                            std::string(std::forward<V>(value)));
    }
  }
  [[nodiscard]] const SpanContext& context() const { return ctx_; }

 private:
  Tracer* tracer_ = nullptr;
  SpanContext ctx_;
};

}  // namespace myrtus::telemetry
