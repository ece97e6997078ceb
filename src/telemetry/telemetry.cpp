#include "telemetry/telemetry.hpp"

namespace myrtus::telemetry {

Telemetry& Global() {
  static Telemetry& instance = []() -> Telemetry& {
    static Telemetry t;
    // Every finished span — including ones the tracer's max_finished cap
    // later discards — streams into the bounded flight ring.
    t.tracer.set_span_sink(
        [](const SpanRecord& span) { t.recorder.RecordSpan(span); });
    return t;
  }();
  return instance;
}

void ResetGlobal() {
  Global().tracer.Clear();
  Global().metrics.Clear();
  Global().recorder.Clear();
}

}  // namespace myrtus::telemetry
