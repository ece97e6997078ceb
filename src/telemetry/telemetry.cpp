#include "telemetry/telemetry.hpp"

namespace myrtus::telemetry {

Telemetry& Global() {
  static Telemetry instance;
  return instance;
}

void ResetGlobal() {
  Global().tracer.Clear();
  Global().metrics.Clear();
}

}  // namespace myrtus::telemetry
