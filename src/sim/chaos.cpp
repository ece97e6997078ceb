#include "sim/chaos.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace myrtus::sim {

ChaosController::ChaosController(Engine& engine, std::uint64_t seed)
    : engine_(engine),
      guard_(std::make_shared<LifetimeGuard>(LifetimeGuard{this})),
      rng_(seed, "chaos") {}

ChaosController::~ChaosController() { guard_->self = nullptr; }

void ChaosController::RegisterTarget(const std::string& name,
                                     std::function<void()> inject,
                                     std::function<void()> restore) {
  targets_[name] = Target{std::move(inject), std::move(restore), false};
}

void ChaosController::ScheduleFault(const std::string& target, SimTime start,
                                    SimTime duration) {
  engine_.ScheduleAt(start, [guard = guard_, target] {
    if (guard->self != nullptr) guard->self->Inject(target);
  });
  if (duration > SimTime::Zero()) {
    engine_.ScheduleAt(start + duration, [guard = guard_, target] {
      if (guard->self != nullptr) guard->self->Restore(target);
    });
  }
}

void ChaosController::ScheduleRandomFaults(const std::string& target,
                                           SimTime start, SimTime horizon,
                                           SimTime mean_up,
                                           SimTime mean_down) {
  // Draw the whole alternating up/down phase sequence now; scheduling the
  // callbacks later must not consume randomness, or two runs that interleave
  // other chaos calls differently would diverge.
  SimTime t = start;
  bool faulty = false;
  while (t < horizon) {
    const double mean =
        static_cast<double>(faulty ? mean_down.ns : mean_up.ns);
    const double phase = rng_.NextExponential(mean > 0.0 ? 1.0 / mean : 1.0);
    t += SimTime::Nanos(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(phase)));
    if (t >= horizon) break;
    faulty = !faulty;
    if (faulty) {
      engine_.ScheduleAt(t, [guard = guard_, target] {
        if (guard->self != nullptr) guard->self->Inject(target);
      });
    } else {
      engine_.ScheduleAt(t, [guard = guard_, target] {
        if (guard->self != nullptr) guard->self->Restore(target);
      });
    }
  }
  // Never leave a target faulty past the horizon: the experiment's cooldown
  // phase measures recovery, not a dangling fault.
  if (faulty) {
    engine_.ScheduleAt(horizon, [guard = guard_, target] {
      if (guard->self != nullptr) guard->self->Restore(target);
    });
  }
}

void ChaosController::RestoreAll() {
  for (auto& [name, target] : targets_) {
    if (target.faulty) Restore(name);
  }
}

bool ChaosController::IsFaulty(const std::string& target) const {
  const auto it = targets_.find(target);
  return it != targets_.end() && it->second.faulty;
}

void ChaosController::Inject(const std::string& name) {
  const auto it = targets_.find(name);
  if (it == targets_.end() || it->second.faulty) return;
  it->second.faulty = true;
  ++active_faults_;
  ++injections_;
  if (it->second.inject) it->second.inject();
  timeline_.push_back({engine_.Now(), name, true});
  if (telemetry::Enabled()) {
    auto& tel = telemetry::Global();
    tel.metrics.Add("myrtus_chaos_injections_total", 1.0, {{"target", name}});
    tel.metrics.Set("myrtus_chaos_active_faults",
                    static_cast<double>(active_faults_));
    // Fault boundary: annotate whatever span is live and — when dumps are
    // armed — snapshot the spans leading up to the fault.
    if (tel.tracer.current().valid()) {
      tel.tracer.SetAttribute(tel.tracer.current(), "chaos.inject", name);
    }
    tel.tracer.Trigger("chaos.inject:" + name);
  }
}

void ChaosController::Restore(const std::string& name) {
  const auto it = targets_.find(name);
  if (it == targets_.end() || !it->second.faulty) return;
  it->second.faulty = false;
  --active_faults_;
  ++restores_;
  if (it->second.restore) it->second.restore();
  timeline_.push_back({engine_.Now(), name, false});
  if (telemetry::Enabled()) {
    auto& tel = telemetry::Global();
    tel.metrics.Add("myrtus_chaos_restores_total", 1.0, {{"target", name}});
    tel.metrics.Set("myrtus_chaos_active_faults",
                    static_cast<double>(active_faults_));
    if (tel.tracer.current().valid()) {
      tel.tracer.SetAttribute(tel.tracer.current(), "chaos.restore", name);
    }
  }
}

std::string ChaosController::TimelineString() const {
  std::string out;
  for (const ChaosEvent& ev : timeline_) {
    out += std::to_string(ev.at.ns);
    out += ' ';
    out += ev.target;
    out += ev.injected ? " inject\n" : " restore\n";
  }
  return out;
}

}  // namespace myrtus::sim
