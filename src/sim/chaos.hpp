// Fault injection for the continuum simulation. A ChaosController owns a set
// of named *targets* — anything with an inject/restore pair (a lossy link, a
// crashable Raft replica, a continuum device that can go down) — and drives
// them from scripted or seeded-random schedules. The controller is layer
// agnostic on purpose: it lives in sim/ and callers wire the hooks
// (Topology::mutable_link, RaftNode::Crash/Recover, Node::SetUp) as lambdas,
// so the same scheduler exercises every subsystem without sim/ depending on
// any of them. All randomness is drawn up-front on a dedicated stream, so a
// given seed yields a byte-identical fault timeline no matter how the rest
// of the simulation interleaves.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace myrtus::sim {

/// One recorded state transition of a chaos target.
struct ChaosEvent {
  SimTime at;
  std::string target;
  bool injected = false;  // true = fault injected, false = fault restored
};

class ChaosController {
 public:
  /// Every transition lands in timeline(); with telemetry enabled it is also
  /// counted in the metrics registry, and each injection fires the tracer's
  /// fault trigger.
  ChaosController(Engine& engine, std::uint64_t seed);
  /// Scheduled fault events hold a shared liveness guard, not `this`: events
  /// still queued in the engine when the controller dies become inert no-ops
  /// instead of use-after-scope (the engine routinely outlives a scoped
  /// controller in benches and tests).
  ~ChaosController();
  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  /// Registers a fault target. `inject` puts the target into its faulty
  /// state, `restore` heals it; both must be idempotent-friendly — the
  /// controller guarantees strict inject/restore alternation per target.
  void RegisterTarget(const std::string& name, std::function<void()> inject,
                      std::function<void()> restore);

  /// Scripted fault: inject at `start`, restore at `start + duration`.
  /// A non-positive duration injects permanently (until RestoreAll).
  void ScheduleFault(const std::string& target, SimTime start,
                     SimTime duration);

  /// Seeded-random schedule: alternating healthy/faulty phases with
  /// exponentially distributed lengths (means `mean_up` / `mean_down`),
  /// starting healthy at `start`, until `horizon`. All phase boundaries are
  /// drawn NOW from the controller's own stream, so the schedule is fixed at
  /// call time regardless of event interleaving.
  void ScheduleRandomFaults(const std::string& target, SimTime start,
                            SimTime horizon, SimTime mean_up,
                            SimTime mean_down);

  /// Heals every currently-faulty target immediately.
  void RestoreAll();

  [[nodiscard]] bool IsFaulty(const std::string& target) const;
  [[nodiscard]] std::size_t active_faults() const { return active_faults_; }
  [[nodiscard]] std::uint64_t injections() const { return injections_; }
  [[nodiscard]] std::uint64_t restores() const { return restores_; }

  [[nodiscard]] const std::vector<ChaosEvent>& timeline() const {
    return timeline_;
  }
  /// One line per transition — "<ns> <target> inject|restore" — the artifact
  /// the determinism acceptance check compares byte-for-byte across seeds.
  [[nodiscard]] std::string TimelineString() const;

 private:
  struct Target {
    std::function<void()> inject;
    std::function<void()> restore;
    bool faulty = false;
  };

  void Inject(const std::string& name);
  void Restore(const std::string& name);

  /// Back-pointer shared with every scheduled engine event; the destructor
  /// nulls it, detaching events that have not fired yet.
  struct LifetimeGuard {
    ChaosController* self = nullptr;
  };

  Engine& engine_;
  std::shared_ptr<LifetimeGuard> guard_;
  util::Rng rng_;
  std::map<std::string, Target> targets_;
  std::vector<ChaosEvent> timeline_;
  std::size_t active_faults_ = 0;
  std::uint64_t injections_ = 0;
  std::uint64_t restores_ = 0;
};

}  // namespace myrtus::sim
