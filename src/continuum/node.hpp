// Continuum compute nodes: a node owns one or more devices, a memory budget,
// a certified security level, and per-device FIFO execution queues driven by
// the simulation engine. Performance-monitoring counters (latency, energy,
// utilization) are exposed exactly as the paper's instrumented edge devices
// do (§III Monitoring & Observability).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "continuum/device.hpp"
#include "security/policy.hpp"
#include "sim/engine.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace myrtus::continuum {

enum class Layer : std::uint8_t { kEdge, kFog, kCloud };
std::string_view LayerName(Layer layer);

/// Completion report for one task execution on a node.
struct TaskReport {
  std::string node_id;
  std::string device_name;
  sim::SimTime queued;     // time spent waiting for the device
  sim::SimTime service;    // execution latency on the device
  util::MilliJoules energy_mj{};
};

class ComputeNode {
 public:
  ComputeNode(sim::Engine& engine, std::string id, Layer layer,
              std::string kind, security::SecurityLevel level,
              std::uint64_t mem_capacity_mb);

  void AddDevice(Device device);

  [[nodiscard]] const std::string& id() const { return id_; }
  [[nodiscard]] Layer layer() const { return layer_; }
  [[nodiscard]] const std::string& kind() const { return kind_; }
  [[nodiscard]] security::SecurityLevel security_level() const { return level_; }
  [[nodiscard]] std::uint64_t mem_capacity_mb() const { return mem_capacity_mb_; }
  [[nodiscard]] std::uint64_t mem_allocated_mb() const { return mem_allocated_mb_; }
  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }
  /// Switches device `device`'s operating point (capacity / power). On
  /// success it refreshes the cached CpuCapacity() and calls the change
  /// hook, so observers re-sample the node.
  util::Status SetOperatingPoint(std::size_t device, std::size_t point);

  /// Total abstract CPU capacity: sum over devices of units * speedup * GHz.
  /// Cached: it changes only through AddDevice and SetOperatingPoint.
  [[nodiscard]] double CpuCapacity() const { return cpu_capacity_; }

  /// Memory reservation used by the scheduler's bind step.
  util::Status ReserveMemory(std::uint64_t mb);
  void ReleaseMemory(std::uint64_t mb);

  /// Picks the best device for a demand (lowest latency estimate among
  /// devices; accelerable work prefers fabric devices).
  [[nodiscard]] std::size_t BestDeviceFor(const TaskDemand& demand) const;

  using CompletionFn = std::function<void(const TaskReport&)>;
  /// Enqueues `demand` on device `device_index` (FIFO per device). The
  /// completion callback fires at simulated finish time. A down node, or an
  /// unknown device, drops the task and never calls `done`: callers check
  /// up() right before submitting.
  void Submit(const TaskDemand& demand, std::size_t device_index,
              CompletionFn done);
  /// Enqueues on the best device.
  void Submit(const TaskDemand& demand, CompletionFn done);

  /// Node availability (failure injection). Down nodes reject submissions.
  void SetUp(bool up) {
    up_ = up;
    NotifyPlacementWatchers();
    MarkChanged();
  }
  [[nodiscard]] bool up() const { return up_; }

  /// --- Placement-input watch -------------------------------------------
  /// Told a node's slot whenever up() or CpuCapacity() may have changed:
  /// from SetUp, AddDevice and SetOperatingPoint only, not from the task and
  /// memory traffic that MarkChanged also reports. A scheduler index keeps
  /// its cached rankings fresh through it.
  class PlacementWatcher {
   public:
    virtual void OnPlacementInputChanged(std::uint32_t slot) = 0;

   protected:
    ~PlacementWatcher() = default;
  };
  /// Registers `watcher` under `slot`, the node's slot in the watcher's
  /// index. Held weakly: a watcher that is gone is skipped, and pruned here.
  void AddPlacementWatcher(std::weak_ptr<PlacementWatcher> watcher,
                           std::uint32_t slot);

  /// --- Change hook ------------------------------------------------------
  /// Called on every observable mutation: up/down flips, memory allocation,
  /// task submission/completion (queue depth, busy time, energy), device
  /// registration and operating-point changes. Single listener, fanned out
  /// by continuum::ChangeTracker, so observers (MAPE Monitor) visit only the
  /// nodes that changed instead of re-sampling the whole fleet.
  using ChangeHook = std::function<void()>;
  void SetChangeHook(ChangeHook hook) { change_hook_ = std::move(hook); }
  /// Notifies the hook. Public so ledgers living outside the node (scheduler
  /// allocation columns, peering reflections) can mark their node dirty
  /// through the same channel.
  void MarkChanged() {
    if (change_hook_) change_hook_();
  }

  /// --- PMC-style counters ----------------------------------------------
  [[nodiscard]] std::uint64_t tasks_completed() const { return tasks_completed_; }
  /// Cumulative active energy of completed tasks: the fleet's only energy
  /// total (a fleet figure is the sum over nodes).
  [[nodiscard]] util::MilliJoules total_energy() const {
    return total_energy_;
  }
  /// total_energy() as a plain double, for report rows.
  [[nodiscard]] double total_energy_mj() const { return total_energy_.value(); }
  /// Busy fraction of a device since the node was created.
  [[nodiscard]] double Utilization(std::size_t device_index) const;
  [[nodiscard]] sim::SimTime created_at() const { return created_at_; }
  /// Total busy time accumulated on a device — with created_at(), the inputs
  /// of Utilization(), exposed so observers can predict when the (strictly
  /// decaying, absent new work) utilization crosses a planning threshold.
  [[nodiscard]] sim::SimTime BusyAccum(std::size_t device_index) const {
    return device_index < busy_accum_.size() ? busy_accum_[device_index]
                                             : sim::SimTime::Zero();
  }
  /// Instantaneous queue depth across all devices.
  [[nodiscard]] std::size_t QueueDepth() const;
  /// Idle-power energy accumulated up to `now` (integrates idle draw).
  [[nodiscard]] util::MilliJoules IdleEnergyMj(sim::SimTime now) const;

 private:
  void RefreshCpuCapacity();
  void NotifyPlacementWatchers();

  sim::Engine& engine_;
  // Read for every scheduling candidate; kept together on the first line.
  double cpu_capacity_ = 0.0;  // CpuCapacity(), recomputed on device changes
  bool up_ = true;
  std::string id_;
  Layer layer_;
  std::string kind_;
  security::SecurityLevel level_;
  std::uint64_t mem_capacity_mb_;
  std::uint64_t mem_allocated_mb_ = 0;

  std::vector<Device> devices_;
  std::vector<sim::SimTime> busy_until_;   // per device
  std::vector<sim::SimTime> busy_accum_;   // per device total busy time
  std::vector<std::size_t> queue_depth_;   // per device outstanding tasks
  sim::SimTime created_at_;

  std::uint64_t tasks_completed_ = 0;
  util::MilliJoules total_energy_;
  ChangeHook change_hook_;
  std::vector<std::pair<std::weak_ptr<PlacementWatcher>, std::uint32_t>>
      placement_watchers_;
};

}  // namespace myrtus::continuum
