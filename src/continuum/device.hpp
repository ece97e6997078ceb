// Device-level compute models for the heterogeneous continuum of Fig. 2:
// commercial multicores (big/LITTLE), FPGA-based accelerators with runtime
// reconfiguration and multiple operating points [3][26][29], and adaptive
// RISC-V cores with custom computing units [4].
//
// Substitution note (DESIGN.md): real HMPSoC/FPGA boards are modeled by
// cycle-budget execution with per-device clock/power parameters and, for the
// FPGA, bitstream-load costs and operating-point tables — exactly the metrics
// the paper's monitors expose (latency & energy via PMCs, §III).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace myrtus::continuum {

/// What a task asks of a device.
struct TaskDemand {
  std::uint64_t cycles = 0;       // work on a 1x-speed scalar core
  std::uint64_t bytes_in = 0;     // input to move to the device
  std::uint64_t bytes_out = 0;    // output to move back
  double parallel_fraction = 0.0; // Amdahl fraction exploitable by >1 units
  bool accelerable = false;       // has an accelerator kernel (FPGA/CCU)
};

/// Outcome of running a task on a device.
struct ExecutionEstimate {
  sim::SimTime latency;
  util::MilliJoules energy_mj{};
};

/// One voltage/frequency (or accelerator-configuration) operating point,
/// the unit of runtime adaptation in [29]/[30] and the MDC-style
/// reconfigurable accelerators [26].
struct OperatingPoint {
  std::string name;
  double clock_ghz = 1.0;
  util::MilliWatts power_active_mw{1000.0};
  util::MilliWatts power_idle_mw{100.0};
  double speedup = 1.0;  // vs the 1x reference scalar core at 1 GHz
};

enum class DeviceKind : std::uint8_t {
  kCpuBig,
  kCpuLittle,
  kFpgaAccelerator,
  kRiscvCcu,   // RISC-V with custom compute units / reconfigurable overlay
  kServerCpu,  // fog/cloud server-class core
};
std::string_view DeviceKindName(DeviceKind kind);

/// A compute device with a set of operating points and (for reconfigurable
/// fabrics) loadable configurations.
class Device {
 public:
  Device(std::string name, DeviceKind kind, int parallel_units,
         std::vector<OperatingPoint> points);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] DeviceKind kind() const { return kind_; }
  [[nodiscard]] int parallel_units() const { return parallel_units_; }
  [[nodiscard]] const std::vector<OperatingPoint>& operating_points() const {
    return points_;
  }
  [[nodiscard]] const OperatingPoint& active_point() const {
    return points_[active_point_];
  }
  [[nodiscard]] std::size_t active_point_index() const { return active_point_; }

  /// Switches operating point (DVFS / accelerator mode). Near-instant for
  /// CPUs; reconfigurable fabrics pay `reconfigure_cost`.
  util::Status SetOperatingPoint(std::size_t index);
  [[nodiscard]] sim::SimTime reconfigure_cost() const { return reconfigure_cost_; }
  void set_reconfigure_cost(sim::SimTime cost) { reconfigure_cost_ = cost; }
  /// Number of reconfigurations performed so far (PMC-style counter).
  [[nodiscard]] std::uint64_t reconfigurations() const { return reconfigurations_; }

  /// Latency/energy to execute `demand` at the active operating point,
  /// including on-device memory movement at `membw_gbps`.
  [[nodiscard]] ExecutionEstimate Estimate(const TaskDemand& demand) const;
  /// Estimate at an arbitrary point (for DSE sweeps without mutating state).
  [[nodiscard]] ExecutionEstimate EstimateAt(const TaskDemand& demand,
                                             const OperatingPoint& point) const;

  void set_membw_gbps(double v) { membw_gbps_ = v; }
  [[nodiscard]] double membw_gbps() const { return membw_gbps_; }

  /// Accelerator affinity: how much faster accelerable work runs here
  /// (1.0 for plain CPUs; >1 for FPGA/CCU fabrics).
  void set_accel_factor(double v) { accel_factor_ = v; }
  [[nodiscard]] double accel_factor() const { return accel_factor_; }

 private:
  std::string name_;
  DeviceKind kind_;
  int parallel_units_;
  std::vector<OperatingPoint> points_;
  std::size_t active_point_ = 0;
  sim::SimTime reconfigure_cost_ = sim::SimTime::Zero();
  std::uint64_t reconfigurations_ = 0;
  double membw_gbps_ = 8.0;
  double accel_factor_ = 1.0;
};

/// Factory helpers for the device classes of Fig. 2.
Device MakeBigCore(const std::string& name);
Device MakeLittleCore(const std::string& name);
Device MakeFpgaAccelerator(const std::string& name);
Device MakeRiscvCcu(const std::string& name);
Device MakeServerCpu(const std::string& name, int cores, double ghz);

}  // namespace myrtus::continuum
