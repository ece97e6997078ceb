// Resource Registry / Status — the KB schema the paper names as the
// observability backbone: "a snapshot of the components availability and
// their status" plus historical telemetry (§III Monitoring, §VI KB activity).
// The registry is a typed veneer over the MVCC store under reserved key
// prefixes:
//   /registry/nodes/<node-id>        -> NodeRecord (trust as TrustState)
//   /registry/workloads/<wl-id>      -> workload placement record
//   /telemetry/<node-id>/<metric>    -> ring of recent samples
//   /slo/<scope>/<objective>         -> burn-rate alert state (self-monitoring)
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "kb/store.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace myrtus::kb {

/// One trust update (§III "trust-related KPIs ... at runtime"): failures
/// decay trust by 0.7, successes heal it towards 1.0. Both end at a fixed
/// point; in double, healing from 0.7^k stalls at 0.999999999999999.
[[nodiscard]] inline double TrustStep(double trust, bool success) {
  return success ? std::min(1.0, trust * 0.95 + 0.05) : trust * 0.7;
}

/// A node's trust as state rather than as a per-iteration sample: the value
/// right after its last transition (first failure after being up, or first
/// success after failing), whether it has been healing or decaying since,
/// and the MAPE iteration of that transition. One TrustStep per iteration
/// follows it until the fixed point; TrustAt evaluates that. A node that
/// never failed is healing at 1.0, already a fixed point.
struct TrustState {
  double value = 1.0;
  bool healing = true;
  std::uint64_t iteration = 0;

  bool operator==(const TrustState&) const = default;
};

/// Availability/status snapshot of one continuum component.
struct NodeRecord {
  std::string node_id{};
  std::string layer{};        // "edge" | "fog" | "cloud"
  std::string kind{};         // "hmpsoc", "riscv", "gateway", "fmdc", "dc", ...
  bool ready = true;
  double cpu_capacity = 0.0;      // abstract CPU units
  double cpu_allocated = 0.0;
  std::uint64_t mem_capacity_mb = 0;
  std::uint64_t mem_allocated_mb = 0;
  int security_level = 0;         // 0=low 1=medium 2=high (Table II)
  bool has_accelerator = false;
  util::MilliJoules energy_mj{};  // cumulative energy consumed
  TrustState trust{};             // runtime trust indicator (§III)

  [[nodiscard]] util::Json ToJson() const;
  static util::StatusOr<NodeRecord> FromJson(const util::Json& j);
};

/// `record`'s trust after MAPE iteration `iteration` (not before its
/// transition): TrustStep applied once per iteration since the transition,
/// stopping at the step's fixed point. Bit-identical to the in-memory value
/// of a manager that recorded one outcome per iteration.
[[nodiscard]] double TrustAt(const NodeRecord& record, std::uint64_t iteration);

/// Telemetry sample appended by monitors.
struct TelemetrySample {
  std::int64_t at_ns = 0;
  double value = 0.0;
};

/// Registry facade over a Store (typically a local KB replica).
class ResourceRegistry {
 public:
  explicit ResourceRegistry(Store& store) : store_(store) {}

  static std::string NodeKey(const std::string& node_id);
  static std::string WorkloadKey(const std::string& workload_id);
  static std::string TelemetryKey(const std::string& node_id,
                                  const std::string& metric);
  static std::string SloKey(const std::string& scope, const std::string& name);

  /// Upserts a node record. An existing key keeps its lease (etcd's
  /// ignore_lease): a status write must not detach a heartbeat registration.
  /// Node writes leave watch `skip_watch` (0 = none) out of their commits,
  /// for a writer that watches the node records itself.
  void PutNode(const NodeRecord& record, std::int64_t skip_watch = 0);
  [[nodiscard]] util::StatusOr<NodeRecord> GetNode(const std::string& node_id) const;
  /// All registered nodes (optionally restricted to one layer).
  [[nodiscard]] std::vector<NodeRecord> ListNodes(const std::string& layer = "") const;
  void RemoveNode(const std::string& node_id);

  /// Records a workload placement (workload -> node binding + metadata).
  void PutWorkload(const std::string& workload_id, util::Json record);
  [[nodiscard]] util::StatusOr<util::Json> GetWorkload(const std::string& workload_id) const;
  [[nodiscard]] std::vector<std::pair<std::string, util::Json>> ListWorkloads() const;

  /// Samples kept per telemetry series; AppendTelemetry overwrites the
  /// oldest.
  static constexpr std::size_t kTelemetrySamples = 256;

  /// Appends a telemetry sample in place, in O(1): one revision bump and one
  /// kPut. GetTelemetry returns the series oldest first.
  void AppendTelemetry(const std::string& node_id, const std::string& metric,
                       TelemetrySample sample);
  [[nodiscard]] std::vector<TelemetrySample> GetTelemetry(
      const std::string& node_id, const std::string& metric) const;

  /// SLO burn-rate alert state published by the self-monitoring loop
  /// (`scope` = the evaluating component, e.g. the MIRTO agent host). This is
  /// the MAPE-K knowledge feedback: Analyze writes it, anything on the KB —
  /// peers, dashboards, the next Analyze pass — can read it.
  void PutSloState(const std::string& scope, const std::string& name,
                   util::Json record);
  [[nodiscard]] util::StatusOr<util::Json> GetSloState(
      const std::string& scope, const std::string& name) const;

 private:
  Store& store_;
};

}  // namespace myrtus::kb
