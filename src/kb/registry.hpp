// Resource Registry / Status — the KB schema the paper names as the
// observability backbone: "a snapshot of the components availability and
// their status" plus historical telemetry (§III Monitoring, §VI KB activity).
// The registry is a typed veneer over the MVCC store under reserved key
// prefixes:
//   /registry/nodes/<node-id>        -> NodeRecord
//   /registry/workloads/<wl-id>      -> workload placement record
//   /telemetry/<node-id>/<metric>    -> ring of recent samples
//   /slo/<scope>/<objective>         -> burn-rate alert state (self-monitoring)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kb/store.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace myrtus::kb {

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
  double trust_score = 1.0;       // runtime trust indicator (§III)

  [[nodiscard]] util::Json ToJson() const;
  static util::StatusOr<NodeRecord> FromJson(const util::Json& j);
};

/// One trust score for ResourceRegistry::PutTrusts. `written` reports
/// whether it landed.
struct TrustWrite {
  std::string_view node_id;
  double trust_score = 1.0;
  bool written = false;
};

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
  /// Sets one registered node's trust_score in place, keeping its lease. A
  /// record not in NodeRecord::ToJson's shape is normalized first, so the
  /// stored bytes equal a GetNode → PutNode round trip. False (nothing
  /// written) when the node has no parseable record.
  bool PutTrust(const std::string& node_id, double trust_score,
                std::int64_t skip_watch = 0);
  /// PutTrust for each of `writes`, whose node ids must ascend, in that
  /// order and with the same effects, in one forward walk of the node
  /// records. A record this registry last wrote itself is known to be in
  /// canonical shape and skips the check.
  void PutTrusts(std::span<TrustWrite> writes, std::int64_t skip_watch = 0);
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
  /// Revisions at which this registry wrote a node record in
  /// NodeRecord::ToJson's shape. A record whose mod_revision is one of them
  /// still holds that write. Only the latest kWindow revisions are kept
  /// (8 KiB); an older one reads as unknown, which costs one shape check.
  class CanonicalRevisions {
   public:
    void Insert(std::int64_t revision);
    [[nodiscard]] bool Contains(std::int64_t revision) const;

   private:
    static constexpr std::int64_t kWindow = std::int64_t{1} << 16;
    void Assign(std::int64_t revision, bool canonical);
    std::vector<std::uint64_t> bits_ =
        std::vector<std::uint64_t>(kWindow / 64, 0);
    std::int64_t newest_ = 0;
  };

  Store& store_;
  CanonicalRevisions canonical_;
};

}  // namespace myrtus::kb
