// The four optimization drivers of the MIRTO Manager (§IV): workload
// management, node management, network management, and privacy & security
// management. Each driver is a self-contained decision component; the MIRTO
// agent composes them inside its MAPE-K loop, and §VI's interaction pattern
// (WL Manager gathering resource state, KB history, network costs, and
// security constraints before issuing directives) is realized in
// WlManager::PlanPlacement.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "continuum/node.hpp"
#include "kb/registry.hpp"
#include "net/topology.hpp"
#include "sched/controller.hpp"
#include "swarm/placement.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace myrtus::mirto {

/// Placement strategy portfolio (§IV: "different flavors of MIRTO agents,
/// capable of operating under different AI-based algorithms").
enum class PlacementStrategy : std::uint8_t {
  kStaticKube,   // baseline: plain filter/score pipeline, no global view
  kGreedy,       // cost-model greedy
  kPso,          // particle swarm
  kAco,          // ant colony
  kRandom,       // ablation floor
};
std::string_view PlacementStrategyName(PlacementStrategy strategy);

/// --- Workload Manager -----------------------------------------------------
class WlManager {
 public:
  WlManager(sched::Cluster& cluster, PlacementStrategy strategy,
            std::uint64_t seed);

  /// Decides node bindings for a pod set using the global cost model
  /// (energy + latency-to-gateway + balance), honoring vetoes from the
  /// security manager. Returns pod-name -> node-id directives.
  util::StatusOr<std::map<std::string, std::string>> PlanPlacement(
      const std::vector<sched::PodSpec>& pods,
      const std::map<std::string, double>& node_latency_cost_ms,
      const std::vector<std::string>& vetoed_nodes);

  /// Applies directives: binds each pod to its planned node via a pinning
  /// label (falls back to the scheduler when a directive fails).
  util::Status Execute(const std::vector<sched::PodSpec>& pods,
                       const std::map<std::string, std::string>& directives);

  [[nodiscard]] PlacementStrategy strategy() const { return strategy_; }

 private:
  sched::Cluster& cluster_;
  PlacementStrategy strategy_;
  util::Rng rng_;
};

/// --- Node Manager -----------------------------------------------------------
/// Chooses device operating points from observed load: the edge-agent
/// behaviour of §IV ("estimate the best operating point of a workload and,
/// given the current status, change configuration accordingly").
class NodeManager {
 public:
  struct Decision {
    std::string node_id;
    std::size_t device_index;
    std::size_t operating_point;
    bool changed = false;
  };

  /// Hysteresis thresholds on device utilization.
  explicit NodeManager(double up_threshold = 0.75, double down_threshold = 0.25);

  /// Plans operating-point changes for all devices of a node: utilization
  /// above the up-threshold selects the fastest point; below the
  /// down-threshold selects the most efficient; in between holds.
  std::vector<Decision> PlanNode(continuum::ComputeNode& node);
  /// Applies a decision (pays the reconfiguration cost implicitly via the
  /// device's counter).
  util::Status Execute(continuum::ComputeNode& node, const Decision& decision);

  [[nodiscard]] std::uint64_t reconfigurations() const { return reconfigurations_; }
  [[nodiscard]] double up_threshold() const { return up_threshold_; }
  [[nodiscard]] double down_threshold() const { return down_threshold_; }

 private:
  double up_threshold_;
  double down_threshold_;
  std::uint64_t reconfigurations_ = 0;
};

/// --- Network Manager --------------------------------------------------------
/// Derives per-node communication costs and congestion signals from the
/// topology — the "application orchestration costs" input of §VI.
class NetworkManager {
 public:
  explicit NetworkManager(const net::Topology& topology);

  /// Latency (ms) from each node to a data source/consumer host. Unreachable
  /// nodes get +inf-ish cost.
  [[nodiscard]] std::map<std::string, double> LatencyCostMs(
      const std::string& anchor_host,
      const std::vector<std::string>& node_ids) const;

  /// Picks the cheapest node (by latency to anchor) among candidates.
  [[nodiscard]] util::StatusOr<std::string> NearestNode(
      const std::string& anchor_host,
      const std::vector<std::string>& node_ids) const;

 private:
  const net::Topology& topology_;
};

/// --- Privacy & Security Manager ---------------------------------------------
/// Maintains runtime trust indicators (§III: "trust-related KPIs to implement
/// trust and reputation schemes at runtime") and vetoes placements.
///
/// Trust is addressed by slot: Slot(node_id) hands out a stable handle (like
/// sched::PodId) that callers holding node indices cache, so the per-outcome
/// update is a vector access. The node-id overloads resolve the slot and run
/// the same body.
using TrustSlot = std::uint32_t;

class PrivacySecurityManager {
 public:
  explicit PrivacySecurityManager(double veto_threshold = 0.4);

  /// The slot of `node_id`'s trust entry, created at trust 1.0 on first use.
  /// Slots stay valid for the manager's lifetime.
  [[nodiscard]] TrustSlot Slot(const std::string& node_id);
  /// Records MAPE iteration `iteration`'s outcome on a node (kb::TrustStep):
  /// failures decay trust, successes recover it. The first failure after
  /// successes, and the first success after failures, is a transition: it
  /// becomes the node's TrustState (StateOf), which the node's next registry
  /// record carries. Returns whether the node's trust changed.
  bool RecordOutcome(TrustSlot slot, bool success, std::uint64_t iteration);
  bool RecordOutcome(const std::string& node_id, bool success,
                     std::uint64_t iteration) {
    return RecordOutcome(Slot(node_id), success, iteration);
  }
  [[nodiscard]] double TrustOf(TrustSlot slot) const {
    return entries_[slot].trust;
  }
  /// 1.0 for a node never seen.
  [[nodiscard]] double TrustOf(const std::string& node_id) const;
  /// The node's last transition, as its registry record stores it.
  [[nodiscard]] const kb::TrustState& StateOf(TrustSlot slot) const {
    return entries_[slot].state;
  }
  /// Nodes currently below the veto threshold, in node-id order.
  [[nodiscard]] std::vector<std::string> VetoedNodes() const;
  /// True when a pod may run on the node: security level satisfied and node
  /// trusted.
  [[nodiscard]] bool Permits(const sched::PodSpec& pod,
                             const continuum::ComputeNode& node) const;

 private:
  struct TrustEntry {
    double trust = 1.0;
    kb::TrustState state{};
  };
  double veto_threshold_;
  std::vector<TrustEntry> entries_;           // indexed by TrustSlot
  std::map<std::string, TrustSlot> slot_of_;  // node id -> slot, id order
};

}  // namespace myrtus::mirto
