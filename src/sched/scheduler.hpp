// Filter → score → bind scheduling pipeline, mirroring kube-scheduler's
// framework. Filters eliminate infeasible nodes (resources, security level,
// accelerator, layer affinity, labels); scorers rank the survivors
// (least-allocated, balanced).
//
// Two execution paths produce identical verdicts:
//  - scan: filter + score every node (the reference semantics);
//  - indexed: intersect NodeIndex bitmaps for the structural filters, then
//    run only the residual (capacity/liveness/opaque) filters per candidate.
// The indexed path falls back to the scan when no candidate survives, so
// failures carry the same per-node rejection list either way. Both paths
// score through one kernel over the NodeIndex columns.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "continuum/node.hpp"
#include "sched/node_index.hpp"
#include "sched/pod.hpp"
#include "util/status.hpp"

namespace myrtus::sched {

/// Which built-in constraint a filter implements. The indexed path uses the
/// kind to decide which filters the candidate bitmaps already guarantee;
/// kOpaque filters always run per candidate.
enum class FilterKind : std::uint8_t {
  kOpaque = 0,
  kNodeReady,       // liveness: mutated externally, always checked live
  kNotCordoned,     // indexed
  kFitsResources,   // capacity: changes per bind, always checked live
  kSecurityLevel,   // indexed
  kAccelerator,     // indexed
  kLayerAffinity,   // indexed
  kNodeSelector,    // indexed
};
inline constexpr std::size_t kNumFilterKinds = 8;

/// A filter rejects a node outright (returns a human-readable reason) or
/// passes it (empty optional).
using FilterFn = std::function<std::optional<std::string>(
    const PodSpec& pod, const NodeState& node)>;
/// Which built-in score a scorer computes, each in [0,1], higher is better.
/// Scores are not callbacks: one kernel switches on the kind.
enum class ScoreKind : std::uint8_t {
  kLeastAllocated,  // free cpu over cpu capacity
  kBalanced,        // 1 - |cpu fraction - memory fraction| after the bind
};

struct FilterPlugin {
  std::string name;
  FilterKind kind = FilterKind::kOpaque;
  FilterFn fn;
};

struct ScorePlugin {
  std::string name;
  ScoreKind kind = ScoreKind::kLeastAllocated;
  double weight = 1.0;
};

/// Built-in plugins.
namespace plugins {
FilterPlugin FitsResources();
FilterPlugin SecurityLevel();
FilterPlugin Accelerator();
FilterPlugin LayerAffinity();
FilterPlugin NodeSelector();
FilterPlugin NotCordoned();
FilterPlugin NodeReady();

ScorePlugin LeastAllocated(double weight = 1.0);
ScorePlugin Balanced(double weight = 1.0);
}  // namespace plugins

struct ScheduleResult {
  std::string node_id;
  double score = 0.0;
  std::vector<std::pair<std::string, std::string>> rejections;  // node, reason
  /// Nodes actually evaluated: fleet size on the scan path, candidate-set
  /// size on the indexed fast path.
  std::uint64_t nodes_considered = 0;
};

class Scheduler {
 public:
  /// Default pipeline: all built-in filters, least-allocated + balanced.
  static Scheduler Default();

  void AddFilter(FilterPlugin f);
  /// Opaque custom filter: always evaluated per candidate on both paths.
  void AddFilter(FilterFn f) {
    AddFilter(FilterPlugin{"custom", FilterKind::kOpaque, std::move(f)});
  }
  void AddScorer(ScorePlugin s) {
    score_weight_total_ += s.weight;
    scorers_.push_back(std::move(s));
  }

  /// Picks the best feasible node by scanning `nodes`. RESOURCE_EXHAUSTED
  /// when none fits (the result's rejection list explains why, per node).
  [[nodiscard]] util::StatusOr<ScheduleResult> Schedule(
      const PodSpec& pod, const std::vector<NodeState*>& nodes) const;
  /// Indexed candidate selection over `index`; verdict-identical to the scan
  /// (same winner; on failure, same rejection list via scan fallback). The
  /// success fast path leaves `rejections` empty.
  [[nodiscard]] util::StatusOr<ScheduleResult> Schedule(
      const PodSpec& pod, const NodeIndex& index) const;

 private:
  /// The scoring kernel both paths share: the weighted mean of every
  /// scorer's value for `slot` of `index`, in scorer order.
  [[nodiscard]] double ScoreSlot(const PodSpec& pod, const NodeIndex& index,
                                 std::uint32_t slot) const;
  template <typename GetNode>
  [[nodiscard]] util::StatusOr<ScheduleResult> ScanImpl(
      const PodSpec& pod, std::size_t count, GetNode get,
      const char* path) const;

  std::vector<FilterPlugin> filters_;
  std::vector<ScorePlugin> scorers_;
  // Sum of the scorer weights, accumulated in scorer order.
  double score_weight_total_ = 0.0;
  bool has_kind_[kNumFilterKinds] = {};
  // Indices into filters_ of the opaque filters, in pipeline order.
  std::vector<std::uint32_t> opaque_;
};

}  // namespace myrtus::sched
