#include "oracle/sched_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "continuum/node.hpp"
#include "security/policy.hpp"

namespace myrtus::oracle {

namespace {

using sched::FilterFn;
using sched::NodeState;
using sched::PodSpec;

// The default pipeline's built-in filters, in pipeline order.
const std::vector<FilterFn>& BuiltInFilters() {
  static const std::vector<FilterFn> filters = {
      // node ready
      [](const PodSpec&, const NodeState& n) -> std::optional<std::string> {
        if (!n.node->up()) return "node down";
        return std::nullopt;
      },
      // not cordoned
      [](const PodSpec&, const NodeState& n) -> std::optional<std::string> {
        if (n.cordoned()) return "cordoned";
        return std::nullopt;
      },
      // fits resources
      [](const PodSpec& pod, const NodeState& n) -> std::optional<std::string> {
        if (n.CpuFree() < pod.cpu_request) return "insufficient cpu";
        if (n.MemFreeMb() < pod.mem_request_mb) return "insufficient memory";
        return std::nullopt;
      },
      // security level
      [](const PodSpec& pod, const NodeState& n) -> std::optional<std::string> {
        if (!security::Satisfies(n.node->security_level(), pod.min_security)) {
          return "security level too low";
        }
        return std::nullopt;
      },
      // accelerator
      [](const PodSpec& pod, const NodeState& n) -> std::optional<std::string> {
        if (pod.needs_accelerator && !n.HasAccelerator()) {
          return "no accelerator";
        }
        return std::nullopt;
      },
      // layer affinity
      [](const PodSpec& pod, const NodeState& n) -> std::optional<std::string> {
        if (!pod.layer_affinity.empty() &&
            pod.layer_affinity != continuum::LayerName(n.node->layer())) {
          return "layer mismatch";
        }
        return std::nullopt;
      },
      // node selector
      [](const PodSpec& pod, const NodeState& n) -> std::optional<std::string> {
        for (const auto& [k, v] : pod.node_selector) {
          const auto it = n.labels().find(k);
          if (it == n.labels().end() || it->second != v) {
            return "selector mismatch on " + k;
          }
        }
        return std::nullopt;
      },
  };
  return filters;
}

std::optional<std::string> FirstRejection(const std::vector<FilterFn>& chain,
                                          const PodSpec& pod,
                                          const NodeState& n) {
  for (const FilterFn& filter : chain) {
    if (auto reason = filter(pod, n)) return reason;
  }
  return std::nullopt;
}

// Least-allocated (weight 1.0) and balanced (weight 0.5), accumulated in
// that order and divided by the accumulated weight.
double Score(const PodSpec& pod, const NodeState& n) {
  const double cap = n.cpu_capacity();
  const double least = cap <= 0 ? 0.0 : std::max(0.0, n.CpuFree() / cap);
  const double cpu_frac =
      (n.cpu_allocated() + pod.cpu_request) / std::max(1e-9, cap);
  const double mem_frac =
      static_cast<double>(n.mem_allocated_mb() + pod.mem_request_mb) /
      std::max<double>(1.0, static_cast<double>(n.mem_capacity_mb()));
  const double balanced = 1.0 - std::fabs(cpu_frac - mem_frac);
  double score = 0.0;
  double total = 0.0;
  score += 1.0 * least;
  total += 1.0;
  score += 0.5 * balanced;
  total += 0.5;
  return score / total;
}

}  // namespace

util::StatusOr<sched::ScheduleResult> ScanSchedule(
    const std::vector<FilterFn>& filters, const PodSpec& pod,
    const std::vector<NodeState*>& nodes) {
  std::string rejections;
  const NodeState* best = nullptr;
  double best_score = -1.0;
  for (const NodeState* n : nodes) {
    std::optional<std::string> reason = FirstRejection(BuiltInFilters(), pod, *n);
    if (!reason) reason = FirstRejection(filters, pod, *n);
    if (reason) {
      rejections += "; " + n->node->id() + ": " + *reason;
      continue;
    }
    const double score = Score(pod, *n);
    if (score > best_score) {
      best_score = score;
      best = n;
    }
  }
  if (best == nullptr) {
    return util::Status::ResourceExhausted("no feasible node for pod " +
                                           pod.name + rejections);
  }
  sched::ScheduleResult result;
  result.node_id = best->node->id();
  result.score = best_score;
  result.nodes_considered = nodes.size();
  return result;
}

}  // namespace myrtus::oracle
