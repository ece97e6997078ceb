// Filter → score → bind scheduling pipeline, mirroring kube-scheduler's
// default profile. There is one production path, and its checks and scores
// are fixed:
//
//  - filters, in order: node ready, not cordoned, fits (cpu, then memory),
//    security level, accelerator, layer affinity, node selector, then any
//    opaque filters added with AddFilter();
//  - score: the weighted mean of least-allocated (1.0) and balanced (0.5).
//
// Schedule() reads the best candidate from the NodeIndex's ranking for the
// pod's shape: the structural filters as one bitmap query, liveness,
// capacity and the score kept current per changed slot. Opaque filters are
// tried on candidates in rank order. When nothing survives, one walk over
// the index in slot order reads each node's first failing check from the
// same sources and writes the RESOURCE_EXHAUSTED message. The full-scan
// reference the differential tests compare against lives in the test oracle
// (tests/oracle/sched_oracle.hpp), not here.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sched/node_index.hpp"
#include "sched/pod.hpp"
#include "util/status.hpp"

namespace myrtus::sched {

/// An opaque filter rejects a node outright (returns a human-readable reason)
/// or passes it (empty optional).
using FilterFn = std::function<std::optional<std::string>(
    const PodSpec& pod, const NodeState& node)>;

struct ScheduleResult {
  std::string node_id;
  double score = 0.0;
  /// Candidate-set size: the nodes the structural bitmaps left to check.
  std::uint64_t nodes_considered = 0;
};

class Scheduler {
 public:
  /// The built-in pipeline with no opaque filters.
  static Scheduler Default() { return Scheduler(); }

  /// Opaque custom filter, evaluated after the built-in checks on candidates
  /// in rank order until one passes. It must be pure in (pod, node): which
  /// candidates it is asked about depends on the ranking.
  void AddFilter(FilterFn f) { filters_.push_back(std::move(f)); }

  /// Picks the best feasible node of `index`: the highest score, ties to the
  /// lowest slot. RESOURCE_EXHAUSTED when none fits; the message lists every
  /// node, in slot order, with the reason of its first failing check.
  [[nodiscard]] util::StatusOr<ScheduleResult> Schedule(
      const PodSpec& pod, const NodeIndex& index) const;

 private:
  /// Appends "; <node id>: <reason>" for the first check `slot` fails, in
  /// pipeline order, each read from the source the candidate query or the
  /// per-candidate checks read; appends nothing when every check passes.
  void AppendRejection(const PodSpec& pod, const NodeIndex& index,
                       std::uint32_t slot, std::string& out) const;

  std::vector<FilterFn> filters_;
};

}  // namespace myrtus::sched
