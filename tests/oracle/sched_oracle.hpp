// Full-scan scheduling reference for sched::Scheduler. The production
// scheduler intersects NodeIndex bitmaps, reads the best candidate from a
// cached per-pod-shape ranking that it refreshes only for changed nodes, and
// on failure walks the index once for the rejection reasons. This oracle does
// none of that: it runs every filter of the default pipeline on every node,
// through std::function like a kube-scheduler plugin chain, and scores every
// survivor. It is written only against the public NodeState accessors and
// keeps its own copy of the filter chain, the reason strings and the score
// formula, so a differential test compares two independent implementations.
#pragma once

#include <vector>

#include "sched/node_index.hpp"
#include "sched/pod.hpp"
#include "sched/scheduler.hpp"
#include "util/status.hpp"

namespace myrtus::oracle {

/// Schedules `pod` over `nodes` the way Scheduler::Default() plus the opaque
/// `filters` (in AddFilter order) must: the first node, in `nodes` order,
/// whose score strictly beats every earlier survivor. RESOURCE_EXHAUSTED when
/// no node survives, listing every node with its first failing filter's
/// reason. `nodes_considered` is the fleet size.
[[nodiscard]] util::StatusOr<sched::ScheduleResult> ScanSchedule(
    const std::vector<sched::FilterFn>& filters, const sched::PodSpec& pod,
    const std::vector<sched::NodeState*>& nodes);

}  // namespace myrtus::oracle
