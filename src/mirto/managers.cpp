#include "mirto/managers.hpp"

#include <algorithm>
#include <limits>

namespace myrtus::mirto {

std::string_view PlacementStrategyName(PlacementStrategy strategy) {
  switch (strategy) {
    case PlacementStrategy::kStaticKube: return "static-kube";
    case PlacementStrategy::kGreedy: return "greedy";
    case PlacementStrategy::kPso: return "pso";
    case PlacementStrategy::kAco: return "aco";
    case PlacementStrategy::kRandom: return "random";
  }
  return "?";
}

WlManager::WlManager(sched::Cluster& cluster, PlacementStrategy strategy,
                     std::uint64_t seed)
    : cluster_(cluster), strategy_(strategy), rng_(seed, "wl-manager") {}

util::StatusOr<std::map<std::string, std::string>> WlManager::PlanPlacement(
    const std::vector<sched::PodSpec>& pods,
    const std::map<std::string, double>& node_latency_cost_ms,
    const std::vector<std::string>& vetoed_nodes) {
  std::map<std::string, std::string> directives;
  if (strategy_ == PlacementStrategy::kStaticKube) {
    // Baseline: no global planning; Execute() will fall through to the
    // plain scheduler pipeline for every pod.
    return directives;
  }

  // Build the swarm placement problem from cluster state.
  swarm::PlacementProblem problem;
  std::vector<sched::NodeState*> states;
  for (sched::NodeState* ns : cluster_.NodeStates()) {
    if (!ns->node->up() || ns->cordoned()) continue;
    if (std::find(vetoed_nodes.begin(), vetoed_nodes.end(), ns->node->id()) !=
        vetoed_nodes.end()) {
      continue;
    }
    swarm::PlacementNode pn;
    pn.id = ns->node->id();
    pn.cpu_capacity = ns->CpuFree();
    pn.mem_capacity_mb = static_cast<double>(ns->MemFreeMb());
    pn.security_level = static_cast<int>(ns->node->security_level());
    pn.has_accelerator = ns->HasAccelerator();
    util::MilliWatts power;
    for (const continuum::Device& d : ns->node->devices()) {
      power += d.active_point().power_active_mw;
    }
    pn.power_mw_per_cpu = power.value() / std::max(1e-9, ns->cpu_capacity());
    const auto it = node_latency_cost_ms.find(pn.id);
    pn.latency_to_consumer_ms = it == node_latency_cost_ms.end() ? 10.0 : it->second;
    problem.nodes.push_back(std::move(pn));
    states.push_back(ns);
  }
  if (problem.nodes.empty()) {
    return util::Status::ResourceExhausted("no schedulable nodes");
  }
  for (const sched::PodSpec& pod : pods) {
    swarm::PlacementTask task;
    task.cpu = pod.cpu_request;
    task.mem_mb = static_cast<double>(pod.mem_request_mb);
    task.min_security = static_cast<int>(pod.min_security);
    task.needs_accelerator = pod.needs_accelerator;
    task.traffic_kbps = std::max(1.0, pod.expected_load * 100.0);
    problem.tasks.push_back(std::move(task));
  }

  swarm::PlacementSolution solution;
  switch (strategy_) {
    case PlacementStrategy::kGreedy:
      solution = swarm::SolveGreedy(problem);
      break;
    case PlacementStrategy::kPso:
      solution = swarm::SolvePso(problem, rng_);
      break;
    case PlacementStrategy::kAco:
      solution = swarm::SolveAco(problem, rng_);
      break;
    case PlacementStrategy::kRandom:
      solution = swarm::SolveRandom(problem, rng_);
      break;
    case PlacementStrategy::kStaticKube:
      break;  // unreachable
  }
  for (std::size_t i = 0; i < pods.size(); ++i) {
    const int n = solution.assignment.size() > i ? solution.assignment[i] : -1;
    if (n >= 0 && static_cast<std::size_t>(n) < problem.nodes.size()) {
      directives[pods[i].name] = problem.nodes[static_cast<std::size_t>(n)].id;
    }
  }
  return directives;
}

util::Status WlManager::Execute(
    const std::vector<sched::PodSpec>& pods,
    const std::map<std::string, std::string>& directives) {
  std::string failures;
  for (const sched::PodSpec& pod : pods) {
    const auto it = directives.find(pod.name);
    util::StatusOr<std::string> bound = util::Status::NotFound("no directive");
    if (it != directives.end()) {
      bound = cluster_.BindPodToNode(pod, it->second);
      // Directive unfulfillable (stale capacity view): fall back below.
    }
    if (!bound.ok()) {
      bound = cluster_.BindPodWithPreemption(pod);
    }
    if (!bound.ok()) {
      failures += pod.name + " (" + bound.status().message() + "); ";
    }
  }
  if (!failures.empty()) {
    return util::Status::ResourceExhausted("unplaced pods: " + failures);
  }
  return util::Status::Ok();
}

NodeManager::NodeManager(double up_threshold, double down_threshold)
    : up_threshold_(up_threshold), down_threshold_(down_threshold) {}

std::vector<NodeManager::Decision> NodeManager::PlanNode(
    continuum::ComputeNode& node) {
  std::vector<Decision> decisions;
  for (std::size_t d = 0; d < node.devices().size(); ++d) {
    const continuum::Device& device = node.devices()[d];
    const double util = node.Utilization(d);
    Decision decision;
    decision.node_id = node.id();
    decision.device_index = d;
    decision.operating_point = device.active_point_index();
    if (util > up_threshold_ && device.active_point_index() != 0) {
      decision.operating_point = 0;  // fastest point
      decision.changed = true;
    } else if (util < down_threshold_ &&
               device.active_point_index() + 1 <
                   device.operating_points().size()) {
      decision.operating_point = device.operating_points().size() - 1;  // eco
      decision.changed = true;
    }
    decisions.push_back(decision);
  }
  return decisions;
}

util::Status NodeManager::Execute(continuum::ComputeNode& node,
                                  const Decision& decision) {
  if (!decision.changed) return util::Status::Ok();
  MYRTUS_RETURN_IF_ERROR(
      node.SetOperatingPoint(decision.device_index, decision.operating_point));
  ++reconfigurations_;
  return util::Status::Ok();
}

NetworkManager::NetworkManager(const net::Topology& topology)
    : topology_(topology) {}

std::map<std::string, double> NetworkManager::LatencyCostMs(
    const std::string& anchor_host,
    const std::vector<std::string>& node_ids) const {
  std::map<std::string, double> out;
  for (const std::string& node : node_ids) {
    auto route = topology_.FindRoute(anchor_host, node);
    out[node] = route.ok() ? (*route)->propagation.ToMillisF() : 1e9;
  }
  return out;
}

util::StatusOr<std::string> NetworkManager::NearestNode(
    const std::string& anchor_host,
    const std::vector<std::string>& node_ids) const {
  const auto costs = LatencyCostMs(anchor_host, node_ids);
  std::string best;
  double best_ms = std::numeric_limits<double>::infinity();
  for (const auto& [node, ms] : costs) {
    if (ms < best_ms) {
      best_ms = ms;
      best = node;
    }
  }
  if (best.empty() || best_ms >= 1e9) {
    return util::Status::NotFound("no reachable node from " + anchor_host);
  }
  return best;
}

PrivacySecurityManager::PrivacySecurityManager(double veto_threshold)
    : veto_threshold_(veto_threshold) {}

TrustSlot PrivacySecurityManager::Slot(const std::string& node_id) {
  const auto [it, inserted] = slot_of_.try_emplace(
      node_id, static_cast<TrustSlot>(entries_.size()));
  if (inserted) entries_.emplace_back();
  return it->second;
}

bool PrivacySecurityManager::RecordOutcome(TrustSlot slot, bool success,
                                           std::uint64_t iteration) {
  TrustEntry& entry = entries_[slot];
  // Exponential update: failures bite harder than successes heal. Either
  // way it ends at a fixed point, after which the outcome is a no-op and
  // returns false; kb::TrustAt stops there too, so healing needs no write.
  const double updated = kb::TrustStep(entry.trust, success);
  if (success != entry.state.healing) {
    entry.state = {updated, success, iteration};
  }
  if (updated == entry.trust) return false;
  entry.trust = updated;
  return true;
}

double PrivacySecurityManager::TrustOf(const std::string& node_id) const {
  const auto it = slot_of_.find(node_id);
  return it == slot_of_.end() ? 1.0 : TrustOf(it->second);
}

std::vector<std::string> PrivacySecurityManager::VetoedNodes() const {
  std::vector<std::string> out;
  for (const auto& [node, slot] : slot_of_) {
    if (entries_[slot].trust < veto_threshold_) out.push_back(node);
  }
  return out;
}

bool PrivacySecurityManager::Permits(const sched::PodSpec& pod,
                                     const continuum::ComputeNode& node) const {
  return security::Satisfies(node.security_level(), pod.min_security) &&
         TrustOf(node.id()) >= veto_threshold_;
}

}  // namespace myrtus::mirto
