#include "sched/controller.hpp"

#include <algorithm>
#include <climits>
#include <cmath>

#include "telemetry/telemetry.hpp"

namespace myrtus::sched {
namespace {

/// Instant child span marking the moment a pod transitions to Running —
/// the leaf of the announce→bid→award→schedule→start causal chain.
void EmitPodStartSpan(const std::string& pod_name, const std::string& node_id) {
  if (!telemetry::Enabled()) return;
  auto& tracer = telemetry::Global().tracer;
  const telemetry::SpanContext span = tracer.StartSpan("pod.start", "sched");
  tracer.SetAttribute(span, "pod", pod_name);
  tracer.SetAttribute(span, "node", node_id);
  tracer.EndSpan(span);
}

}  // namespace

Cluster::Cluster(sim::Engine& engine, Scheduler scheduler)
    : engine_(engine), scheduler_(std::move(scheduler)) {
  pods_.set_node_id_resolver(
      [this](std::int32_t slot) -> const std::string& {
        return index_.at(static_cast<std::size_t>(slot)).node->id();
      });
}

void Cluster::AddNode(continuum::ComputeNode* node,
                      std::map<std::string, std::string> labels) {
  index_.Add(node, std::move(labels));
}

NodeState* Cluster::FindNodeState(const std::string& node_id) {
  return index_.Find(node_id);
}

std::vector<NodeState*> Cluster::NodeStates() {
  std::vector<NodeState*> out;
  out.reserve(index_.size());
  for (std::size_t slot = 0; slot < index_.size(); ++slot) {
    out.push_back(&index_.at(slot));
  }
  return out;
}

void Cluster::Cordon(const std::string& node_id, bool cordoned) {
  if (NodeState* n = index_.Find(node_id)) {
    index_.SetCordoned(n->slot(), cordoned);
    // Scheduler-visible state changed without touching the ComputeNode:
    // call its change hook so event-driven monitors re-observe it.
    n->node->MarkChanged();
  }
}

util::Status Cluster::SetNodeLabel(const std::string& node_id,
                                   const std::string& key,
                                   const std::string& value) {
  NodeState* n = index_.Find(node_id);
  if (n == nullptr) return util::Status::NotFound("node " + node_id);
  index_.SetLabel(n->slot(), key, value);
  return util::Status::Ok();
}

util::Status Cluster::SetReflectedCpuAllocation(const std::string& node_id,
                                                double cpu) {
  NodeState* n = index_.Find(node_id);
  if (n == nullptr) return util::Status::NotFound("node " + node_id);
  index_.SetCpuAllocation(n->slot(), cpu);
  n->node->MarkChanged();
  return util::Status::Ok();
}

util::Status Cluster::SetReflectedMemAllocation(const std::string& node_id,
                                                std::uint64_t mem_mb) {
  NodeState* n = index_.Find(node_id);
  if (n == nullptr) return util::Status::NotFound("node " + node_id);
  // Never below the node's own reservation: a column under it would let
  // Schedule admit a pod that CommitBind's ReserveMemory then refuses.
  index_.SetMemAllocation(n->slot(),
                          std::max(mem_mb, n->node->mem_allocated_mb()));
  n->node->MarkChanged();
  return util::Status::Ok();
}

void Cluster::MarkUnbound(PodId id) {
  unbound_.push_back(id);
  ++pending_count_;
}

void Cluster::RosterInsert(std::int32_t slot, PodId id) {
  const auto s = static_cast<std::size_t>(slot);
  if (pods_by_node_.size() <= s) pods_by_node_.resize(s + 1);
  std::vector<PodId>& roster = pods_by_node_[s];
  const std::string& name = pods_.View(id).name();
  const auto pos = std::lower_bound(
      roster.begin(), roster.end(), name, [this](PodId lhs, const std::string& n) {
        return pods_.View(lhs).name() < n;
      });
  roster.insert(pos, id);
}

void Cluster::RosterErase(std::int32_t slot, PodId id) {
  const auto s = static_cast<std::size_t>(slot);
  if (pods_by_node_.size() <= s) return;
  std::vector<PodId>& roster = pods_by_node_[s];
  const auto pos = std::find(roster.begin(), roster.end(), id);
  if (pos != roster.end()) roster.erase(pos);
}

void Cluster::NotifyBound(const std::string& pod_name) {
  for (const PodEvents& listener : pod_listeners_) {
    if (listener.on_bound) listener.on_bound(pod_name);
  }
}

void Cluster::NotifyDeleted(const std::string& pod_name) {
  for (const PodEvents& listener : pod_listeners_) {
    if (listener.on_deleted) listener.on_deleted(pod_name);
  }
}

util::Status Cluster::CommitBind(PodId id, NodeState& target) {
  const PodView pod = pods_.View(id);
  MYRTUS_RETURN_IF_ERROR(target.node->ReserveMemory(pod.spec().mem_request_mb));
  index_.AddAllocation(target.slot(), pod.spec().cpu_request,
                       pod.spec().mem_request_mb);
  pods_.Bind(id, static_cast<std::int32_t>(target.slot()), engine_.Now().ns,
             pod.spec().cpu_request, pod.spec().mem_request_mb);
  if (pending_count_ > 0) --pending_count_;
  RosterInsert(static_cast<std::int32_t>(target.slot()), id);
  ++running_count_;
  EmitPodStartSpan(pod.name(), target.node->id());
  NotifyBound(pod.name());
  return util::Status::Ok();
}

void Cluster::ReleasePodResources(PodId id) {
  const PodView pod = pods_.View(id);
  if (!pod || pod.node_slot() < 0) return;
  const std::int32_t slot = pod.node_slot();
  index_.SubAllocation(static_cast<std::uint32_t>(slot), pod.committed_cpu(),
                       pod.committed_mem_mb());
  index_.at(static_cast<std::size_t>(slot))
      .node->ReleaseMemory(pod.committed_mem_mb());
  RosterErase(slot, id);
  if (pod.phase() == PodPhase::kRunning && running_count_ > 0) {
    --running_count_;
  }
  pods_.ClearBinding(id);
}

util::StatusOr<std::string> Cluster::TryBind(PodId id) {
  const PodView pod = pods_.View(id);
  telemetry::ScopedSpan span("sched.bind", "sched");
  span.SetAttribute("pod", pod.name());
  auto result = scheduler_.Schedule(pod.spec(), index_);
  if (!result.ok()) return result.status();
  NodeState* target = index_.Find(result->node_id);
  if (target == nullptr) {
    return util::Status::Internal("scheduler chose unknown node");
  }
  MYRTUS_RETURN_IF_ERROR(CommitBind(id, *target));
  if (telemetry::Enabled()) {
    telemetry::Global().metrics.Add("myrtus_sim_pods_bound");
  }
  span.SetAttribute("node", result->node_id);
  return result->node_id;
}

util::StatusOr<std::string> Cluster::BindPod(const PodSpec& spec) {
  const PodId id = pods_.Create(spec);
  if (id == kInvalidPodId) {
    return util::Status::AlreadyExists("pod " + spec.name);
  }
  MarkUnbound(id);        // CommitBind uncounts on success
  return TryBind(id);     // kept (pending) even on failure
}

util::StatusOr<std::string> Cluster::BindPodToNode(const PodSpec& spec,
                                                   const std::string& node_id) {
  if (pods_.FindId(spec.name) != kInvalidPodId) {
    return util::Status::AlreadyExists("pod " + spec.name);
  }
  NodeState* target = index_.Find(node_id);
  if (target == nullptr) return util::Status::NotFound("node " + node_id);
  if (!target->node->up() || target->cordoned()) {
    return util::Status::Unavailable(node_id + " not schedulable");
  }
  if (target->CpuFree() < spec.cpu_request ||
      target->MemFreeMb() < spec.mem_request_mb) {
    return util::Status::ResourceExhausted(node_id + " cannot fit " + spec.name);
  }
  if (!security::Satisfies(target->node->security_level(), spec.min_security)) {
    return util::Status::PermissionDenied(node_id + " below required security level");
  }
  if (spec.needs_accelerator && !target->HasAccelerator()) {
    return util::Status::FailedPrecondition(node_id + " has no accelerator");
  }
  const PodId id = pods_.Create(spec);
  MarkUnbound(id);
  if (util::Status committed = CommitBind(id, *target); !committed.ok()) {
    // The device ledger refused what the clamped check allowed (external
    // reservation raced us); drop the half-created pod.
    unbound_.pop_back();  // the id we just pushed
    if (pending_count_ > 0) --pending_count_;
    pods_.Erase(id);
    return committed;
  }
  if (telemetry::Enabled()) {
    telemetry::Global().metrics.Add("myrtus_sim_pods_bound_directed");
  }
  return node_id;
}

util::StatusOr<std::string> Cluster::BindPodWithPreemption(const PodSpec& spec) {
  auto direct = BindPod(spec);
  if (direct.ok()) return direct;
  if (direct.status().code() != util::StatusCode::kResourceExhausted) {
    return direct;
  }

  // Find a node where evicting strictly-lower-priority pods frees enough
  // room; prefer the node sacrificing the least total priority. Candidates
  // come from the structural indexes (security/accelerator/layer/selector/
  // cordon); liveness and capacity are checked live.
  CandidateQuery query;
  query.restrict_cordoned = true;
  query.restrict_security = true;
  query.min_security = spec.min_security;
  query.restrict_accelerator = spec.needs_accelerator;
  if (!spec.layer_affinity.empty()) query.layer = &spec.layer_affinity;
  if (!spec.node_selector.empty()) query.selector = &spec.node_selector;

  NodeState* best_node = nullptr;
  std::vector<PodId> best_victims;
  int best_cost = INT_MAX;
  index_.Candidates(query).ForEachSet([&](std::size_t slot) {
    NodeState& ns = index_.at(slot);
    if (!ns.node->up()) return;
    double cpu_needed = spec.cpu_request - ns.CpuFree();
    std::int64_t mem_needed = static_cast<std::int64_t>(spec.mem_request_mb) -
                              static_cast<std::int64_t>(ns.MemFreeMb());
    // Victims: lowest priority first (candidates arrive in name order).
    std::vector<PodView> candidates;
    for (const PodView& p : PodsOnNode(ns.node->id())) {
      if (p.spec().priority < spec.priority) candidates.push_back(p);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const PodView& a, const PodView& b) {
                return a.spec().priority < b.spec().priority;
              });
    std::vector<PodId> victims;
    int cost = 0;
    for (const PodView& p : candidates) {
      if (cpu_needed <= 0 && mem_needed <= 0) break;
      victims.push_back(p.id());
      cost += p.spec().priority + 1;
      cpu_needed -= p.spec().cpu_request;
      mem_needed -= static_cast<std::int64_t>(p.spec().mem_request_mb);
    }
    // A node needing no evictions would have been found by the direct bind;
    // only eviction-bearing plans are preemption candidates.
    if (victims.empty()) return;
    if (cpu_needed <= 0 && mem_needed <= 0 && cost < best_cost) {
      best_cost = cost;
      best_node = &ns;
      best_victims = std::move(victims);
    }
  });
  if (best_node == nullptr) return direct.status();

  // Evict, remembering enough to roll each victim back.
  struct EvictedPod {
    PodId id;
    std::int32_t node_slot;
    std::int64_t bound_at_ns;
  };
  std::vector<EvictedPod> evicted;
  evicted.reserve(best_victims.size());
  for (const PodId victim : best_victims) {
    const PodView v = pods_.View(victim);
    evicted.push_back({victim, v.node_slot(), v.bound_at_ns()});
    ReleasePodResources(victim);
    pods_.SetPhase(victim, PodPhase::kEvicted);
    MarkUnbound(victim);
  }
  const PodId id = pods_.FindId(spec.name);
  auto rebind = TryBind(id);
  if (rebind.ok()) {
    evictions_ += evicted.size();
    if (telemetry::Enabled() && !evicted.empty()) {
      telemetry::Global().metrics.Add("myrtus_sim_pods_evicted",
                                      static_cast<double>(evicted.size()));
    }
    return rebind;
  }
  // The preemptor still cannot bind (an opaque filter, or capacity shifted):
  // re-commit every victim onto its original node, newest first, restoring
  // the original bind time. Nothing was gained, so nothing may be lost.
  for (auto rit = evicted.rbegin(); rit != evicted.rend(); ++rit) {
    NodeState& home = index_.at(static_cast<std::size_t>(rit->node_slot));
    if (util::Status restored = CommitBind(rit->id, home); restored.ok()) {
      pods_.SetBoundAtNs(rit->id, rit->bound_at_ns);
      if (telemetry::Enabled()) {
        telemetry::Global().metrics.Add("myrtus_sim_preemption_rollbacks");
      }
    } else if (telemetry::Enabled()) {
      telemetry::Global().metrics.Add(
          "myrtus_sim_preemption_rollback_failures");
    }
  }
  return rebind.status();
}

util::StatusOr<ScheduleResult> Cluster::DryRunSchedule(
    const PodSpec& spec) const {
  return scheduler_.Schedule(spec, index_);
}

util::Status Cluster::DeletePodById(PodId id) {
  const PodView pod = pods_.View(id);
  if (!pod) return util::Status::NotFound("pod");
  const std::string name = pod.name();  // survives the erase, for listeners
  if (pod.node_slot() >= 0) {
    ReleasePodResources(id);
  } else if (pending_count_ > 0) {
    --pending_count_;  // its unbound_ entry goes stale and filters out
  }
  pods_.Erase(id);
  NotifyDeleted(name);
  return util::Status::Ok();
}

util::Status Cluster::DeletePod(const std::string& pod_name) {
  const PodId id = pods_.FindId(pod_name);
  if (id == kInvalidPodId) return util::Status::NotFound("pod " + pod_name);
  return DeletePodById(id);
}

std::vector<PodView> Cluster::PodsOnNode(const std::string& node_id) const {
  std::vector<PodView> out;
  const NodeState* n = index_.Find(node_id);
  if (n == nullptr || pods_by_node_.size() <= n->slot()) return out;
  const std::vector<PodId>& roster = pods_by_node_[n->slot()];
  out.reserve(roster.size());
  for (const PodId id : roster) out.push_back(pods_.View(id));
  return out;
}

std::string Cluster::NextPodName(const std::string& base) {
  return base + "-" + std::to_string(name_counter_++);
}

void Cluster::ApplyDeployment(Deployment deployment) {
  deployments_[deployment.name] = std::move(deployment);
  Reconcile();
}

util::Status Cluster::ScaleDeployment(const std::string& name, int replicas) {
  const auto it = deployments_.find(name);
  if (it == deployments_.end()) {
    return util::Status::NotFound("deployment " + name);
  }
  it->second.replicas = replicas;
  Reconcile();
  return util::Status::Ok();
}

int Cluster::DeploymentReadyReplicas(const std::string& name) const {
  const auto it = deployment_pods_.find(name);
  if (it == deployment_pods_.end()) return 0;
  int ready = 0;
  for (const PodId id : it->second) {
    const PodView p = pods_.View(id);
    if (p && p.phase() == PodPhase::kRunning) ++ready;
  }
  return ready;
}

void Cluster::Reconcile() {
  // 1. Evict pods bound to failed nodes. Only down nodes' rosters are
  //    walked, not the whole pod table.
  for (std::size_t slot = 0; slot < index_.size(); ++slot) {
    NodeState& ns = index_.at(slot);
    if (ns.node->up()) continue;
    if (pods_by_node_.size() <= slot || pods_by_node_[slot].empty()) continue;
    const std::vector<PodId> roster = pods_by_node_[slot];  // release mutates
    for (const PodId id : roster) {
      ReleasePodResources(id);
      pods_.SetPhase(id, PodPhase::kEvicted);
      MarkUnbound(id);
      ++evictions_;
      if (telemetry::Enabled()) {
        telemetry::Global().metrics.Add("myrtus_sim_pods_evicted_node_failure");
      }
    }
  }

  // 2. Autoscalers adjust desired replica counts (O(deployments)).
  for (auto& [name, dep] : deployments_) {
    if (dep.max_replicas > 0 && dep.load_signal) {
      const double demand = dep.load_signal();
      const double per_replica = std::max(1e-9, dep.pod_template.cpu_request);
      const int desired = static_cast<int>(std::ceil(demand / per_replica));
      dep.replicas = std::clamp(desired, dep.min_replicas, dep.max_replicas);
      if (telemetry::Enabled()) {
        telemetry::Global().metrics.Set("myrtus_sim_autoscale_" + name,
                                        dep.replicas);
      }
    }
  }

  // 3. Converge each deployment's replica set.
  for (auto& [name, dep] : deployments_) {
    auto& pod_ids = deployment_pods_[name];
    // Drop deleted pods from the tracking list (stale generations).
    std::erase_if(pod_ids, [&](PodId id) { return !pods_.Alive(id); });
    // Scale down: remove newest pods first.
    while (static_cast<int>(pod_ids.size()) > dep.replicas) {
      // LINT: discard(ids filtered to live pods above; a miss only means
      // the pod already terminated)
      (void)DeletePodById(pod_ids.back());
      pod_ids.pop_back();
    }
    // Scale up: create missing replicas.
    while (static_cast<int>(pod_ids.size()) < dep.replicas) {
      PodSpec spec = dep.pod_template;
      spec.name = NextPodName(name);
      const PodId id = pods_.Create(std::move(spec));
      MarkUnbound(id);
      pod_ids.push_back(id);
    }
  }

  // 4. Retry the unbound dirty set in pod-name order, matching the
  //    historical full-map walk. The vector tolerates stale ids (pods bound
  //    or deleted since they were pushed) and the rare duplicate (a pod that
  //    bound and was later evicted); both are filtered here. Binds only
  //    touch the allocation ledger, never the structural bitmaps, so the
  //    whole batch is admitted through one cached candidate-set build.
  std::vector<PodId> retry;
  retry.swap(unbound_);
  std::erase_if(retry, [&](PodId id) {
    const PodView v = pods_.View(id);
    return !v || v.node_slot() >= 0;
  });
  std::sort(retry.begin(), retry.end(), [&](PodId a, PodId b) {
    return pods_.View(a).name() < pods_.View(b).name();
  });
  retry.erase(std::unique(retry.begin(), retry.end()), retry.end());
  for (const PodId id : retry) {
    if (TryBind(id).ok()) {
      ++reschedules_;
    } else {
      pods_.SetPhase(id, PodPhase::kPending);
      unbound_.push_back(id);
    }
  }
  if (telemetry::Enabled()) {
    auto& metrics = telemetry::Global().metrics;
    metrics.Set("myrtus_sim_running_pods", static_cast<double>(RunningPods()));
    metrics.Set("myrtus_sim_pending_pods", static_cast<double>(PendingPods()));
  }
}

void Cluster::StartReconcileLoop(sim::SimTime period) {
  StopReconcileLoop();
  reconcile_loop_ = engine_.SchedulePeriodic(period, [this] { Reconcile(); });
}

void Cluster::StopReconcileLoop() {
  engine_.Cancel(reconcile_loop_);
  reconcile_loop_ = {};
}

}  // namespace myrtus::sched
