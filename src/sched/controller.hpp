// Declarative cluster controller: deployments (replicated pod templates),
// a reconciliation loop that keeps actual state converged with desired state
// (rebinding pods off failed/cordoned nodes), priority preemption, and a
// horizontal autoscaler — the kube-like substrate MIRTO drives (§III/§IV).
//
// Node state lives in a NodeIndex (SoA ledger + inverted indexes); pod state
// lives in a PodLedger (sharded name index + SoA hot columns, PodId handles).
// Every resource commit and release flows through CommitBind/
// ReleasePodResources, the single accounting path that keeps the scheduler
// ledger and the ComputeNode memory ledger equal by construction. Reconcile
// is incremental: it walks dirty sets (unbound pods, down nodes' pod rosters)
// instead of the whole pod table, and the pending-pod batch is admitted
// through one ranked-class build. Bind/delete events fan out to
// registered listeners so MAPE monitors can track pod lifecycle without
// sweeping the table.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sched/node_index.hpp"
#include "sched/pod_ledger.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"

namespace myrtus::sched {

struct Deployment {
  std::string name;
  PodSpec pod_template;
  int replicas = 1;
  // Autoscaler (disabled when max_replicas == 0).
  int min_replicas = 1;
  int max_replicas = 0;
  std::function<double()> load_signal;  // abstract demand (units of cpu)
};

class Cluster {
 public:
  Cluster(sim::Engine& engine, Scheduler scheduler);

  /// Registers a node with optional labels. The node must outlive the
  /// cluster; register its devices first (accelerator presence is sampled
  /// here).
  void AddNode(continuum::ComputeNode* node,
               std::map<std::string, std::string> labels = {});
  [[nodiscard]] NodeState* FindNodeState(const std::string& node_id);
  [[nodiscard]] std::vector<NodeState*> NodeStates();
  void Cordon(const std::string& node_id, bool cordoned);
  /// Sets one node label through the index, keeping the inverted label index
  /// coherent. NOT_FOUND for unknown nodes.
  util::Status SetNodeLabel(const std::string& node_id, const std::string& key,
                            const std::string& value);
  /// Overwrites a node's allocation ledger to mirror external state (liqo
  /// peering reflects remote usage onto its virtual node). The reflected
  /// value may exceed capacity; free-resource reads clamp at zero. Memory is
  /// never reflected below the node's own reservation
  /// (ComputeNode::mem_allocated_mb()).
  util::Status SetReflectedCpuAllocation(const std::string& node_id,
                                         double cpu);
  util::Status SetReflectedMemAllocation(const std::string& node_id,
                                         std::uint64_t mem_mb);

  /// --- Direct pod operations --------------------------------------------
  /// Schedules and binds one pod. On success resources are reserved.
  util::StatusOr<std::string> BindPod(const PodSpec& spec);
  /// Binds a pod to a specific node (MIRTO directives). Validates readiness,
  /// resources, security level, and accelerator requirements on the target.
  util::StatusOr<std::string> BindPodToNode(const PodSpec& spec,
                                            const std::string& node_id);
  /// Binding with preemption: when no node fits, evicts the cheapest set of
  /// strictly-lower-priority pods that makes room on some node. If the
  /// post-eviction bind still fails, the victims are rolled back onto their
  /// original nodes (nothing is gained, so nothing may be lost).
  util::StatusOr<std::string> BindPodWithPreemption(const PodSpec& spec);
  /// Schedules without binding (negotiation bids / what-if probes). Uses the
  /// indexed path; no cluster state changes.
  [[nodiscard]] util::StatusOr<ScheduleResult> DryRunSchedule(
      const PodSpec& spec) const;
  /// Unbinds and releases resources. NOT_FOUND if absent.
  util::Status DeletePod(const std::string& pod_name);
  [[nodiscard]] PodView FindPod(const std::string& pod_name) const {
    return pods_.Find(pod_name);
  }
  [[nodiscard]] PodView PodById(PodId id) const { return pods_.View(id); }
  /// Pods bound to `node_id`, in pod-name order (the historical contract;
  /// rosters are kept name-sorted).
  [[nodiscard]] std::vector<PodView> PodsOnNode(const std::string& node_id) const;
  /// Whether any pod is bound to the node in NodeIndex slot `node_slot`
  /// (negative: none). O(1): it reads the roster, it does not copy it.
  [[nodiscard]] bool NodeHasPods(std::int32_t node_slot) const {
    const auto s = static_cast<std::size_t>(node_slot);
    return node_slot >= 0 && s < pods_by_node_.size() &&
           !pods_by_node_[s].empty();
  }
  [[nodiscard]] std::size_t RunningPods() const { return running_count_; }
  [[nodiscard]] std::size_t PendingPods() const { return pending_count_; }

  /// --- Pod lifecycle events ----------------------------------------------
  /// Listeners fire synchronously after a pod binds (CommitBind success,
  /// including reschedules and preemption rollbacks) or after a pod is
  /// deleted. This is what lets an event-driven monitor track deploy-to-bind
  /// waits without sweeping every pending pod each iteration.
  struct PodEvents {
    std::function<void(const std::string& pod_name)> on_bound;
    std::function<void(const std::string& pod_name)> on_deleted;
  };
  int AddPodEventListener(PodEvents events) {
    pod_listeners_.push_back(std::move(events));
    return static_cast<int>(pod_listeners_.size()) - 1;
  }

  /// --- Deployments & reconciliation --------------------------------------
  void ApplyDeployment(Deployment deployment);
  util::Status ScaleDeployment(const std::string& name, int replicas);
  [[nodiscard]] int DeploymentReadyReplicas(const std::string& name) const;

  /// One reconciliation pass: evict pods from failed nodes, (re)create
  /// missing replicas, run autoscalers, retry unbound pods.
  void Reconcile();
  /// Runs Reconcile() every `period` on the engine.
  void StartReconcileLoop(sim::SimTime period);
  void StopReconcileLoop();

  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t reschedules() const { return reschedules_; }
  [[nodiscard]] const NodeIndex& index() const { return index_; }

 private:
  util::StatusOr<std::string> TryBind(PodId id);
  /// The single accounting path for placements: reserves node memory,
  /// charges the index ledger, and records the committed amounts on the pod.
  util::Status CommitBind(PodId id, NodeState& target);
  /// The single accounting path for releases: refunds exactly the committed
  /// amounts to both ledgers and clears the pod's binding.
  void ReleasePodResources(PodId id);
  /// Marks a live unbound pod pending retry (pushes to unbound_, counts it).
  void MarkUnbound(PodId id);
  void RosterInsert(std::int32_t slot, PodId id);
  void RosterErase(std::int32_t slot, PodId id);
  void NotifyBound(const std::string& pod_name);
  void NotifyDeleted(const std::string& pod_name);
  util::Status DeletePodById(PodId id);
  std::string NextPodName(const std::string& base);

  sim::Engine& engine_;
  Scheduler scheduler_;
  NodeIndex index_;
  PodLedger pods_;
  std::map<std::string, Deployment> deployments_;
  std::map<std::string, std::vector<PodId>> deployment_pods_;
  // Dirty-set reconcile state. Invariant: every live pod is either bound
  // (on its node's roster in pods_by_node_) or counted in pending_count_
  // with its id somewhere in unbound_. unbound_ tolerates stale/already-
  // bound ids (lazily filtered at retry, which sorts by name to match the
  // historical full-map walk order); pending_count_ is exact.
  std::vector<PodId> unbound_;
  std::size_t pending_count_ = 0;
  // Per node slot, bound pod ids kept sorted by pod name.
  std::vector<std::vector<PodId>> pods_by_node_;
  std::size_t running_count_ = 0;
  std::vector<PodEvents> pod_listeners_;
  sim::EventHandle reconcile_loop_;
  std::uint64_t evictions_ = 0;
  std::uint64_t reschedules_ = 0;
  std::uint64_t name_counter_ = 0;
};

}  // namespace myrtus::sched
