#include "mirto/peering.hpp"

#include <algorithm>

namespace myrtus::mirto {

LiqoPeering::LiqoPeering(sim::Engine& engine, sched::Cluster& local,
                         sched::Cluster& remote, std::string remote_name)
    : local_(local), remote_(remote), virtual_id_("liqo-" + remote_name) {
  // Advertise the remote cluster's aggregate as one big virtual node. The
  // virtual node's security level is the weakest remote level: a pod pinned
  // to a higher level must not silently land on a weaker remote node (the
  // remote bind enforces the real constraint; the advertisement must not
  // overpromise).
  double total_cpu = 0.0;
  std::uint64_t total_mem = 0;
  security::SecurityLevel weakest = security::SecurityLevel::kHigh;
  for (sched::NodeState* ns : remote_.NodeStates()) {
    total_cpu += ns->cpu_capacity();
    total_mem += ns->mem_capacity_mb();
    weakest = std::min(weakest, ns->node->security_level());
  }
  virtual_node_ = std::make_unique<continuum::ComputeNode>(
      engine, virtual_id_, continuum::Layer::kFog, "liqo-virtual", weakest,
      total_mem);
  // One server device approximating the remote aggregate (capacity =
  // cores * speedup * ghz; use 1 GHz/1x so cores == cpu units).
  const int cores = std::max(1, static_cast<int>(total_cpu));
  virtual_node_->AddDevice(continuum::Device(
      virtual_id_ + "/aggregate", continuum::DeviceKind::kServerCpu, cores,
      {continuum::OperatingPoint{"aggregate", 1.0,
                                 util::MilliWatts(100.0 * cores),
                                 util::MilliWatts(10.0 * cores), 1.0}}));
  local_.AddNode(virtual_node_.get(), {{"liqo.io/virtual", "true"}});
  SyncCapacity();
}

LiqoPeering::~LiqoPeering() {
  // Cordon the virtual node so a dangling pointer is never scheduled onto;
  // clusters typically outlive peerings only in teardown paths.
  local_.Cordon(virtual_id_, true);
}

void LiqoPeering::SyncCapacity() {
  double remote_free = 0.0;
  for (sched::NodeState* ns : remote_.NodeStates()) {
    if (ns->node->up() && !ns->cordoned()) remote_free += ns->CpuFree();
  }
  if (const sched::NodeState* vs = local_.FindNodeState(virtual_id_)) {
    // Reflect remote usage as local allocation on the virtual node, keeping
    // locally-bound offloads accounted. Goes through the cluster so the
    // scheduler ledger stays single-pathed (the ctor added the node, so the
    // write cannot miss).
    const double advertised = vs->cpu_capacity();
    util::MustOk(local_.SetReflectedCpuAllocation(
        virtual_id_, std::max(0.0, advertised - remote_free)));
  }
}

util::StatusOr<std::string> LiqoPeering::Offload(const sched::PodSpec& pod) {
  sched::PodSpec remote_pod = pod;
  remote_pod.name = "offloaded/" + pod.name;
  auto node = remote_.BindPod(remote_pod);
  if (!node.ok()) {
    // LINT: discard(best-effort cleanup of a pod that never bound)
    (void)remote_.DeletePod(remote_pod.name);
    return node.status();
  }
  offloaded_[pod.name] = *node;
  return node;
}

util::StatusOr<std::string> LiqoPeering::RemoteNodeOf(
    const std::string& pod_name) const {
  const auto it = offloaded_.find(pod_name);
  if (it == offloaded_.end()) {
    return util::Status::NotFound("pod not offloaded: " + pod_name);
  }
  return it->second;
}

util::Status LiqoPeering::Reclaim(const std::string& pod_name) {
  const auto it = offloaded_.find(pod_name);
  if (it == offloaded_.end()) {
    return util::Status::NotFound("pod not offloaded: " + pod_name);
  }
  MYRTUS_RETURN_IF_ERROR(remote_.DeletePod("offloaded/" + pod_name));
  offloaded_.erase(it);
  return util::Status::Ok();
}

}  // namespace myrtus::mirto
