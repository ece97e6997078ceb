#include "mirto/agent.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace myrtus::mirto {

std::vector<telemetry::SloObjective> DefaultAgentSlos() {
  telemetry::SloObjective availability;
  availability.name = "fleet.availability";
  availability.kind = telemetry::SloObjective::Kind::kAvailability;
  availability.target = 0.95;          // budget: 1 node of 20 down
  availability.burn_rate_threshold = 2.0;
  telemetry::SloObjective start_wait;
  start_wait.name = "pod.start_wait";
  start_wait.kind = telemetry::SloObjective::Kind::kLatency;
  start_wait.latency_threshold_ms = 500.0;  // two MAPE periods at defaults
  start_wait.target = 0.9;
  start_wait.burn_rate_threshold = 2.0;
  return {availability, start_wait};
}

AuthModule::AuthModule(util::Bytes shared_secret)
    : secret_(std::move(shared_secret)) {}

std::string AuthModule::IssueToken(const std::string& principal) const {
  const util::Bytes mac = security::HmacSha256(secret_, util::BytesOf(principal));
  return principal + "." + util::ToHex(mac);
}

util::StatusOr<std::string> AuthModule::Authenticate(
    const std::string& token) const {
  const std::size_t dot = token.rfind('.');
  if (dot == std::string::npos) {
    return util::Status::Unauthenticated("malformed token");
  }
  const std::string principal = token.substr(0, dot);
  const util::Bytes expected =
      security::HmacSha256(secret_, util::BytesOf(principal));
  auto provided = util::FromHex(token.substr(dot + 1));
  if (!provided.ok() || !util::ConstantTimeEqual(*provided, expected)) {
    return util::Status::Unauthenticated("bad token for " + principal);
  }
  return principal;
}

MirtoAgent::MirtoAgent(net::Network& network, sched::Cluster& cluster,
                       continuum::Infrastructure& infra, kb::Store& kb_store,
                       AuthModule auth, AgentConfig config)
    : network_(network),
      cluster_(cluster),
      infra_(infra),
      kb_(kb_store),
      registry_(kb_store),
      auth_(std::move(auth)),
      config_(std::move(config)),
      wl_(cluster, config_.strategy, config_.seed),
      node_(),
      netmgr_(network.topology()),
      psm_(),
      tracker_listener_(infra_.change_tracker().AddListener(infra_.nodes)) {
  // Observability is watch-driven, not poll-only: a component record
  // vanishing from the registry (e.g. heartbeat-lease expiry) marks the
  // fleet dirty for the next MAPE Analyze pass, and any external write under
  // /registry/nodes/ is mirrored into the change-tracker dirty set so the
  // next Monitor re-observes that node. The agent's own node writes pass
  // this watch's id as their commits' skip_watch, so it never sees them.
  const std::string prefix = kb::ResourceRegistry::NodeKey("");
  registry_watch_ = kb_.Watch(
      prefix, [this, prefix](const kb::WatchEvent& event) {
        if (event.type == kb::WatchEvent::Type::kDelete) {
          failure_signal_ = true;
        }
        if (event.kv.key.size() <= prefix.size()) return;
        infra_.change_tracker().MarkDirtyById(
            infra_.nodes, event.kv.key.substr(prefix.size()),
            tracker_listener_);
      });
  // Deploy-to-bind waits are event-driven: the cluster tells us when a
  // tracked pod binds or disappears, so Monitor never sweeps all pods.
  cluster_.AddPodEventListener(sched::Cluster::PodEvents{
      [this](const std::string& pod_name) {
        const auto it = pending_pods_.find(pod_name);
        if (it == pending_pods_.end()) return;
        const sched::PodView pod = cluster_.FindPod(pod_name);
        if (!pod.valid() || pod.bound_at_ns() < 0) return;
        bound_waits_[pod_name] =
            static_cast<double>(pod.bound_at_ns() - it->second.created_ns) /
            1e6;
        if (it->second.old) --pending_old_;
        pending_pods_.erase(it);
      },
      [this](const std::string& pod_name) { UntrackPod(pod_name); }});
  for (const telemetry::SloObjective& objective : DefaultAgentSlos()) {
    util::MustOk(slo_.AddObjective(objective));
    slo_published_[objective.name];  // publish-on-change starts unpublished
    if (objective.name == "pod.start_wait" &&
        objective.kind == telemetry::SloObjective::Kind::kLatency) {
      pending_threshold_ns_ = static_cast<std::int64_t>(
          std::llround(objective.latency_threshold_ms * 1e6));
    }
  }
  slo_.set_transition_handler(
      [this](const std::string&, const telemetry::SloStatus&, bool breached) {
        if (breached) ++stats_.slo_breaches;
      });
}

void MirtoAgent::Start() {
  network_.RegisterRpc(
      config_.host, "mirto.deploy",
      [this](const net::HostId&, const util::Json& req)
          -> util::StatusOr<util::Json> {
        auto principal = auth_.Authenticate(req.at("token").as_string());
        if (!principal.ok()) {
          ++stats_.auth_failures;
          return principal.status();
        }
        auto package = tosca::CsarPackage::Unpack(req.at("csar").as_string());
        if (!package.ok()) {
          ++stats_.deployments_rejected;
          return package.status();
        }
        const util::Status deployed = Deploy(*package);
        if (!deployed.ok()) return deployed;
        return util::Json::MakeObject()
            .Set("status", "deployed")
            .Set("principal", *principal);
      });
  network_.RegisterRpc(
      config_.host, "mirto.undeploy",
      [this](const net::HostId&, const util::Json& req)
          -> util::StatusOr<util::Json> {
        auto principal = auth_.Authenticate(req.at("token").as_string());
        if (!principal.ok()) {
          ++stats_.auth_failures;
          return principal.status();
        }
        MYRTUS_RETURN_IF_ERROR(Undeploy(req.at("app").as_string()));
        return util::Json::MakeObject().Set("status", "undeployed");
      });
  network_.RegisterRpc(
      config_.host, "mirto.status",
      [this](const net::HostId&, const util::Json&)
          -> util::StatusOr<util::Json> {
        return util::Json::MakeObject()
            .Set("running_pods", cluster_.RunningPods())
            .Set("pending_pods", cluster_.PendingPods())
            .Set("mape_iterations", stats_.mape_iterations)
            .Set("strategy", std::string(PlacementStrategyName(wl_.strategy())));
      });
  loop_ = network_.engine().SchedulePeriodic(config_.mape_period,
                                             [this] { RunMapeIteration(); });
}

void MirtoAgent::Stop() {
  network_.engine().Cancel(loop_);
  loop_ = {};
}

util::Status MirtoAgent::Deploy(const tosca::CsarPackage& package) {
  auto tpl = package.EntryTemplate();
  if (!tpl.ok()) {
    ++stats_.deployments_rejected;
    return tpl.status();
  }
  // TOSCA Validation Processor (Fig. 3) runs inside LowerToPods.
  auto pods = tosca::LowerToPods(*tpl);
  if (!pods.ok()) {
    ++stats_.deployments_rejected;
    return pods.status();
  }
  // Application identity: the CSAR entry file name (without extension).
  std::string app_name = "app";
  if (auto entry = package.EntryPath(); entry.ok()) {
    app_name = *entry;
    const std::size_t slash = app_name.rfind('/');
    if (slash != std::string::npos) app_name = app_name.substr(slash + 1);
    const std::size_t dot = app_name.rfind('.');
    if (dot != std::string::npos) app_name = app_name.substr(0, dot);
  }
  // In-place update: drop the previous incarnation's pods first.
  if (app_pods_.count(app_name) > 0) {
    MYRTUS_RETURN_IF_ERROR(Undeploy(app_name));
  }

  // Gather network costs (Network Manager) and vetoes (P&S Manager), then
  // plan (WL Manager) — the §VI interaction pattern.
  std::vector<std::string> node_ids;
  for (const auto& node : infra_.nodes) node_ids.push_back(node->id());
  const auto latency_costs =
      netmgr_.LatencyCostMs(infra_.DefaultGateway(), node_ids);
  auto directives = wl_.PlanPlacement(*pods, latency_costs, psm_.VetoedNodes());
  if (!directives.ok()) {
    ++stats_.deployments_rejected;
    return directives.status();
  }
  const util::Status executed = wl_.Execute(*pods, *directives);
  if (!executed.ok()) {
    ++stats_.deployments_rejected;
    return executed;
  }
  ++stats_.deployments_accepted;

  // Record placements in the KB (Resource Registry / workload records) and
  // track the app's pod set for lifecycle management.
  std::vector<std::string>& tracked = app_pods_[app_name];
  const std::int64_t deployed_at_ns = network_.engine().Now().ns;
  for (const sched::PodSpec& pod : *pods) {
    const sched::PodView bound = cluster_.FindPod(pod.name);
    tracked.push_back(pod.name);
    TrackPodCreated(pod.name, deployed_at_ns);
    registry_.PutWorkload(
        pod.name, util::Json::MakeObject()
                      .Set("app", app_name)
                      .Set("node", bound.valid() ? bound.node_id() : "")
                      .Set("cpu", pod.cpu_request)
                      .Set("min_security",
                           std::string(security::SecurityLevelName(pod.min_security))));
  }
  return util::Status::Ok();
}

util::Status MirtoAgent::Undeploy(const std::string& app_name) {
  const auto it = app_pods_.find(app_name);
  if (it == app_pods_.end()) {
    return util::Status::NotFound("application " + app_name + " not deployed");
  }
  for (const std::string& pod : it->second) {
    // LINT: discard(pod may already be gone after failures; undeploy is
    // idempotent by design)
    (void)cluster_.DeletePod(pod);
    kb_.Delete(kb::ResourceRegistry::WorkloadKey(pod));
    UntrackPod(pod);  // the delete hook already ran when the pod existed
  }
  app_pods_.erase(it);
  return util::Status::Ok();
}

void MirtoAgent::TrackPodCreated(const std::string& pod_name,
                                 std::int64_t created_ns) {
  // The workload manager may have bound the pod synchronously during
  // Deploy — credit its wait immediately; the bind hook has already fired
  // (and found the pod untracked) by the time we get here.
  const sched::PodView pod = cluster_.FindPod(pod_name);
  if (pod.valid() && pod.bound_at_ns() >= 0) {
    bound_waits_[pod_name] =
        static_cast<double>(pod.bound_at_ns() - created_ns) / 1e6;
    return;
  }
  pending_pods_[pod_name] = PendingTrack{created_ns, false};
  pending_young_.emplace_back(created_ns, pod_name);
}

void MirtoAgent::UntrackPod(const std::string& pod_name) {
  const auto it = pending_pods_.find(pod_name);
  if (it != pending_pods_.end()) {
    if (it->second.old) --pending_old_;
    pending_pods_.erase(it);
  }
  bound_waits_.erase(pod_name);
}

std::vector<std::string> MirtoAgent::DeployedApps() const {
  std::vector<std::string> out;
  for (const auto& [app, pods] : app_pods_) out.push_back(app);
  return out;
}

void MirtoAgent::RunMapeIteration() {
  ++stats_.mape_iterations;
  telemetry::ScopedSpan span("mape.iteration", "mirto");
  span.SetAttribute("agent", config_.host);
  if (telemetry::Enabled()) {
    telemetry::Global().metrics.Add("myrtus_mirto_mape_iterations_total", 1.0,
                                    {{"agent", config_.host}});
  }
  Monitor();
  Analyze();
  Plan();
  Execute();
}

void MirtoAgent::ObserveNode(std::size_t index, std::int64_t now_ns) {
  continuum::ComputeNode& node = *infra_.nodes[index];
  ++stats_.nodes_observed;
  if (cluster_slots_[index] < 0) {  // a cluster never drops a node
    if (const sched::NodeState* state = cluster_.FindNodeState(node.id())) {
      cluster_slots_[index] = static_cast<std::int32_t>(state->slot());
    }
  }
  if (!node.devices().empty()) {
    registry_.AppendTelemetry(node.id(), "utilization",
                              {now_ns, node.Utilization(0)});
  }
  registry_.AppendTelemetry(node.id(), "queue_depth",
                            {now_ns, static_cast<double>(node.QueueDepth())});
  // Cached availability + Analyze attention sets. observed_up_ holds the
  // last observed state (0 unseen / 1 down / 2 up); unchanged nodes cannot
  // have flipped without marking themselves dirty (SetUp calls the hook).
  const bool up = node.up();
  const std::uint8_t state_now = up ? 2 : 1;
  if (observed_up_[index] != state_now) {
    if (observed_up_[index] == 2) --observed_up_count_;
    if (state_now == 2) ++observed_up_count_;
    observed_up_[index] = state_now;
  }
  if (up) {
    down_nodes_.erase(index);
    if (psm_.TrustOf(trust_slots_[index]) < 1.0) healing_nodes_.insert(index);
  } else {
    down_nodes_.insert(index);
    healing_nodes_.erase(index);
  }
}

void MirtoAgent::PutNodeRecord(std::size_t index) {
  const continuum::ComputeNode& node = *infra_.nodes[index];
  kb::NodeRecord record;
  record.node_id = node.id();
  record.layer = std::string(continuum::LayerName(node.layer()));
  record.kind = node.kind();
  record.ready = node.up();
  record.cpu_capacity = node.CpuCapacity();
  record.mem_capacity_mb = node.mem_capacity_mb();
  record.mem_allocated_mb = node.mem_allocated_mb();
  record.security_level = static_cast<int>(node.security_level());
  record.trust = psm_.StateOf(trust_slots_[index]);
  if (const std::int32_t slot = cluster_slots_[index]; slot >= 0) {
    const auto at = static_cast<std::uint32_t>(slot);
    record.cpu_allocated = cluster_.index().cpu_allocated(at);
    record.has_accelerator = cluster_.index().has_accelerator(at);
  }
  record.energy_mj = node.total_energy();
  registry_.PutNode(record, registry_watch_);
}

void MirtoAgent::Monitor() {
  telemetry::ScopedSpan span("mape.monitor", "mirto");
  const std::int64_t now_ns = network_.engine().Now().ns;
  iter_dirty_.clear();
  infra_.change_tracker().Drain(infra_.nodes, tracker_listener_, iter_dirty_);
  const std::size_t fleet = infra_.nodes.size();
  if (observed_up_.size() < fleet) observed_up_.resize(fleet, 0);
  for (std::size_t i = trust_slots_.size(); i < fleet; ++i) {
    trust_slots_.push_back(psm_.Slot(infra_.nodes[i]->id()));
  }
  if (cluster_slots_.size() < fleet) cluster_slots_.resize(fleet, -1);
  for (const std::size_t index : iter_dirty_) ObserveNode(index, now_ns);
  // Every node has been observed at least once (a fresh listener starts
  // all-dirty), so the cached up-count covers the whole fleet and one bulk
  // observation is arithmetically identical to N per-node singles.
  slo_.RecordAvailabilityBulk("fleet.availability", observed_up_count_,
                              util::SubSat(fleet, observed_up_count_), now_ns);
  FlushPodStartWaits(now_ns);
}

void MirtoAgent::FlushPodStartWaits(std::int64_t now_ns) {
  // Pod start wait: pods record their deploy-to-bind latency once bound (the
  // bind hook captured it), and a growing bad observation each pass while
  // they stay pending, so sustained scheduling pressure burns the latency
  // error budget.
  for (const auto& [pod_name, wait_ms] : bound_waits_) {
    slo_.RecordLatencyMs("pod.start_wait", wait_ms, now_ns);
  }
  bound_waits_.clear();
  // Pending pods only matter as good/bad counts against the latency
  // threshold, and a pod crosses it exactly once — advance the
  // creation-ordered queue past the integer-ns boundary (equivalent to a
  // per-pod `age_ms <= threshold_ms` double compare: both sides of the
  // boundary round to the same classification) and record one bulk
  // observation.
  if (pending_threshold_ns_ >= 0) {
    const std::int64_t boundary_ns = now_ns - pending_threshold_ns_;
    while (!pending_young_.empty() &&
           pending_young_.front().first < boundary_ns) {
      const auto [created_ns, pod_name] = pending_young_.front();
      pending_young_.pop_front();
      const auto it = pending_pods_.find(pod_name);
      if (it != pending_pods_.end() && it->second.created_ns == created_ns &&
          !it->second.old) {
        it->second.old = true;
        ++pending_old_;
      }
    }
  }
  slo_.RecordLatencyOutcomes("pod.start_wait",
                             util::SubSat(pending_pods_.size(), pending_old_),
                             pending_old_, now_ns);
}

void MirtoAgent::Analyze() {
  telemetry::ScopedSpan span("mape.analyze", "mirto");
  reallocation_needed_ = failure_signal_;
  failure_signal_ = false;
  // Only two kinds of node can have their trust move this iteration: nodes
  // observed down (failure outcome, trust decays) and up nodes still healing
  // (success outcome). Healing ends at a fixed point of the success update
  // (1.0, or the value just below it where the update stalls), so a node
  // leaves the set on its first no-op success, and skipping the rest of the
  // fleet leaves every TrustOf() value identical to a full walk. So each
  // moving node takes exactly one step per iteration, which is what lets
  // the registry hold trust as its last transition (kb::TrustAt).
  const std::uint64_t iteration = stats_.mape_iterations;
  for (const std::size_t index : down_nodes_) {
    psm_.RecordOutcome(trust_slots_[index], false, iteration);
    if (cluster_.NodeHasPods(cluster_slots_[index])) {
      reallocation_needed_ = true;
    }
  }
  for (auto it = healing_nodes_.begin(); it != healing_nodes_.end();) {
    if (psm_.RecordOutcome(trust_slots_[*it], true, iteration)) {
      ++it;
    } else {
      it = healing_nodes_.erase(it);
    }
  }
  // Each observed node's record is written once, here, so it carries this
  // iteration's TrustState. No other record can be stale: a trust transition
  // happens only in an iteration that observes its node. A first failure
  // follows the observation that put the node in down_nodes_ (going down
  // marked it dirty), and a first success after failing follows the one
  // that put it in healing_nodes_ (coming back up marked it dirty); every
  // later outcome of either set continues the same transition.
  for (const std::size_t index : iter_dirty_) PutNodeRecord(index);
  if (cluster_.PendingPods() > 0) reallocation_needed_ = true;
  EvaluateAndPublishSlos(span, network_.engine().Now().ns);
}

void MirtoAgent::EvaluateAndPublishSlos(telemetry::ScopedSpan& span,
                                        std::int64_t now_ns) {
  // SLO self-monitoring closes the loop: burn rates computed from Monitor's
  // own observations decide whether the agent considers itself in violation,
  // and the verdict is published to the KB for peers and the next pass.
  slo_.Evaluate(now_ns);
  const std::vector<std::string> breached = slo_.Breached();
  if (!breached.empty()) {
    reallocation_needed_ = true;
    std::string joined;
    for (const std::string& name : breached) {
      if (!joined.empty()) joined += ",";
      joined += name;
    }
    span.SetAttribute("slo_breach", joined);
  }
  // Verdicts are re-published only on a state/breach-count transition or
  // when a burn rate crosses a quantum bucket — steady state costs zero KB
  // writes instead of one serialized record per objective per iteration.
  for (auto& [name, last] : slo_published_) {
    const telemetry::SloStatus* s = slo_.Find(name);
    if (s == nullptr) continue;
    SloPublished next;
    next.valid = true;
    next.state = s->state;
    next.breaches = s->breaches;
    next.fast_bucket = static_cast<std::int64_t>(
        std::floor(s->fast_burn_rate / kSloPublishQuantum));
    next.slow_bucket = static_cast<std::int64_t>(
        std::floor(s->slow_burn_rate / kSloPublishQuantum));
    const bool unchanged = last.valid && last.state == next.state &&
                           last.breaches == next.breaches &&
                           last.fast_bucket == next.fast_bucket &&
                           last.slow_bucket == next.slow_bucket;
    if (unchanged) continue;
    last = next;
    ++stats_.slo_publishes;
    registry_.PutSloState(
        config_.host, name,
        util::Json::MakeObject()
            .Set("state", std::string(telemetry::SloStateName(s->state)))
            .Set("fast_burn_rate", s->fast_burn_rate)
            .Set("slow_burn_rate", s->slow_burn_rate)
            .Set("breaches", s->breaches)
            .Set("at_ns", now_ns));
  }
}

void MirtoAgent::Plan() {
  telemetry::ScopedSpan span("mape.plan", "mirto");
  planned_points_.clear();
  const std::int64_t now_ns = network_.engine().Now().ns;
  // A decision can only change for (a) nodes that mutated since the last
  // iteration (drained in Monitor) or (b) quiet nodes whose utilization —
  // strictly decaying while no work arrives — crosses below the eco
  // threshold; upward crossings require new work, which marks the node
  // dirty. (b) is predicted with a min-heap of crossing times, one queued
  // entry per node. Visiting a node early is harmless: PlanNode returns
  // changed=false, exactly like a full walk.
  plan_visit_.assign(iter_dirty_.begin(), iter_dirty_.end());
  if (plan_queued_cross_ns_.size() < infra_.nodes.size()) {
    plan_queued_cross_ns_.resize(infra_.nodes.size(), 0);
  }
  while (!plan_crossings_.empty() && plan_crossings_.top().first <= now_ns) {
    const std::size_t index = plan_crossings_.top().second;
    plan_crossings_.pop();
    plan_queued_cross_ns_[index] = 0;
    plan_visit_.push_back(index);
  }
  std::sort(plan_visit_.begin(), plan_visit_.end());
  plan_visit_.erase(std::unique(plan_visit_.begin(), plan_visit_.end()),
                    plan_visit_.end());
  for (const std::size_t index : plan_visit_) {
    continuum::ComputeNode& node = *infra_.nodes[index];
    if (!node.up()) continue;
    for (const NodeManager::Decision& d : node_.PlanNode(node)) {
      if (d.changed) planned_points_.push_back(d);
    }
    QueuePlanCrossing(index, now_ns);
  }
}

void MirtoAgent::QueuePlanCrossing(std::size_t index, std::int64_t now_ns) {
  if (plan_queued_cross_ns_[index] != 0) return;  // earlier entry fires first
  const continuum::ComputeNode& node = *infra_.nodes[index];
  const double down_threshold = node_.down_threshold();
  if (down_threshold <= 0.0) return;  // utilization can never dip below
  std::int64_t best_ns = std::numeric_limits<std::int64_t>::max();
  for (std::size_t d = 0; d < node.devices().size(); ++d) {
    const continuum::Device& device = node.devices()[d];
    if (device.active_point_index() + 1 >= device.operating_points().size()) {
      continue;  // already at the eco point; a down-crossing changes nothing
    }
    // util(t) = busy / (t - created) dips strictly below `down_threshold`
    // for all t past created + busy/down_threshold.
    const double cross = static_cast<double>(node.created_at().ns) +
                         static_cast<double>(node.BusyAccum(d).ns) /
                             down_threshold;
    if (cross >=
        static_cast<double>(std::numeric_limits<std::int64_t>::max() / 2)) {
      continue;
    }
    const std::int64_t cross_ns =
        std::max(static_cast<std::int64_t>(cross) + 1, now_ns + 1);
    best_ns = std::min(best_ns, cross_ns);
  }
  if (best_ns == std::numeric_limits<std::int64_t>::max()) return;
  plan_queued_cross_ns_[index] = best_ns;
  plan_crossings_.emplace(best_ns, index);
}

void MirtoAgent::Execute() {
  telemetry::ScopedSpan span("mape.execute", "mirto");
  for (const NodeManager::Decision& d : planned_points_) {
    if (continuum::ComputeNode* node = infra_.FindNode(d.node_id)) {
      if (node_.Execute(*node, d).ok()) ++stats_.operating_point_changes;
    }
  }
  if (reallocation_needed_) {
    const std::uint64_t before = cluster_.reschedules();
    cluster_.Reconcile();
    stats_.reallocations += cluster_.reschedules() - before;
  }
}

}  // namespace myrtus::mirto
