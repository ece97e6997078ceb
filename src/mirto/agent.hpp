// The MIRTO Cognitive Engine agent (Fig. 3): a per-layer/component service
// exposing a REST-like API daemon (TOSCA deployment requests, authenticated
// by the Authentication Module and checked by the TOSCA Validation
// Processor), a MIRTO Manager unifying the four optimization drivers, and
// proxies toward the Knowledge Base and the deployment mechanism. The agent
// runs the MAPE-K loop of §IV: sense → evaluate → decide → reconfigure.
//
// The loop is event-driven: Monitor drains the infrastructure ChangeTracker
// and visits only nodes that mutated since the previous iteration, Analyze
// touches only down/healing nodes and then writes each visited node's
// registry record once, and Plan only dirty nodes plus those whose decaying
// utilization is predicted to cross the eco-point threshold. Its
// outcomes (registry records, SLO states and verdicts, trust scores, planned
// decisions) are held equal to a full-walk reference that recomputes them
// from public state; that reference is test code (tests/oracle/).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "continuum/infrastructure.hpp"
#include "kb/registry.hpp"
#include "kb/store.hpp"
#include "mirto/managers.hpp"
#include "net/transport.hpp"
#include "sched/controller.hpp"
#include "security/hmac.hpp"
#include "telemetry/slo.hpp"
#include "tosca/csar.hpp"

namespace myrtus::mirto {

/// HMAC-based bearer-token authentication (Fig. 3 "Authentication Module").
class AuthModule {
 public:
  explicit AuthModule(util::Bytes shared_secret);

  /// Issues a token for a principal: "<principal>.<hex hmac>".
  [[nodiscard]] std::string IssueToken(const std::string& principal) const;
  /// Validates; returns the principal or UNAUTHENTICATED.
  [[nodiscard]] util::StatusOr<std::string> Authenticate(
      const std::string& token) const;

 private:
  util::Bytes secret_;
};

/// The objectives every agent self-monitors: fleet availability (fraction of
/// continuum nodes up) and pod start wait (time from deployment request to
/// binding). Both use the sim-scale burn-rate windows. Each Analyze pass
/// evaluates them; a breach marks the fleet dirty (reallocation) and is
/// written back to the KB under /slo/<host>/<objective> — the loop observing
/// itself.
std::vector<telemetry::SloObjective> DefaultAgentSlos();

/// SLO verdicts are re-published to the KB only when the state or breach
/// count changes or a burn rate moves across a bucket of this width.
inline constexpr double kSloPublishQuantum = 0.25;

struct AgentConfig {
  std::string host;                 // network address of this agent
  sim::SimTime mape_period = sim::SimTime::Millis(250);
  PlacementStrategy strategy = PlacementStrategy::kGreedy;
  std::uint64_t seed = 1;
};

/// Counters the Fig-3 bench reads out.
struct AgentStats {
  std::uint64_t deployments_accepted = 0;
  std::uint64_t deployments_rejected = 0;
  std::uint64_t mape_iterations = 0;
  std::uint64_t reallocations = 0;
  std::uint64_t operating_point_changes = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t slo_breaches = 0;   // Ok -> Breach transitions, all objectives
  std::uint64_t nodes_observed = 0;  // Monitor node visits (records written)
  std::uint64_t slo_publishes = 0;   // PutSloState writes actually issued
};

class MirtoAgent {
 public:
  /// The agent orchestrates `cluster` (its slice of the continuum), reads and
  /// writes the local KB replica `kb_store`, and serves its API on
  /// `config.host` of `network`.
  MirtoAgent(net::Network& network, sched::Cluster& cluster,
             continuum::Infrastructure& infra, kb::Store& kb_store,
             AuthModule auth, AgentConfig config);

  /// Registers the API daemon endpoints ("mirto.deploy", "mirto.status") and
  /// starts the periodic MAPE-K loop.
  void Start();
  void Stop();

  /// Local (in-process) deployment entry — same path the API daemon uses:
  /// validate the CSAR, lower to pods, plan with the managers, execute.
  /// Redeploying an application with the same entry name updates it in place
  /// (old pods are removed first) — the paper's CH2 "dynamically updated for
  /// continuous optimization".
  util::Status Deploy(const tosca::CsarPackage& package);
  /// Removes every pod of a previously deployed application.
  util::Status Undeploy(const std::string& app_name);
  [[nodiscard]] std::vector<std::string> DeployedApps() const;

  /// One MAPE-K iteration (also invoked by the periodic loop).
  void RunMapeIteration();

  [[nodiscard]] const AgentStats& stats() const { return stats_; }
  [[nodiscard]] WlManager& wl_manager() { return wl_; }
  [[nodiscard]] NodeManager& node_manager() { return node_; }
  [[nodiscard]] NetworkManager& network_manager() { return netmgr_; }
  [[nodiscard]] PrivacySecurityManager& security_manager() { return psm_; }
  [[nodiscard]] kb::ResourceRegistry& registry() { return registry_; }
  [[nodiscard]] const std::string& host() const { return config_.host; }
  [[nodiscard]] telemetry::SloEngine& slo_engine() { return slo_; }
  /// Up nodes whose trust is still recovering; Analyze records one success
  /// outcome for each per iteration.
  [[nodiscard]] std::size_t healing_node_count() const {
    return healing_nodes_.size();
  }
  /// Operating-point changes planned by the most recent Plan pass (only
  /// changed decisions) — the MAPE oracle tests compare these.
  [[nodiscard]] const std::vector<NodeManager::Decision>& planned_decisions()
      const {
    return planned_points_;
  }

 private:
  void Monitor();   // sample PMCs into the registry (KB)
  void Analyze();   // detect violations, mark pending work
  void Plan();      // consult managers
  void Execute();   // apply decisions

  /// Appends one node's telemetry and refreshes the cached up/down, healing,
  /// availability and cluster-slot bookkeeping for it.
  void ObserveNode(std::size_t index, std::int64_t now_ns);
  /// Writes one observed node's registry record, trust included.
  void PutNodeRecord(std::size_t index);
  void EvaluateAndPublishSlos(telemetry::ScopedSpan& span,
                              std::int64_t now_ns);
  /// Predicts when a device's (strictly decaying, absent new work)
  /// utilization will cross below the eco threshold and queues the node for
  /// a Plan visit at that time.
  void QueuePlanCrossing(std::size_t index, std::int64_t now_ns);

  /// Begins tracking a just-deployed pod's start wait. Pods the workload
  /// manager bound synchronously during Deploy are credited immediately.
  void TrackPodCreated(const std::string& pod_name, std::int64_t created_ns);
  void UntrackPod(const std::string& pod_name);
  /// Records bound waits and pending good/bad counts into pod.start_wait.
  void FlushPodStartWaits(std::int64_t now_ns);

  net::Network& network_;
  sched::Cluster& cluster_;
  continuum::Infrastructure& infra_;
  kb::Store& kb_;
  kb::ResourceRegistry registry_;
  AuthModule auth_;
  AgentConfig config_;

  WlManager wl_;
  NodeManager node_;
  NetworkManager netmgr_;
  PrivacySecurityManager psm_;

  AgentStats stats_;
  sim::EventHandle loop_;
  bool reallocation_needed_ = false;
  // Set asynchronously by the KB watch when a component record disappears
  // (lease expiry / explicit removal); consumed by the next Analyze pass.
  bool failure_signal_ = false;
  // The agent's /registry/nodes/ watch. Its own node writes leave it out of
  // their commits, so it mirrors only other writers into the dirty set.
  std::int64_t registry_watch_ = 0;
  std::vector<NodeManager::Decision> planned_points_;
  std::map<std::string, std::vector<std::string>> app_pods_;  // app -> pods
  telemetry::SloEngine slo_;

  /// --- Incremental observation state -------------------------------------
  int tracker_listener_;  // ChangeTracker listener, registered at construction
  std::vector<std::size_t> iter_dirty_;   // drained once per iteration
  std::vector<std::uint8_t> observed_up_;  // last observed up/down per index
  // Per index: the node's trust slot, and its NodeIndex slot in cluster_
  // (-1 until an observation finds it there). A node can gain pods only
  // while up, and coming up marks it dirty, so a down node's slot is current.
  std::vector<TrustSlot> trust_slots_;
  std::vector<std::int32_t> cluster_slots_;
  std::size_t observed_up_count_ = 0;
  // Analyze attention sets: nodes currently observed down (record a failure
  // outcome each iteration) and up nodes whose trust is still recovering
  // (record successes until one is a no-op — the success update reaches a
  // fixed point in finitely many steps, which in double may sit just below
  // 1.0).
  std::set<std::size_t> down_nodes_;
  std::set<std::size_t> healing_nodes_;
  // Plan visit prediction: min-heap of (crossing sim-time ns, node index)
  // with at most one queued entry per node.
  std::priority_queue<std::pair<std::int64_t, std::size_t>,
                      std::vector<std::pair<std::int64_t, std::size_t>>,
                      std::greater<>>
      plan_crossings_;
  std::vector<std::int64_t> plan_queued_cross_ns_;  // 0 = none queued
  std::vector<std::size_t> plan_visit_;

  /// --- Pod start-wait tracking (event-driven) -----------------------------
  struct PendingTrack {
    std::int64_t created_ns = 0;
    bool old = false;  // already aged past the latency threshold
  };
  // Pods awaiting their first binding, maintained by the Cluster pod-event
  // hooks; Monitor records one bulk good/bad observation over them.
  std::map<std::string, PendingTrack> pending_pods_;
  // Pending pods in creation order, advanced past the age threshold lazily.
  std::deque<std::pair<std::int64_t, std::string>> pending_young_;
  std::size_t pending_old_ = 0;
  // Deploy-to-bind waits (ms) captured by the bind hook, flushed by Monitor.
  std::map<std::string, double> bound_waits_;
  std::int64_t pending_threshold_ns_ = 0;

  /// --- SLO publish-on-change cache, one entry per DefaultAgentSlos() ------
  struct SloPublished {
    bool valid = false;
    telemetry::SloState state = telemetry::SloState::kOk;
    std::int64_t fast_bucket = 0;
    std::int64_t slow_bucket = 0;
    std::uint64_t breaches = 0;
  };
  std::map<std::string, SloPublished> slo_published_;
};

}  // namespace myrtus::mirto
