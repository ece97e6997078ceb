// Full-walk MAPE reference for mirto::MirtoAgent. The agent's loop is
// event-driven: it observes only nodes that changed, updates trust only for
// down or healing nodes, and plans only dirty nodes plus predicted eco-point
// crossings. This oracle recomputes, from public state alone, what one
// RunMapeIteration() must leave behind when it walks everything instead:
//
//   - every node's registry NodeRecord (ComputeNode, Cluster::FindNodeState,
//     and the trust state after this iteration's Analyze);
//   - every node's trust, from its own PrivacySecurityManager recording one
//     outcome per node per iteration: kb::TrustAt of the stored record
//     ("trust") and the agent's in-memory value ("trust/memory");
//   - the two default SLOs, from its own SloEngine fed one availability
//     observation per node and one latency observation per tracked pod, and
//     the verdicts the agent publishes under /slo/;
//   - the operating-point changes of Plan, from its own NodeManager run over
//     every up node.
//
// Which pods the agent deployed, and when, it learns by watching the agent's
// /registry/workloads/ records on the shared KB store.
//
// Usage: construct it next to a fresh agent (before the agent's first
// iteration or deployment), call Expect() immediately before every
// agent.RunMapeIteration(), and Compare() right after it. Assumes the agent
// is the only writer under /registry/workloads/, that its SLO objectives are
// DefaultAgentSlos(), and that telemetry is disabled (the oracle's SloEngine
// would otherwise publish metrics of its own).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "continuum/infrastructure.hpp"
#include "kb/store.hpp"
#include "mirto/agent.hpp"
#include "mirto/managers.hpp"
#include "sched/controller.hpp"
#include "sim/engine.hpp"
#include "telemetry/slo.hpp"

namespace myrtus::oracle {

/// One outcome where the agent differs from the full-walk expectation.
struct Divergence {
  std::string node_id;  // empty for fleet-level outcomes (SLO state, verdicts)
  std::string aspect;   // "record", "trust", "trust/memory", "plan/<n>", ...
  std::string expected;
  std::string actual;
};

/// Human-readable listing for test failure messages.
std::string FormatDivergences(const std::vector<Divergence>& divergences);

class MapeOracle {
 public:
  MapeOracle(mirto::MirtoAgent& agent, sched::Cluster& cluster,
             continuum::Infrastructure& infra, kb::Store& kb_store,
             sim::Engine& engine);
  ~MapeOracle();
  MapeOracle(const MapeOracle&) = delete;
  MapeOracle& operator=(const MapeOracle&) = delete;

  /// Walks the whole fleet and every tracked pod and records the expected
  /// outcome of the agent's next iteration.
  void Expect();
  /// Differences between the last expectation and the agent's current
  /// state, in outcome-key order; empty when they agree.
  [[nodiscard]] std::vector<Divergence> Compare() const;
  /// Canonical renderings of the expectation and of the agent's outcome;
  /// equal exactly when Compare() is empty.
  [[nodiscard]] std::string ExpectedSnapshot() const;
  [[nodiscard]] std::string AgentSnapshot() const;
  /// Node visits made by all full walks so far (fleet size per Expect()).
  [[nodiscard]] std::uint64_t nodes_walked() const { return nodes_walked_; }

 private:
  // (node id or "" for fleet-level, aspect) -> rendered value.
  using Outcome = std::map<std::pair<std::string, std::string>, std::string>;

  [[nodiscard]] Outcome AgentOutcome() const;
  void ObservePodStartWaits(std::int64_t now_ns);
  void ExpectSloVerdicts(std::int64_t now_ns);

  mirto::MirtoAgent& agent_;
  sched::Cluster& cluster_;
  continuum::Infrastructure& infra_;
  kb::Store& kb_;
  sim::Engine& engine_;
  std::int64_t workload_watch_ = 0;

  mirto::PrivacySecurityManager psm_;
  mirto::NodeManager node_manager_;
  telemetry::SloEngine slo_;
  std::vector<telemetry::SloObjective> objectives_;
  // Deployed pods not yet seen bound: pod name -> deployment time (ns).
  std::map<std::string, std::int64_t> tracked_pods_;
  // Last verdict the agent is expected to have published, per objective.
  struct Published {
    telemetry::SloState state = telemetry::SloState::kOk;
    std::uint64_t breaches = 0;
    std::int64_t fast_bucket = 0;
    std::int64_t slow_bucket = 0;
    std::string verdict;
  };
  std::map<std::string, Published> published_;

  Outcome expected_;
  std::uint64_t nodes_walked_ = 0;
};

}  // namespace myrtus::oracle
