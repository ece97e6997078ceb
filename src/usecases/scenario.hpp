// The two MYRTUS assessment scenarios (§I): Smart Mobility and Virtual
// Telerehabilitation. Each scenario provides its dataflow application, threat
// model, and a workload generator; the RequestPipeline drives individual
// requests end-to-end across the continuum (network hop to each stage's
// node, compute on the node's best device), producing the KPIs the paper's
// orchestration loop optimizes (latency, deadline violations, energy).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "continuum/infrastructure.hpp"
#include "dpe/adt.hpp"
#include "dpe/pipeline.hpp"
#include "net/transport.hpp"
#include "sched/controller.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace myrtus::usecases {

/// One stage of a deployed application as executed at runtime.
struct Stage {
  std::string pod_name;               // binding looked up in the cluster
  continuum::TaskDemand demand;       // per-request compute
  std::size_t output_bytes = 1024;    // shipped to the next stage
  security::SecurityLevel min_security = security::SecurityLevel::kLow;
  std::string layer_affinity;         // placement policy ("" = anywhere)
  double cpu_request = 0.5;
  std::uint64_t mem_request_mb = 64;
};

/// A scenario definition.
struct Scenario {
  std::string name;
  dpe::DpeInput dpe_input;            // application model for the DPE
  std::vector<Stage> stages;          // runtime request pipeline
  std::string source_host;            // where requests originate (sensor)
  double arrival_rate_hz = 20.0;      // Poisson arrivals
  double deadline_ms = 100.0;
  std::unique_ptr<dpe::AdtNode> threat_model;
};

/// Smart Mobility (TNO + CRF): vehicle perception pipeline — sensor fusion,
/// object detection (accelerable), trajectory planning, V2X uplink. Tight
/// deadlines, bursty arrivals.
Scenario SmartMobilityScenario();

/// Virtual Telerehabilitation (UNICA + REPLY): patient pose estimation
/// (accelerable), exercise scoring, realtime feedback, session archive.
/// Privacy-pinned stages, moderate deadlines.
Scenario TelerehabScenario();

/// KPIs accumulated over a run.
struct ScenarioKpis {
  util::Samples latency_ms;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;       // stage unplaced / node down
  std::uint64_t violations = 0;   // completed but past deadline
  double compute_energy_mj = 0.0;

  [[nodiscard]] double ViolationRate() const {
    const double total = static_cast<double>(completed + failed);
    return total == 0 ? 0.0
                      : static_cast<double>(violations + failed) / total;
  }
};

/// Executes requests of a scenario against a deployed application: each
/// request walks the stage chain; stage k runs on the node hosting its pod
/// (per the cluster binding), paying a network transfer from the previous
/// location first.
class RequestPipeline {
 public:
  RequestPipeline(net::Network& network, continuum::Infrastructure& infra,
                  sched::Cluster& cluster, const Scenario& scenario);

  /// Launches one request now; the KPIs absorb its outcome on completion.
  void LaunchRequest();
  /// Schedules a Poisson request stream until `until`.
  void StartStream(sim::SimTime until, std::uint64_t seed);

  [[nodiscard]] const ScenarioKpis& kpis() const { return kpis_; }
  ScenarioKpis& mutable_kpis() { return kpis_; }

 private:
  /// Poisson arrival: draws the next gap from `rng` and schedules one
  /// request plus the arrival after it, until `until`.
  void ScheduleArrival(sim::SimTime until,
                       const std::shared_ptr<util::Rng>& rng);
  void RunStage(std::size_t stage_index, const std::string& at_host,
                sim::SimTime started, util::MilliJoules energy_acc);
  void Finish(sim::SimTime started, util::MilliJoules energy, bool ok);
  void EnsureRelay(const std::string& host);

  net::Network& network_;
  continuum::Infrastructure& infra_;
  sched::Cluster& cluster_;
  const Scenario& scenario_;
  // Built once from the scenario, which must not change after construction:
  // each stage's pod name and the relay RPC method, by name and by id.
  std::vector<std::string> pod_names_;
  std::string relay_method_;
  net::Network::MethodId relay_method_id_;
  ScenarioKpis kpis_;
  std::map<std::uint64_t, std::function<void()>> pending_;
  std::set<std::string> relay_hosts_;
  std::uint64_t next_token_ = 1;
};

/// Deploys a scenario's pods onto a cluster directly (scheduler pipeline),
/// mapping DPE partitions to pod specs. Returns the pod names in stage order
/// and fills `scenario.stages` bindings.
util::Status DeployScenario(Scenario& scenario, sched::Cluster& cluster,
                            std::uint64_t seed);

}  // namespace myrtus::usecases
