// The multi-layer 360° orchestrator: one MIRTO agent per continuum layer,
// each owning its layer's kube-like cluster, negotiating workload placement
// with its peers over the network via a contract-net protocol (§IV: "the
// MIRTO agents communicate with each other to negotiate the usage of
// resources and interoperability of services over multiple layers").
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>

#include "kb/store.hpp"
#include "mirto/agent.hpp"
#include "mirto/peering.hpp"

namespace myrtus::mirto {

struct EngineConfig {
  PlacementStrategy strategy = PlacementStrategy::kGreedy;
  sim::SimTime mape_period = sim::SimTime::Millis(250);
  std::uint64_t seed = 1;
  std::string auth_secret = "myrtus-dev-secret";
};

struct NegotiationStats {
  std::uint64_t announcements = 0;
  std::uint64_t bids_received = 0;
  std::uint64_t awards = 0;
  std::uint64_t failed_pods = 0;
};

class MirtoEngine {
 public:
  MirtoEngine(net::Network& network, continuum::Infrastructure& infra,
              EngineConfig config = {});

  /// Starts all agents (API daemons + MAPE-K loops) and registers the
  /// negotiation endpoints.
  void Start();
  void Stop();

  /// Deploys a CSAR by contract-net negotiation: for every pod, all layer
  /// agents are asked to bid; the cheapest feasible bid wins and the winning
  /// agent binds the pod. `done` fires once every pod is awarded (OK) or any
  /// pod found no bidder (RESOURCE_EXHAUSTED).
  void DeployNegotiated(const tosca::CsarPackage& package,
                        std::function<void(util::Status)> done);

  [[nodiscard]] MirtoAgent& agent(continuum::Layer layer);
  [[nodiscard]] sched::Cluster& cluster(continuum::Layer layer);
  [[nodiscard]] kb::Store& kb(continuum::Layer layer);
  [[nodiscard]] const NegotiationStats& negotiation_stats() const { return negotiation_; }
  [[nodiscard]] const AuthModule& auth() const { return auth_; }

  /// Host id of a layer's agent ("mirto-edge", ...).
  static std::string AgentHost(continuum::Layer layer);

  /// Total running pods across all layer clusters.
  [[nodiscard]] std::size_t TotalRunningPods();
  /// Total energy drawn across the infrastructure (mJ, active only): the sum
  /// of every node's total_energy(), walked per call.
  [[nodiscard]] double TotalEnergyMj() const;

 private:
  struct LayerSlice {
    std::unique_ptr<sched::Cluster> cluster;
    std::unique_ptr<kb::Store> store;
    std::unique_ptr<MirtoAgent> agent;
  };

  /// Cost this layer would incur hosting `pod`; NOT_FOUND when infeasible.
  util::StatusOr<double> ComputeBid(continuum::Layer layer,
                                    const sched::PodSpec& pod);
  void NegotiatePod(std::shared_ptr<std::vector<sched::PodSpec>> pods,
                    std::size_t index, std::shared_ptr<int> failures,
                    std::function<void(util::Status)> done);

  net::Network& network_;
  continuum::Infrastructure& infra_;
  EngineConfig config_;
  AuthModule auth_;
  std::array<LayerSlice, 3> layers_;  // indexed by Layer
  NegotiationStats negotiation_;
};

}  // namespace myrtus::mirto
