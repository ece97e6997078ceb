#include "mirto/engine.hpp"

#include <limits>

#include "net/retry.hpp"
#include "telemetry/telemetry.hpp"

namespace myrtus::mirto {
namespace {

/// Weights of the bid cost model.
constexpr double kBidEnergyWeight = 1.0;
constexpr double kBidLatencyWeight = 1.0;
constexpr double kBidLoadWeight = 2.0;

/// Retry profile for the contract-net RPCs (bid, award) — negotiation must
/// survive flaky edge links instead of declaring "no bidder".
const net::RetryPolicy kNegotiationRetry = [] {
  net::RetryPolicy p;
  p.max_attempts = 3;
  p.initial_backoff = sim::SimTime::Millis(25);
  p.attempt_timeout = sim::SimTime::Seconds(2);
  p.overall_deadline = sim::SimTime::Seconds(8);
  return p;
}();

constexpr std::array<continuum::Layer, 3> kLayers = {
    continuum::Layer::kEdge, continuum::Layer::kFog, continuum::Layer::kCloud};

std::size_t Index(continuum::Layer layer) {
  return static_cast<std::size_t>(layer);
}

}  // namespace

std::string MirtoEngine::AgentHost(continuum::Layer layer) {
  return "mirto-" + std::string(continuum::LayerName(layer));
}

MirtoEngine::MirtoEngine(net::Network& network,
                         continuum::Infrastructure& infra, EngineConfig config)
    : network_(network),
      infra_(infra),
      config_(std::move(config)),
      auth_(util::BytesOf(config_.auth_secret)) {
  for (const continuum::Layer layer : kLayers) {
    LayerSlice& slice = layers_[Index(layer)];
    slice.cluster =
        std::make_unique<sched::Cluster>(network_.engine(), sched::Scheduler::Default());
    for (continuum::ComputeNode* node : infra_.NodesInLayer(layer)) {
      slice.cluster->AddNode(node);
    }
    slice.store = std::make_unique<kb::Store>();

    AgentConfig agent_config;
    agent_config.host = AgentHost(layer);
    agent_config.mape_period = config_.mape_period;
    agent_config.strategy = config_.strategy;
    agent_config.seed = config_.seed + Index(layer);
    slice.agent = std::make_unique<MirtoAgent>(
        network_, *slice.cluster, infra_, *slice.store,
        AuthModule(util::BytesOf(config_.auth_secret)), agent_config);

    // Place the agent host near its layer in the topology.
    const std::string attach_point = layer == continuum::Layer::kCloud
                                         ? std::string("cloud-0")
                                         : infra_.DefaultGateway();
    if (!attach_point.empty()) {
      network_.topology().AddBidirectional(AgentHost(layer), attach_point,
                                           sim::SimTime::Micros(200), 1e9);
    }
  }
}

void MirtoEngine::Start() {
  for (const continuum::Layer layer : kLayers) {
    LayerSlice& slice = layers_[Index(layer)];
    slice.agent->Start();
    slice.cluster->StartReconcileLoop(config_.mape_period * 2);

    network_.RegisterRpc(
        AgentHost(layer), "mirto.bid",
        [this, layer](const net::HostId&, const util::Json& req)
            -> util::StatusOr<util::Json> {
          telemetry::ScopedSpan span("mirto.compute_bid", "mirto");
          span.SetAttribute("layer", std::string(continuum::LayerName(layer)));
          const sched::PodSpec pod = sched::PodSpec::FromJson(req);
          auto bid = ComputeBid(layer, pod);
          if (!bid.ok()) return bid.status();
          ++negotiation_.bids_received;
          if (telemetry::Enabled()) {
            span.SetAttribute("cost", std::to_string(*bid));
            telemetry::Global().metrics.Add("myrtus_mirto_bids_total");
          }
          return util::Json::MakeObject().Set("cost", *bid);
        });
    network_.RegisterRpc(
        AgentHost(layer), "mirto.award",
        [this, layer](const net::HostId&, const util::Json& req)
            -> util::StatusOr<util::Json> {
          const sched::PodSpec pod = sched::PodSpec::FromJson(req);
          auto node = layers_[Index(layer)].cluster->BindPodWithPreemption(pod);
          if (!node.ok()) {
            // LINT: discard(best-effort cleanup of a pod that never bound)
            (void)layers_[Index(layer)].cluster->DeletePod(pod.name);
            return node.status();
          }
          ++negotiation_.awards;
          if (telemetry::Enabled()) {
            telemetry::Global().metrics.Add("myrtus_mirto_awards_total");
          }
          layers_[Index(layer)].agent->registry().PutWorkload(
              pod.name, util::Json::MakeObject()
                            .Set("node", *node)
                            .Set("layer", std::string(continuum::LayerName(layer))));
          return util::Json::MakeObject().Set("node", *node);
        });
  }
}

void MirtoEngine::Stop() {
  for (const continuum::Layer layer : kLayers) {
    layers_[Index(layer)].agent->Stop();
    layers_[Index(layer)].cluster->StopReconcileLoop();
  }
}

MirtoAgent& MirtoEngine::agent(continuum::Layer layer) {
  return *layers_[Index(layer)].agent;
}

sched::Cluster& MirtoEngine::cluster(continuum::Layer layer) {
  return *layers_[Index(layer)].cluster;
}

kb::Store& MirtoEngine::kb(continuum::Layer layer) {
  return *layers_[Index(layer)].store;
}

std::size_t MirtoEngine::TotalRunningPods() {
  std::size_t total = 0;
  for (const continuum::Layer layer : kLayers) {
    total += layers_[Index(layer)].cluster->RunningPods();
  }
  return total;
}

double MirtoEngine::TotalEnergyMj() const {
  double total = 0.0;
  for (const auto& node : infra_.nodes) total += node->total_energy_mj();
  return total;
}

util::StatusOr<double> MirtoEngine::ComputeBid(continuum::Layer layer,
                                               const sched::PodSpec& pod) {
  LayerSlice& slice = layers_[Index(layer)];
  // Dry-run the scheduler: feasibility plus the node it would pick. Goes
  // through the cluster's indexed path (no state changes).
  auto result = slice.cluster->DryRunSchedule(pod);
  if (!result.ok()) {
    return util::Status::NotFound("no capacity in layer " +
                                  std::string(continuum::LayerName(layer)));
  }
  const sched::NodeState* node = slice.cluster->FindNodeState(result->node_id);
  double power_per_cpu = 0.0;
  if (node != nullptr && node->cpu_capacity() > 0) {
    util::MilliWatts power;
    for (const continuum::Device& d : node->node->devices()) {
      power += d.active_point().power_active_mw;
    }
    power_per_cpu = power.value() / node->cpu_capacity();
  }
  const double load = node != nullptr && node->cpu_capacity() > 0
                          ? node->cpu_allocated() / node->cpu_capacity()
                          : 1.0;
  auto route = network_.topology().FindRoute(infra_.DefaultGateway(),
                                             result->node_id);
  const double latency_ms =
      route.ok() ? (*route)->propagation.ToMillisF() : 50.0;
  return kBidEnergyWeight * pod.cpu_request * power_per_cpu * 1e-3 +
         kBidLatencyWeight * latency_ms + kBidLoadWeight * load;
}

void MirtoEngine::NegotiatePod(
    std::shared_ptr<std::vector<sched::PodSpec>> pods, std::size_t index,
    std::shared_ptr<int> failures, std::function<void(util::Status)> done) {
  if (index >= pods->size()) {
    if (*failures > 0) {
      done(util::Status::ResourceExhausted(std::to_string(*failures) +
                                           " pods found no bidder"));
    } else {
      done(util::Status::Ok());
    }
    return;
  }
  const sched::PodSpec& pod = (*pods)[index];
  ++negotiation_.announcements;

  struct BidState {
    int outstanding = 3;
    double best_cost = std::numeric_limits<double>::infinity();
    int best_layer = -1;
    // Root span of this pod's negotiation; every bid/award RPC hangs off it.
    telemetry::SpanContext span;
    std::int64_t started_ns = 0;
  };
  auto state = std::make_shared<BidState>();
  const util::Json request = pod.ToJson();

  if (telemetry::Enabled()) {
    auto& tel = telemetry::Global();
    state->started_ns = network_.engine().Now().ns;
    state->span = tel.tracer.StartSpan("negotiate.pod", "mirto",
                                       tel.tracer.current(), state->started_ns);
    tel.tracer.SetAttribute(state->span, "pod", pod.name);
    tel.metrics.Add("myrtus_mirto_announcements_total");
  }

  // Ends the negotiation root span and records the per-pod placement latency.
  const auto finish_negotiation = [this, state](const std::string& result,
                                                const std::string& winner) {
    if (!state->span.valid()) return;
    auto& tel = telemetry::Global();
    tel.tracer.SetAttribute(state->span, "result", result);
    if (!winner.empty()) tel.tracer.SetAttribute(state->span, "winner", winner);
    tel.tracer.EndSpan(state->span, network_.engine().Now().ns);
    tel.metrics.Observe(
        "myrtus_mirto_negotiation_latency_ms",
        static_cast<double>(network_.engine().Now().ns - state->started_ns) * 1e-6);
    tel.metrics.Add("myrtus_mirto_negotiations_total", 1.0, {{"result", result}});
  };

  const std::string origin = AgentHost(continuum::Layer::kEdge);
  // Announce: the three bid calls are issued under the negotiation span so
  // their client spans become its children.
  telemetry::ContextGuard announce_guard(telemetry::Global().tracer, state->span);
  for (const continuum::Layer layer : kLayers) {
    network_.CallWithRetry(
        origin, AgentHost(layer), "mirto.bid", request,
        [this, state, pods, index, failures, done, layer,
         finish_negotiation](util::StatusOr<util::Json> reply) mutable {
          if (reply.ok()) {
            const double cost = reply->at("cost").as_double();
            if (cost < state->best_cost) {
              state->best_cost = cost;
              state->best_layer = static_cast<int>(layer);
            }
          }
          if (--state->outstanding > 0) return;
          // All bids in: award or record failure, then move to the next pod.
          if (state->best_layer < 0) {
            ++*failures;
            ++negotiation_.failed_pods;
            finish_negotiation("no-bidder", "");
            NegotiatePod(pods, index + 1, failures, done);
            return;
          }
          const auto winner = static_cast<continuum::Layer>(state->best_layer);
          // Completion callbacks run without an implicit context; restore the
          // negotiation span so the award call links into the same tree.
          telemetry::ContextGuard award_guard(telemetry::Global().tracer,
                                              state->span);
          network_.CallWithRetry(
              AgentHost(continuum::Layer::kEdge), AgentHost(winner),
              "mirto.award", (*pods)[index].ToJson(),
              [this, pods, index, failures, done, winner,
               finish_negotiation](util::StatusOr<util::Json> award) mutable {
                if (!award.ok()) {
                  ++*failures;
                  ++negotiation_.failed_pods;
                  finish_negotiation("award-failed", "");
                } else {
                  finish_negotiation(
                      "placed", std::string(continuum::LayerName(winner)));
                }
                NegotiatePod(pods, index + 1, failures, done);
              },
              kNegotiationRetry);
        },
        kNegotiationRetry);
  }
}

void MirtoEngine::DeployNegotiated(const tosca::CsarPackage& package,
                                   std::function<void(util::Status)> done) {
  auto tpl = package.EntryTemplate();
  if (!tpl.ok()) {
    done(tpl.status());
    return;
  }
  auto pods = tosca::LowerToPods(*tpl);
  if (!pods.ok()) {
    done(pods.status());
    return;
  }
  auto shared_pods =
      std::make_shared<std::vector<sched::PodSpec>>(std::move(*pods));
  NegotiatePod(shared_pods, 0, std::make_shared<int>(0), std::move(done));
}

}  // namespace myrtus::mirto
