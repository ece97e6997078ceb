// pilot_traffic: instances of the two MYRTUS pilots (Smart Mobility and
// Virtual Telerehabilitation) streaming requests through their stage chains.
// The sim engine, the net transport (per-hop link queues, CoAP relay RPCs,
// route lookups) and device compute do the work; tosca, Raft and negotiation
// stay idle.
#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "kb/store.hpp"
#include "usecases/scenario.hpp"
#include "util/rng.hpp"

namespace myrtus::e2e {
namespace {

constexpr int kEdgeScale = 16;  // 109 nodes
constexpr int kInstances = 44;
constexpr int kMeasuredWindows = 300;  // 75 sim-s
constexpr int kSmokeWindows = 20;
constexpr double kWarmupS = 2.0;
const char* const kAgentHost = "mirto-0";

struct Instance {
  bool mobility = true;
  std::string name;
  std::string source;  // edge node the requests originate at
};

struct Arrival {
  std::int64_t due_ns = 0;  // from the arrival origin
  std::uint32_t instance = 0;
};

struct Inputs {
  std::vector<Instance> instances;
  std::vector<Arrival> arrivals;  // in due order
  std::int64_t warmup_ns = 0;
  std::int64_t end_ns = 0;
  int windows = 0;
};

std::shared_ptr<const Inputs> Generate(std::uint64_t seed, bool smoke) {
  auto in = std::make_shared<Inputs>();
  in->windows = smoke ? kSmokeWindows : kMeasuredWindows;
  in->warmup_ns = sim::SimTime::FromSeconds(kWarmupS).ns;
  in->end_ns = in->warmup_ns + kWindow.ns * in->windows;
  const continuum::InfrastructureSpec spec = EdgeScaled(kEdgeScale);
  const int edge_nodes = spec.edge_hmpsoc + spec.edge_riscv + spec.edge_multicore;
  util::Rng rng(seed, "e2e.pilot_traffic");
  std::vector<int> sources(static_cast<std::size_t>(edge_nodes));
  for (int i = 0; i < edge_nodes; ++i) sources[static_cast<std::size_t>(i)] = i;
  std::shuffle(sources.begin(), sources.end(), rng);
  for (int i = 0; i < kInstances; ++i) {
    Instance instance;
    instance.mobility = i % 2 == 0;
    instance.name = std::string(instance.mobility ? "smart-mobility-" : "telerehab-") +
                    std::to_string(i);
    instance.source =
        "edge-" + std::to_string(sources[static_cast<std::size_t>(i) % sources.size()]);
    const double rate_hz = instance.mobility
                               ? usecases::SmartMobilityScenario().arrival_rate_hz
                               : usecases::TelerehabScenario().arrival_rate_hz;
    util::Rng arrivals(seed, "e2e.pilot_traffic.arrivals",
                       static_cast<std::uint64_t>(i));
    double t = 0.0;
    while (true) {
      t += arrivals.NextExponential(rate_hz);
      const std::int64_t due = sim::SimTime::FromSeconds(t).ns;
      if (due >= in->end_ns) break;
      in->arrivals.push_back({due, static_cast<std::uint32_t>(i)});
    }
    in->instances.push_back(std::move(instance));
  }
  std::stable_sort(in->arrivals.begin(), in->arrivals.end(),
                   [](const Arrival& a, const Arrival& b) { return a.due_ns < b.due_ns; });
  return in;
}

/// util::Samples answers quantiles but does not expose its values; querying
/// every order statistic recovers them (to interpolation rounding).
void AppendSamples(const util::Samples& from, util::Samples& to) {
  const std::size_t n = from.count();
  for (std::size_t k = 0; k < n; ++k) {
    to.Add(from.Quantile(n == 1 ? 0.0
                                : static_cast<double>(k) / static_cast<double>(n - 1)));
  }
}

class PilotEpisode {
 public:
  PilotEpisode(const Inputs& in, bool traced) : in_(in), traced_(traced) {}
  PilotEpisode(const PilotEpisode&) = delete;
  PilotEpisode& operator=(const PilotEpisode&) = delete;

  EpisodeResult Run();

 private:
  struct Totals {
    std::uint64_t completed = 0, failed = 0, violations = 0;
    std::uint64_t messages = 0, bytes = 0, dropped = 0, retries = 0;
    std::uint64_t mape = 0, observed = 0, slo_publishes = 0;
    std::uint64_t evictions = 0, reschedules = 0;
    double energy_mj = 0.0;
  };

  void Build();
  Totals Take() const;
  void ScheduleNextArrival();
  void Fail(std::string message) { failures_.push_back(std::move(message)); }

  const Inputs& in_;
  const bool traced_;
  std::vector<std::string> failures_;

  sim::Engine engine_;
  SpanLog spans_{engine_};
  continuum::Infrastructure infra_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<sched::Cluster> cluster_;
  kb::Store store_;
  std::unique_ptr<mirto::MirtoAgent> agent_;
  std::unique_ptr<ControlLoops> loops_;
  // Pipelines hold references to their scenarios: both stay put in deques.
  std::deque<usecases::Scenario> scenarios_;
  std::deque<usecases::RequestPipeline> pipelines_;

  std::int64_t origin_ns_ = 0;
  std::size_t next_arrival_ = 0;
  std::uint64_t launched_ = 0;
};

void PilotEpisode::Build() {
  infra_ = continuum::BuildInfrastructure(engine_, EdgeScaled(kEdgeScale));
  net::Topology topology = infra_.topology;
  topology.AddBidirectional(kAgentHost, infra_.DefaultGateway(),
                            sim::SimTime::Micros(200), 1e9);
  network_ = std::make_unique<net::Network>(engine_, std::move(topology),
                                            kProgramSeed);
  cluster_ = std::make_unique<sched::Cluster>(engine_, sched::Scheduler::Default());
  for (const auto& node : infra_.nodes) cluster_->AddNode(node.get());
  mirto::AgentConfig config;
  config.host = kAgentHost;
  config.seed = kProgramSeed;
  agent_ = std::make_unique<mirto::MirtoAgent>(
      *network_, *cluster_, infra_, store_,
      mirto::AuthModule(util::BytesOf("e2e")), config);
  agent_->Start();
  agent_->Stop();  // the benchmark drives MAPE and reconcile itself
  loops_ = std::make_unique<ControlLoops>(
      engine_, spans_, std::vector<mirto::MirtoAgent*>{agent_.get()},
      std::vector<sched::Cluster*>{cluster_.get()});

  for (const Instance& instance : in_.instances) {
    usecases::Scenario& scenario = scenarios_.emplace_back(
        instance.mobility ? usecases::SmartMobilityScenario()
                          : usecases::TelerehabScenario());
    scenario.name = instance.name;
    scenario.source_host = instance.source;
    if (const util::Status placed =
            usecases::DeployScenario(scenario, *cluster_, kProgramSeed);
        !placed.ok()) {
      Fail(instance.name + ": " + placed.ToString());
    }
    pipelines_.emplace_back(*network_, infra_, *cluster_, scenario);
  }
  origin_ns_ = engine_.Now().ns;
  ScheduleNextArrival();
}

void PilotEpisode::ScheduleNextArrival() {
  if (next_arrival_ >= in_.arrivals.size()) return;
  engine_.ScheduleAt(
      sim::SimTime::Nanos(origin_ns_ + in_.arrivals[next_arrival_].due_ns), [this] {
        const std::size_t r = next_arrival_++;
        {
          ScopedSpan span(spans_, "usecases.launch", Layer::kUsecases,
                          kOpTraceBase + r);
          pipelines_[in_.arrivals[r].instance].LaunchRequest();
        }
        ++launched_;
        ScheduleNextArrival();
      });
}

PilotEpisode::Totals PilotEpisode::Take() const {
  Totals t;
  for (const usecases::RequestPipeline& pipeline : pipelines_) {
    t.completed += pipeline.kpis().completed;
    t.failed += pipeline.kpis().failed;
    t.violations += pipeline.kpis().violations;
  }
  t.messages = network_->messages_delivered();
  t.bytes = network_->bytes_sent();
  t.dropped = network_->messages_dropped();
  t.retries = network_->retries();
  const mirto::AgentStats& stats = agent_->stats();
  t.mape = stats.mape_iterations;
  t.observed = stats.nodes_observed;
  t.slo_publishes = stats.slo_publishes;
  t.evictions = cluster_->evictions();
  t.reschedules = cluster_->reschedules();
  for (const auto& node : infra_.nodes) t.energy_mj += node->total_energy_mj();
  return t;
}

EpisodeResult PilotEpisode::Run() {
  EpisodeResult result;
  const std::int64_t setup_start = HostNowNs();
  Build();
  engine_.RunUntil(sim::SimTime::Nanos(origin_ns_ + in_.warmup_ns));
  result.setup_s = static_cast<double>(HostNowNs() - setup_start) / 1e9;

  // Latency samples count from here; warm-up requests still in flight land
  // in the measured phase, as a live system's would.
  for (usecases::RequestPipeline& pipeline : pipelines_) {
    pipeline.mutable_kpis().latency_ms.Clear();
  }
  const Totals before = Take();
  const std::uint64_t launched_before = launched_;
  std::size_t pending_max = 0;
  result.windows = RunWindows(engine_, spans_, in_.windows, traced_, [&] {
    pending_max = std::max(pending_max, cluster_->PendingPods());
  });
  const Totals end = Take();
  const std::uint64_t launched = util::SubSat(launched_, launched_before);
  if (!SettleUntil(engine_, sim::SimTime::Seconds(30), [this] {
        const Totals t = Take();
        return t.completed + t.failed == launched_;
      })) {
    Fail("requests still in flight 30 sim-s after the last launch");
  }
  const Totals after = Take();
  if (after.completed + after.failed != launched_) {
    Fail("completed + failed (" + std::to_string(after.completed + after.failed) +
         ") != launched (" + std::to_string(launched_) + ")");
  }

  const std::uint64_t finished = util::SubSat(after.completed + after.failed,
                                              before.completed + before.failed);
  const std::uint64_t misses = util::SubSat(after.violations + after.failed,
                                            before.violations + before.failed);
  result.op = "request";
  for (const usecases::RequestPipeline& pipeline : pipelines_) {
    AppendSamples(pipeline.kpis().latency_ms, result.op_sim_ms);
  }
  result.miss_ratio_name = "deadline_miss_ratio";
  result.op_ok_ratio =
      finished == 0 ? 0.0
                    : 1.0 - static_cast<double>(misses) / static_cast<double>(finished);
  result.attempted = finished;
  result.failed = util::SubSat(after.failed, before.failed);

  std::vector<Metric>& c = result.counts;
  c.push_back({"net.messages", Delta(before.messages, end.messages), "count"});
  c.push_back({"net.bytes", Delta(before.bytes, end.bytes), "bytes"});
  c.push_back({"net.dropped", Delta(before.dropped, end.dropped), "count"});
  c.push_back({"net.retries", Delta(before.retries, end.retries), "count"});
  c.push_back({"sched.running_pods", static_cast<double>(cluster_->RunningPods()), "count"});
  c.push_back({"sched.pending_pods_max", static_cast<double>(pending_max), "count"});
  c.push_back({"sched.evictions", Delta(before.evictions, end.evictions), "count"});
  c.push_back({"sched.reschedules", Delta(before.reschedules, end.reschedules), "count"});
  c.push_back({"mirto.mape_iterations", Delta(before.mape, end.mape), "count"});
  c.push_back({"mirto.nodes_observed_per_iter",
               Delta(before.observed, end.observed) / std::max(1.0, Delta(before.mape, end.mape)),
               "count"});
  c.push_back({"mirto.slo_publishes", Delta(before.slo_publishes, end.slo_publishes), "count"});
  c.push_back({"continuum.nodes", static_cast<double>(infra_.nodes.size()), "count"});
  c.push_back({"continuum.energy_mj", end.energy_mj - before.energy_mj, "mJ"});
  c.push_back({"usecases.requests", static_cast<double>(launched), "count"});
  result.failures = std::move(failures_);
  result.spans = spans_.Take();
  return result;
}

}  // namespace

EpisodeRunner PreparePilotTraffic(std::uint64_t seed, bool smoke) {
  std::shared_ptr<const Inputs> inputs = Generate(seed, smoke);
  return [inputs](bool traced) {
    PilotEpisode episode(*inputs, traced);
    return episode.Run();
  };
}

}  // namespace myrtus::e2e
