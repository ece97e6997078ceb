// churn_recovery: a large continuum prefilled with bare pods while a churn
// script fails ~1% of the edge and fog nodes every sim-second and restores
// them a second later. MAPE (Monitor/Analyze/Plan, trust, SLO), reconcile
// eviction and rebinding, the change tracker and the agents' local KB
// registry do the work; net and tosca stay near idle.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mirto/engine.hpp"
#include "util/rng.hpp"

namespace myrtus::e2e {
namespace {

constexpr int kEdgeScale = 160;         // 1,081 nodes
constexpr double kChurnShare = 0.01;    // of edge+fog nodes, per sim-second
constexpr double kPrefillCpu = 0.60;    // prefill share of each layer's CPU
constexpr double kCpuCeiling = 0.70;
constexpr int kMeasuredWindows = 600;   // 150 sim-s
constexpr int kSmokeWindows = 20;
constexpr double kWarmupS = 2.0;
constexpr double kRecoveryLimitS = 10.0;

struct PodInput {
  sched::PodSpec spec;
  continuum::Layer layer = continuum::Layer::kEdge;
};

struct Toggle {
  std::int64_t at_ns = 0;  // from the churn origin
  std::uint32_t node = 0;  // index into Infrastructure::nodes
  bool up = false;
};

struct Inputs {
  std::vector<PodInput> pods;
  std::vector<Toggle> churn;  // in time order
  std::int64_t warmup_ns = 0;
  std::int64_t end_ns = 0;
  int windows = 0;
};

/// A device's capacity at its slowest operating point: where MAPE parks
/// every idle device on its first pass, and so what the prefill must fit.
double EcoCapacity(const continuum::ComputeNode& node) {
  double total = 0.0;
  for (const continuum::Device& d : node.devices()) {
    const continuum::OperatingPoint& eco = d.operating_points().back();
    total += static_cast<double>(d.parallel_units()) * eco.speedup * eco.clock_ghz;
  }
  return total;
}

std::shared_ptr<const Inputs> Generate(std::uint64_t seed, bool smoke) {
  auto in = std::make_shared<Inputs>();
  in->windows = smoke ? kSmokeWindows : kMeasuredWindows;
  in->warmup_ns = sim::SimTime::FromSeconds(kWarmupS).ns;
  in->end_ns = in->warmup_ns + kWindow.ns * in->windows;

  // The fleet shape is an input property; build it once to size the load.
  sim::Engine scratch;
  const continuum::Infrastructure infra =
      continuum::BuildInfrastructure(scratch, EdgeScaled(kEdgeScale));
  util::Rng rng(seed, "e2e.churn_recovery");
  for (const continuum::Layer layer : kContinuumLayers) {
    double capacity = 0.0;
    for (const continuum::ComputeNode* node : infra.NodesInLayer(layer)) {
      capacity += EcoCapacity(*node);
    }
    double placed = 0.0;
    while (true) {
      PodInput pod;
      pod.layer = layer;
      pod.spec.name = PaddedName('p', in->pods.size());
      pod.spec.cpu_request = 0.1 + 0.05 * static_cast<double>(rng.NextBounded(5));
      pod.spec.mem_request_mb = 16u << rng.NextBounded(3);
      if (placed + pod.spec.cpu_request > kPrefillCpu * capacity) break;
      placed += pod.spec.cpu_request;
      in->pods.push_back(std::move(pod));
    }
  }

  // The cloud layer is one data centre with no peer to fail over to, so
  // churn draws from the edge and fog nodes only. A node never fails in two
  // consecutive seconds: it is still down from the previous one. The k
  // failures of a second fall one in each k-th of it, at a random offset, so
  // their phase against the MAPE tick, which sets each recovery time, is
  // spread evenly in every run rather than by chance.
  std::vector<std::uint32_t> eligible;
  for (std::size_t i = 0; i < infra.nodes.size(); ++i) {
    if (infra.nodes[i]->layer() != continuum::Layer::kCloud) {
      eligible.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const auto per_second = static_cast<std::size_t>(
      std::lround(kChurnShare * static_cast<double>(eligible.size())));
  const std::uint64_t stratum_ns = 1'000'000'000 / per_second;
  std::vector<std::int64_t> last_failed_second(infra.nodes.size(), -2);
  for (std::int64_t second = 0; second * 1'000'000'000 < in->end_ns; ++second) {
    std::uint64_t chosen = 0;
    while (chosen < per_second) {
      const std::uint32_t node = eligible[rng.NextBounded(eligible.size())];
      if (last_failed_second[node] >= second - 1) continue;
      last_failed_second[node] = second;
      const std::int64_t at =
          second * 1'000'000'000 +
          static_cast<std::int64_t>(chosen * stratum_ns + rng.NextBounded(stratum_ns));
      in->churn.push_back({at, node, false});
      in->churn.push_back({at + 1'000'000'000, node, true});
      ++chosen;
    }
  }
  std::stable_sort(in->churn.begin(), in->churn.end(),
                   [](const Toggle& a, const Toggle& b) { return a.at_ns < b.at_ns; });
  return in;
}

class ChurnEpisode {
 public:
  ChurnEpisode(const Inputs& in, bool traced)
      : in_(in), traced_(traced), failed_at_(in.pods.size(), -1) {}
  ChurnEpisode(const ChurnEpisode&) = delete;
  ChurnEpisode& operator=(const ChurnEpisode&) = delete;

  EpisodeResult Run();

 private:
  struct Totals {
    std::uint64_t evictions = 0, reschedules = 0;
    std::uint64_t mape = 0, observed = 0, slo_publishes = 0;
    std::uint64_t messages = 0, bytes = 0;
  };

  void Build();
  void Prefill();
  Totals Take();
  void ScheduleNextToggle();
  void Apply(const Toggle& toggle);
  void OnBound(const std::string& pod);
  [[nodiscard]] std::size_t Running();
  [[nodiscard]] std::size_t Pending();
  void Fail(std::string message) { failures_.push_back(std::move(message)); }

  const Inputs& in_;
  const bool traced_;
  std::vector<std::string> failures_;

  sim::Engine engine_;
  SpanLog spans_{engine_};
  continuum::Infrastructure infra_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<mirto::MirtoEngine> mirto_;
  std::unique_ptr<ControlLoops> loops_;

  /// One node failure that evicted pods.
  struct Failure {
    std::int64_t at_ns = 0;
    std::size_t waiting = 0;  // its pods not yet bound again
  };

  std::int64_t origin_ns_ = 0;
  std::size_t next_toggle_ = 0;
  std::uint64_t toggles_ = 0;
  std::vector<Failure> failures_seen_;
  // Per prefilled pod: index into failures_seen_ of the failure it waits
  // on, until it is bound again; -1 when it is not waiting.
  std::vector<std::int32_t> failed_at_;
  std::size_t waiting_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t recovered_ = 0;
  // One sample per measured node failure: until its last pod is bound again.
  // A fog data centre holds hundreds of pods, so per-pod samples would let a
  // few such failures and their phase against the MAPE tick set the median.
  util::Samples recovery_ms_;
};

void ChurnEpisode::Build() {
  infra_ = continuum::BuildInfrastructure(engine_, EdgeScaled(kEdgeScale));
  network_ = std::make_unique<net::Network>(engine_, infra_.topology, kProgramSeed);
  mirto::EngineConfig config;
  config.seed = kProgramSeed;
  mirto_ = std::make_unique<mirto::MirtoEngine>(*network_, infra_, config);
  for (const continuum::Layer layer : kContinuumLayers) {
    mirto_->cluster(layer).AddPodEventListener(sched::Cluster::PodEvents{
        [this](const std::string& pod) { OnBound(pod); }, {}});
  }
  mirto_->Start();
  mirto_->Stop();  // the benchmark drives MAPE and reconcile itself
  std::vector<mirto::MirtoAgent*> agents;
  std::vector<sched::Cluster*> clusters;
  for (const continuum::Layer layer : kContinuumLayers) {
    agents.push_back(&mirto_->agent(layer));
    clusters.push_back(&mirto_->cluster(layer));
  }
  loops_ = std::make_unique<ControlLoops>(engine_, spans_, std::move(agents),
                                          std::move(clusters));
  // One MAPE pass parks every idle device at its eco point before the
  // prefill, so the pods are placed against the capacity they will keep.
  engine_.RunUntil(engine_.Now() + kMapePeriod * 2);
}

void ChurnEpisode::Prefill() {
  std::size_t unplaced = 0;
  for (const PodInput& pod : in_.pods) {
    if (!mirto_->cluster(pod.layer).BindPod(pod.spec).ok()) ++unplaced;
  }
  if (unplaced > 0) {
    Fail(std::to_string(unplaced) + " of " + std::to_string(in_.pods.size()) +
         " prefill pods did not place");
  }
  double allocated = 0.0;
  double capacity = 0.0;
  for (const continuum::Layer layer : kContinuumLayers) {
    for (const sched::NodeState* node : mirto_->cluster(layer).NodeStates()) {
      allocated += node->cpu_allocated();
      capacity += node->cpu_capacity();
    }
  }
  if (allocated > kCpuCeiling * capacity) {
    Fail("prefill allocates " + std::to_string(allocated / capacity) +
         " of the fleet CPU, above the design ceiling");
  }
}

void ChurnEpisode::ScheduleNextToggle() {
  if (next_toggle_ >= in_.churn.size()) return;
  engine_.ScheduleAt(
      sim::SimTime::Nanos(origin_ns_ + in_.churn[next_toggle_].at_ns), [this] {
        Apply(in_.churn[next_toggle_++]);
        ScheduleNextToggle();
      });
}

void ChurnEpisode::Apply(const Toggle& toggle) {
  continuum::ComputeNode& node = *infra_.nodes[toggle.node];
  if (!toggle.up) {
    const bool measured = engine_.Now().ns >= origin_ns_ + in_.warmup_ns;
    const auto failure = static_cast<std::int32_t>(failures_seen_.size());
    std::size_t evicted = 0;
    for (const sched::PodView& pod : mirto_->cluster(node.layer()).PodsOnNode(node.id())) {
      std::size_t index = 0;
      const std::string& name = pod.name();
      if (std::from_chars(name.data() + 1, name.data() + name.size(), index).ec !=
              std::errc() ||
          index >= failed_at_.size() || failed_at_[index] >= 0) {
        continue;
      }
      failed_at_[index] = failure;
      ++evicted;
    }
    if (evicted > 0) failures_seen_.push_back({engine_.Now().ns, evicted});
    waiting_ += evicted;
    if (measured) evicted_ += evicted;
  }
  ScopedSpan span(spans_, "continuum.set_up", Layer::kContinuum);
  node.SetUp(toggle.up);
  ++toggles_;
}

void ChurnEpisode::OnBound(const std::string& pod) {
  std::size_t index = 0;
  if (pod.empty() ||
      std::from_chars(pod.data() + 1, pod.data() + pod.size(), index).ec !=
          std::errc() ||
      index >= failed_at_.size() || failed_at_[index] < 0) {
    return;
  }
  Failure& failure = failures_seen_[static_cast<std::size_t>(failed_at_[index])];
  failed_at_[index] = -1;
  --waiting_;
  --failure.waiting;
  if (failure.at_ns < origin_ns_ + in_.warmup_ns) return;
  const double ms = static_cast<double>(engine_.Now().ns - failure.at_ns) / 1e6;
  if (ms <= kRecoveryLimitS * 1e3) ++recovered_;
  if (failure.waiting == 0) recovery_ms_.Add(ms);
}

std::size_t ChurnEpisode::Running() {
  std::size_t total = 0;
  for (const continuum::Layer layer : kContinuumLayers) {
    total += mirto_->cluster(layer).RunningPods();
  }
  return total;
}

std::size_t ChurnEpisode::Pending() {
  std::size_t total = 0;
  for (const continuum::Layer layer : kContinuumLayers) {
    total += mirto_->cluster(layer).PendingPods();
  }
  return total;
}

ChurnEpisode::Totals ChurnEpisode::Take() {
  Totals t;
  for (const continuum::Layer layer : kContinuumLayers) {
    t.evictions += mirto_->cluster(layer).evictions();
    t.reschedules += mirto_->cluster(layer).reschedules();
    const mirto::AgentStats& stats = mirto_->agent(layer).stats();
    t.mape += stats.mape_iterations;
    t.observed += stats.nodes_observed;
    t.slo_publishes += stats.slo_publishes;
  }
  t.messages = network_->messages_delivered();
  t.bytes = network_->bytes_sent();
  return t;
}

EpisodeResult ChurnEpisode::Run() {
  EpisodeResult result;
  const std::int64_t setup_start = HostNowNs();
  Build();
  Prefill();
  origin_ns_ = engine_.Now().ns;
  ScheduleNextToggle();
  engine_.RunUntil(sim::SimTime::Nanos(origin_ns_ + in_.warmup_ns));
  result.setup_s = static_cast<double>(HostNowNs() - setup_start) / 1e9;

  const Totals before = Take();
  const std::uint64_t toggles_before = toggles_;
  const double energy_before = mirto_->TotalEnergyMj();
  std::size_t pending_max = 0;
  result.windows = RunWindows(engine_, spans_, in_.windows, traced_, [&] {
    pending_max = std::max(pending_max, Pending());
  });
  const Totals after = Take();
  const double toggles = Delta(toggles_before, toggles_);
  const double energy = mirto_->TotalEnergyMj() - energy_before;
  const std::size_t running = Running();

  // Churn ends with the measured phase; the last failed nodes come back a
  // second later and every evicted pod must be bound again.
  if (!SettleUntil(engine_, sim::SimTime::Seconds(15), [this] {
        return next_toggle_ >= in_.churn.size() && waiting_ == 0 && Pending() == 0;
      })) {
    Fail(std::to_string(waiting_) + " evicted pods not bound again 15 sim-s "
         "after the churn stopped");
  }
  if (Running() != in_.pods.size()) {
    Fail("running pods " + std::to_string(Running()) + " != prefilled " +
         std::to_string(in_.pods.size()));
  }

  result.op = "recovery";
  result.op_sim_ms = recovery_ms_;
  result.miss_ratio_name = "recovery_fail_ratio";
  result.attempted = evicted_;
  result.failed = util::SubSat(evicted_, recovered_);
  result.op_ok_ratio =
      evicted_ == 0 ? 0.0
                    : static_cast<double>(recovered_) / static_cast<double>(evicted_);

  std::vector<Metric>& c = result.counts;
  c.push_back({"net.messages", Delta(before.messages, after.messages), "count"});
  c.push_back({"net.bytes", Delta(before.bytes, after.bytes), "bytes"});
  c.push_back({"sched.running_pods", static_cast<double>(running), "count"});
  c.push_back({"sched.pending_pods_max", static_cast<double>(pending_max), "count"});
  c.push_back({"sched.evictions", Delta(before.evictions, after.evictions), "count"});
  c.push_back({"sched.reschedules", Delta(before.reschedules, after.reschedules), "count"});
  c.push_back({"mirto.mape_iterations", Delta(before.mape, after.mape), "count"});
  c.push_back({"mirto.nodes_observed_per_iter",
               Delta(before.observed, after.observed) / std::max(1.0, Delta(before.mape, after.mape)),
               "count"});
  c.push_back({"mirto.slo_publishes", Delta(before.slo_publishes, after.slo_publishes), "count"});
  c.push_back({"continuum.nodes", static_cast<double>(infra_.nodes.size()), "count"});
  c.push_back({"continuum.churn_toggles", toggles, "count"});
  c.push_back({"continuum.energy_mj", energy, "mJ"});
  result.failures = std::move(failures_);
  result.spans = spans_.Take();
  return result;
}

}  // namespace

EpisodeRunner PrepareChurnRecovery(std::uint64_t seed, bool smoke) {
  std::shared_ptr<const Inputs> inputs = Generate(seed, smoke);
  return [inputs](bool traced) {
    ChurnEpisode episode(*inputs, traced);
    return episode.Run();
  };
}

}  // namespace myrtus::e2e
