// deploy_storm: an open-loop stream of generated TOSCA applications through
// the full control-plane write path — auth, TOSCA validation, contract-net
// negotiation or the API daemon, scheduler bind/delete, the Raft-replicated
// KB, and the MAPE observation of every hosting node. The data plane is idle.
#include <algorithm>
#include <array>
#include <charconv>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.hpp"
#include "kb/cluster.hpp"
#include "kb/registry.hpp"
#include "mirto/engine.hpp"
#include "telemetry/telemetry.hpp"
#include "tosca/csar.hpp"
#include "util/rng.hpp"

namespace myrtus::e2e {
namespace {

constexpr int kEdgeScale = 32;              // 217 nodes
constexpr double kArrivalHz = 40.0;         // Poisson arrivals per sim-s
constexpr double kMeanLifetimeS = 10.0;     // exponential app lifetime
constexpr double kApiShare = 0.30;          // rest go through DeployNegotiated
constexpr double kBadTokenShare = 0.02;     // API requests with a forged token
constexpr double kInvalidShare = 0.02;      // templates that fail validation
constexpr int kMeasuredWindows = 480;       // 120 sim-s
constexpr int kSmokeWindows = 20;
constexpr double kCpuCeiling = 0.70;        // design envelope of the load
const char* const kClient = "client";
const std::string kRecordPrefix = "/deployments/";

enum class Path : std::uint8_t { kNegotiated, kApi };
enum class Fault : std::uint8_t { kNone, kBadToken, kInvalidTemplate };

struct App {
  std::string id;  // prefix of every pod name; the CSAR entry file name
  std::int64_t due_ns = 0;  // from the arrival origin
  std::int64_t lifetime_ns = 0;
  Path path = Path::kNegotiated;
  Fault fault = Fault::kNone;
  continuum::Layer api_layer = continuum::Layer::kEdge;  // API target agent
  std::vector<std::string> pods;
  tosca::CsarPackage package;  // negotiated path
  util::Json request;          // API path: token + packed CSAR
  util::Json undeploy;         // API path: token + app id
};

struct Inputs {
  std::vector<App> apps;  // in due order
  std::int64_t warmup_ns = 0;
  std::int64_t end_ns = 0;  // arrivals stop here (end of the measured phase)
  int windows = 0;
  double csar_bytes_mean = 0.0;
};

/// App index and pod index parsed back out of "a000042-w3".
bool ParsePodName(std::string_view pod, std::size_t& app, std::size_t& index) {
  const std::size_t dash = pod.find("-w");
  if (pod.size() < 2 || pod[0] != 'a' || dash == std::string_view::npos) {
    return false;
  }
  const auto a = std::from_chars(pod.data() + 1, pod.data() + dash, app);
  const auto p =
      std::from_chars(pod.data() + dash + 2, pod.data() + pod.size(), index);
  return a.ec == std::errc() && p.ec == std::errc();
}

/// A 2–6 workload application with seeded cpu, memory, security level and
/// placement; accelerable kernels only where an HMPSoC can host them.
tosca::ServiceTemplate MakeTemplate(util::Rng& rng, App& app) {
  tosca::ServiceTemplate tpl;
  tpl.tosca_version = "tosca_2_0";
  tpl.description = "generated application " + app.id;
  const double s = rng.NextDouble();
  const char* level = s < 0.6 ? "low" : (s < 0.85 ? "medium" : "high");
  const bool low = s < 0.6;
  const double p = rng.NextDouble();
  std::string layer;
  if (low) {
    layer = p < 0.4 ? "" : (p < 0.75 ? "edge" : (p < 0.9 ? "fog" : "cloud"));
  } else {
    layer = p < 0.5 ? "" : (p < 0.8 ? "fog" : "cloud");
  }
  app.api_layer = layer == "cloud" ? continuum::Layer::kCloud
                  : (layer == "fog" || !low) ? continuum::Layer::kFog
                                             : continuum::Layer::kEdge;
  const bool may_accelerate = low && (layer.empty() || layer == "edge");
  const int workloads = 2 + static_cast<int>(rng.NextBounded(5));
  static constexpr std::array<int, 4> kMemMb = {32, 64, 128, 256};
  for (int w = 0; w < workloads; ++w) {
    tosca::NodeTemplate nt;
    nt.name = app.id + "-w" + std::to_string(w);
    nt.type = std::string(tosca::kTypeWorkload);
    nt.properties =
        util::Json::MakeObject()
            .Set("cpu", 0.1 + 0.05 * static_cast<double>(rng.NextBounded(9)))
            .Set("memory_mb", kMemMb[rng.NextBounded(kMemMb.size())]);
    if (may_accelerate && rng.NextBool(0.1)) {
      nt.properties.Set("accelerable", true);
      app.api_layer = continuum::Layer::kEdge;
    }
    app.pods.push_back(nt.name);
    tpl.node_templates[nt.name] = std::move(nt);
  }
  if (app.fault == Fault::kInvalidTemplate) {
    tpl.node_templates.begin()->second.properties.Set("memory_mb", 0);
  }
  tosca::Policy security;
  security.name = "security";
  security.type = std::string(tosca::kPolicySecurity);
  security.properties = util::Json::MakeObject().Set("level", level);
  tpl.policies.push_back(std::move(security));
  if (!layer.empty()) {
    tosca::Policy placement;
    placement.name = "placement";
    placement.type = std::string(tosca::kPolicyPlacement);
    placement.properties = util::Json::MakeObject().Set("layer", layer);
    tpl.policies.push_back(std::move(placement));
  }
  return tpl;
}

std::shared_ptr<const Inputs> Generate(std::uint64_t seed, bool smoke) {
  auto in = std::make_shared<Inputs>();
  util::Rng rng(seed, "e2e.deploy_storm");
  const mirto::AuthModule auth(
      util::BytesOf(mirto::EngineConfig{}.auth_secret));
  const std::string good_token = auth.IssueToken(kClient);
  const std::string bad_token = std::string(kClient) + "." + std::string(64, '0');
  in->windows = smoke ? kSmokeWindows : kMeasuredWindows;
  in->warmup_ns = sim::SimTime::FromSeconds(kMeanLifetimeS).ns;
  in->end_ns = in->warmup_ns + kWindow.ns * in->windows;
  double csar_bytes = 0.0;
  double t = 0.0;
  while (true) {
    t += rng.NextExponential(kArrivalHz);
    const std::int64_t due = sim::SimTime::FromSeconds(t).ns;
    if (due >= in->end_ns) break;
    App app;
    app.id = PaddedName('a', in->apps.size());
    app.due_ns = due;
    app.lifetime_ns =
        sim::SimTime::FromSeconds(rng.NextExponential(1.0 / kMeanLifetimeS)).ns;
    const double f = rng.NextDouble();
    app.fault = f < kBadTokenShare ? Fault::kBadToken
                : f < kBadTokenShare + kInvalidShare ? Fault::kInvalidTemplate
                                                     : Fault::kNone;
    app.path = app.fault == Fault::kBadToken || rng.NextBool(kApiShare)
                   ? Path::kApi
                   : Path::kNegotiated;
    const tosca::ServiceTemplate tpl = MakeTemplate(rng, app);
    app.package = tosca::CsarPackage::Create(tpl, app.id + ".yaml");
    const std::string packed = app.package.Pack();
    csar_bytes += static_cast<double>(packed.size());
    if (app.path == Path::kApi) {
      const std::string& token =
          app.fault == Fault::kBadToken ? bad_token : good_token;
      app.request =
          util::Json::MakeObject().Set("token", token).Set("csar", packed);
      app.undeploy =
          util::Json::MakeObject().Set("token", token).Set("app", app.id);
    }
    in->apps.push_back(std::move(app));
  }
  in->csar_bytes_mean =
      in->apps.empty() ? 0.0 : csar_bytes / static_cast<double>(in->apps.size());
  return in;
}

struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

class StormEpisode {
 public:
  StormEpisode(const Inputs& in, bool traced)
      : in_(in), traced_(traced), state_(in.apps.size()) {}
  StormEpisode(const StormEpisode&) = delete;
  StormEpisode& operator=(const StormEpisode&) = delete;
  ~StormEpisode() {
    telemetry::SetEnabled(false);
    telemetry::ResetGlobal();
  }

  EpisodeResult Run();

 private:
  enum class Phase : std::uint8_t {
    kWaiting,
    kDeploying,
    kLive,
    kTearingDown,
    kGone,
    kRefused,
    kFailed,
  };
  struct AppState {
    Phase phase = Phase::kWaiting;
    util::StatusCode outcome = util::StatusCode::kOk;
    std::int64_t placed_ns = -1;
    std::int64_t put_ns = -1;
    std::int64_t committed_ns = -1;
    std::int64_t observed_ns = -1;
    int observes_pending = 0;
    std::vector<std::int8_t> pod_layer;  // layer each pod bound in; -1 none
  };
  /// Counters read at the start and end of the measured windows.
  struct Snapshot {
    std::uint64_t messages = 0, bytes = 0, dropped = 0, retries = 0;
    std::uint64_t kb_retries = 0, evictions = 0, reschedules = 0;
    std::uint64_t mape = 0, observed = 0, slo_publishes = 0;
    std::uint64_t bids = 0, awards = 0, spans = 0, spans_dropped = 0;
    double energy_mj = 0.0;
  };

  void Build();
  Snapshot Take();
  [[nodiscard]] bool Measured(std::size_t a) const {
    return in_.apps[a].due_ns >= in_.warmup_ns;
  }
  [[nodiscard]] std::uint64_t Trace(std::size_t a) const {
    return kOpTraceBase + a;
  }
  [[nodiscard]] std::int64_t Now() const { return engine_.Now().ns; }
  void ScheduleNextArrival();
  void Arrive(std::size_t a);
  void OnPlaced(std::size_t a, const util::Status& status);
  void OnCommitted(std::size_t a, const util::Status& status);
  void OnBound(continuum::Layer layer, const std::string& pod);
  void OnNodeRecord(continuum::Layer layer, std::string_view node);
  void MaybeComplete(std::size_t a);
  void TearDown(std::size_t a);
  void DeleteRecord(std::size_t a);
  void RemoveLeftovers(std::size_t a);
  void SampleLoad();
  void Fail(std::string message) { failures_.push_back(std::move(message)); }
  void Check();

  const Inputs& in_;
  const bool traced_;
  std::vector<AppState> state_;
  std::vector<std::string> failures_;

  sim::Engine engine_;
  SpanLog spans_{engine_};
  continuum::Infrastructure infra_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<kb::KbCluster> kb_;
  std::unique_ptr<kb::KbClient> client_;
  std::unique_ptr<mirto::MirtoEngine> mirto_;
  std::unique_ptr<ControlLoops> loops_;

  std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>
      node_slot_;
  // Per layer store, per node slot: apps waiting for that node's registry
  // record to be rewritten after one of their pods bound there.
  std::array<std::vector<std::vector<std::uint32_t>>, 3> awaiting_;
  std::int64_t origin_ns_ = 0;
  std::size_t next_arrival_ = 0;
  std::size_t unresolved_ = 0;
  std::uint64_t kb_writes_ = 0;
  std::size_t pending_pods_max_ = 0;
  double cpu_ratio_max_ = 0.0;

  util::Samples deploy_ms_, negotiate_ms_, rpc_ms_, commit_ms_, observe_ms_;
  std::uint64_t valid_attempts_ = 0, deployed_ = 0, invalid_refusals_ = 0;
};

void StormEpisode::Build() {
  telemetry::ResetGlobal();
  telemetry::SetEnabled(true);
  infra_ = continuum::BuildInfrastructure(engine_, EdgeScaled(kEdgeScale));
  net::Topology topology = infra_.topology;
  const std::string gateway = infra_.DefaultGateway();
  topology.AddBidirectional(kClient, gateway, sim::SimTime::Millis(1), 1e9);
  // The replicas sit in the fog, within a 25 ms round trip of each other:
  // Raft's append attempt times out after one heartbeat interval (50 ms), so
  // a replica placed in the cloud (~60 ms round trip) never catches up.
  const std::vector<net::HostId> kb_hosts = {"kb-0", "kb-1", "kb-2"};
  topology.AddBidirectional(kb_hosts[0], gateway, sim::SimTime::Micros(200), 1e9);
  topology.AddBidirectional(kb_hosts[1], "fmdc-0", sim::SimTime::Micros(200), 1e9);
  topology.AddBidirectional(kb_hosts[2], "gw-1", sim::SimTime::Micros(200), 1e9);
  network_ = std::make_unique<net::Network>(engine_, std::move(topology),
                                           kProgramSeed);
  kb_ = std::make_unique<kb::KbCluster>(*network_, kb_hosts, kProgramSeed);
  client_ = std::make_unique<kb::KbClient>(*network_, *kb_, kClient);
  mirto::EngineConfig config;
  config.seed = kProgramSeed;
  mirto_ = std::make_unique<mirto::MirtoEngine>(*network_, infra_, config);

  for (std::size_t i = 0; i < infra_.nodes.size(); ++i) {
    node_slot_.emplace(infra_.nodes[i]->id(), i);
  }
  const std::string node_prefix = kb::ResourceRegistry::NodeKey("");
  for (const continuum::Layer layer : kContinuumLayers) {
    awaiting_[static_cast<std::size_t>(layer)].resize(infra_.nodes.size());
    mirto_->cluster(layer).AddPodEventListener(sched::Cluster::PodEvents{
        [this, layer](const std::string& pod) { OnBound(layer, pod); }, {}});
    mirto_->kb(layer).Watch(
        node_prefix, [this, layer, node_prefix](const kb::WatchEvent& event) {
          if (event.type != kb::WatchEvent::Type::kPut) return;
          OnNodeRecord(layer,
                       std::string_view(event.kv.key).substr(node_prefix.size()));
        });
  }

  kb_->Start();
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
  if (!SettleUntil(engine_, sim::SimTime::Seconds(5),
                   [this] { return kb_->LeaderIndex() >= 0; })) {
    Fail("KB elected no leader within 5 sim-s");
  }
  origin_ns_ = engine_.Now().ns;
  ScheduleNextArrival();
}

void StormEpisode::ScheduleNextArrival() {
  if (next_arrival_ >= in_.apps.size()) return;
  engine_.ScheduleAt(
      sim::SimTime::Nanos(origin_ns_ + in_.apps[next_arrival_].due_ns), [this] {
        Arrive(next_arrival_++);
        ScheduleNextArrival();
      });
}

void StormEpisode::Arrive(std::size_t a) {
  const App& app = in_.apps[a];
  AppState& st = state_[a];
  st.phase = Phase::kDeploying;
  st.pod_layer.assign(app.pods.size(), -1);
  ++unresolved_;
  if (app.fault == Fault::kNone && Measured(a)) ++valid_attempts_;
  if (app.path == Path::kNegotiated) {
    ScopedSpan span(spans_, "mirto.deploy_negotiated", Layer::kMirto, Trace(a));
    mirto_->DeployNegotiated(
        app.package, [this, a](util::Status status) { OnPlaced(a, status); });
  } else {
    ScopedSpan span(spans_, "net.call", Layer::kNet, Trace(a));
    network_->Call(kClient, mirto::MirtoEngine::AgentHost(app.api_layer),
                   "mirto.deploy", app.request,
                   [this, a](util::StatusOr<util::Json> reply) {
                     OnPlaced(a, reply.status());
                   });
  }
}

void StormEpisode::OnPlaced(std::size_t a, const util::Status& status) {
  const App& app = in_.apps[a];
  AppState& st = state_[a];
  st.placed_ns = Now();
  st.outcome = status.code();
  const std::int64_t due = origin_ns_ + app.due_ns;
  if (Measured(a) && app.path == Path::kApi) {
    rpc_ms_.Add(static_cast<double>(st.placed_ns - due) / 1e6);
  }
  if (app.fault != Fault::kNone || !status.ok()) {
    if (app.fault == Fault::kInvalidTemplate && Measured(a) &&
        status.code() == util::StatusCode::kInvalidArgument) {
      ++invalid_refusals_;
    }
    st.phase = app.fault != Fault::kNone ? Phase::kRefused : Phase::kFailed;
    --unresolved_;
    RemoveLeftovers(a);
    return;
  }
  if (Measured(a) && app.path == Path::kNegotiated) {
    negotiate_ms_.Add(static_cast<double>(st.placed_ns - due) / 1e6);
  }
  ScopedSpan span(spans_, "kb.put", Layer::kKb, Trace(a));
  st.put_ns = Now();
  ++kb_writes_;
  client_->Put(kRecordPrefix + app.id,
               util::Json::MakeObject()
                   .Set("pods", static_cast<std::int64_t>(app.pods.size()))
                   .Set("path", app.path == Path::kApi ? "api" : "negotiated"),
               [this, a](util::Status committed) { OnCommitted(a, committed); });
}

void StormEpisode::OnCommitted(std::size_t a, const util::Status& status) {
  if (!status.ok()) {
    Fail(in_.apps[a].id + ": KB put failed: " + status.ToString());
    return;
  }
  state_[a].committed_ns = Now();
  MaybeComplete(a);
}

void StormEpisode::OnBound(continuum::Layer layer, const std::string& pod) {
  std::size_t a = 0;
  std::size_t p = 0;
  if (!ParsePodName(pod, a, p) || a >= state_.size()) return;
  AppState& st = state_[a];
  if (st.phase != Phase::kDeploying || p >= st.pod_layer.size()) return;
  st.pod_layer[p] = static_cast<std::int8_t>(layer);
  const sched::PodView view = mirto_->cluster(layer).FindPod(pod);
  const auto slot = node_slot_.find(view.node_id());
  if (slot == node_slot_.end()) return;
  awaiting_[static_cast<std::size_t>(layer)][slot->second].push_back(
      static_cast<std::uint32_t>(a));
  ++st.observes_pending;
}

void StormEpisode::OnNodeRecord(continuum::Layer layer, std::string_view node) {
  const auto slot = node_slot_.find(node);
  if (slot == node_slot_.end()) return;
  std::vector<std::uint32_t>& waiting =
      awaiting_[static_cast<std::size_t>(layer)][slot->second];
  for (const std::uint32_t a : waiting) {
    AppState& st = state_[a];
    if (st.phase != Phase::kDeploying) continue;
    --st.observes_pending;
    st.observed_ns = Now();
    MaybeComplete(a);
  }
  waiting.clear();
}

void StormEpisode::MaybeComplete(std::size_t a) {
  AppState& st = state_[a];
  if (st.phase != Phase::kDeploying || st.committed_ns < 0 ||
      st.observes_pending > 0) {
    return;
  }
  const App& app = in_.apps[a];
  const std::int64_t now = Now();
  st.phase = Phase::kLive;
  --unresolved_;
  const std::int64_t due = origin_ns_ + app.due_ns;
  const std::int64_t observed = std::max(st.placed_ns, st.observed_ns);
  if (Measured(a)) {
    ++deployed_;
    deploy_ms_.Add(static_cast<double>(now - due) / 1e6);
    commit_ms_.Add(static_cast<double>(st.committed_ns - st.put_ns) / 1e6);
    observe_ms_.Add(static_cast<double>(observed - st.placed_ns) / 1e6);
  }
  spans_.AddSimSpan(app.path == Path::kApi ? "net.rpc" : "mirto.negotiate",
                    app.path == Path::kApi ? Layer::kNet : Layer::kMirto,
                    Trace(a), due, st.placed_ns);
  spans_.AddSimSpan("kb.commit", Layer::kKb, Trace(a), st.put_ns,
                    st.committed_ns);
  spans_.AddSimSpan("mirto.observe", Layer::kMirto, Trace(a), st.placed_ns,
                    observed);
  // Apps whose lifetime outlasts the arrivals stay deployed to the end.
  const std::int64_t teardown = now + app.lifetime_ns;
  if (teardown < origin_ns_ + in_.end_ns) {
    engine_.ScheduleAt(sim::SimTime::Nanos(teardown), [this, a] { TearDown(a); });
  }
}

void StormEpisode::TearDown(std::size_t a) {
  const App& app = in_.apps[a];
  AppState& st = state_[a];
  st.phase = Phase::kTearingDown;
  ++unresolved_;
  if (app.path == Path::kApi) {
    ScopedSpan span(spans_, "net.call", Layer::kNet, Trace(a));
    network_->Call(kClient, mirto::MirtoEngine::AgentHost(app.api_layer),
                   "mirto.undeploy", app.undeploy,
                   [this, a](util::StatusOr<util::Json> reply) {
                     if (!reply.ok()) {
                       Fail(in_.apps[a].id +
                            ": undeploy failed: " + reply.status().ToString());
                     }
                     DeleteRecord(a);
                   });
    return;
  }
  // The program has no undeploy for negotiated apps: remove each pod from
  // the cluster that won it and its workload record from that layer's KB.
  for (std::size_t p = 0; p < app.pods.size(); ++p) {
    if (st.pod_layer[p] < 0) {
      Fail(app.pods[p] + ": live app has a pod with no recorded binding");
      continue;
    }
    const auto layer = static_cast<continuum::Layer>(st.pod_layer[p]);
    {
      ScopedSpan span(spans_, "sched.delete_pod", Layer::kSched, Trace(a));
      if (const util::Status deleted = mirto_->cluster(layer).DeletePod(app.pods[p]);
          !deleted.ok()) {
        Fail(app.pods[p] + ": delete failed: " + deleted.ToString());
      }
    }
    ScopedSpan span(spans_, "kb.delete", Layer::kKb, Trace(a));
    mirto_->kb(layer).Delete(kb::ResourceRegistry::WorkloadKey(app.pods[p]));
  }
  DeleteRecord(a);
}

void StormEpisode::DeleteRecord(std::size_t a) {
  ScopedSpan span(spans_, "kb.delete", Layer::kKb, Trace(a));
  ++kb_writes_;
  client_->Delete(kRecordPrefix + in_.apps[a].id, [this, a](util::Status s) {
    if (!s.ok()) Fail(in_.apps[a].id + ": KB delete failed: " + s.ToString());
    state_[a].phase = Phase::kGone;
    --unresolved_;
  });
}

void StormEpisode::RemoveLeftovers(std::size_t a) {
  // A refused or failed deployment may have bound some pods before it
  // stopped; nothing of it may stay behind.
  for (const std::string& pod : in_.apps[a].pods) {
    for (const continuum::Layer layer : kContinuumLayers) {
      if (mirto_->cluster(layer).FindPod(pod).valid()) {
        util::MustOk(mirto_->cluster(layer).DeletePod(pod));
      }
      mirto_->kb(layer).Delete(kb::ResourceRegistry::WorkloadKey(pod));
    }
  }
}

void StormEpisode::SampleLoad() {
  std::size_t pending = 0;
  double allocated = 0.0;
  double capacity = 0.0;
  for (const continuum::Layer layer : kContinuumLayers) {
    sched::Cluster& cluster = mirto_->cluster(layer);
    pending += cluster.PendingPods();
    for (const sched::NodeState* node : cluster.NodeStates()) {
      allocated += node->cpu_allocated();
      capacity += node->cpu_capacity();
    }
  }
  pending_pods_max_ = std::max(pending_pods_max_, pending);
  if (capacity > 0.0) cpu_ratio_max_ = std::max(cpu_ratio_max_, allocated / capacity);
}

StormEpisode::Snapshot StormEpisode::Take() {
  Snapshot s;
  s.messages = network_->messages_delivered();
  s.bytes = network_->bytes_sent();
  s.dropped = network_->messages_dropped();
  s.retries = network_->retries();
  s.kb_retries = client_->retries();
  for (const continuum::Layer layer : kContinuumLayers) {
    s.evictions += mirto_->cluster(layer).evictions();
    s.reschedules += mirto_->cluster(layer).reschedules();
    const mirto::AgentStats& stats = mirto_->agent(layer).stats();
    s.mape += stats.mape_iterations;
    s.observed += stats.nodes_observed;
    s.slo_publishes += stats.slo_publishes;
  }
  s.bids = mirto_->negotiation_stats().bids_received;
  s.awards = mirto_->negotiation_stats().awards;
  const telemetry::Tracer& tracer = telemetry::Global().tracer;
  s.spans_dropped = tracer.dropped_spans();
  s.spans = tracer.finished().size() + s.spans_dropped;
  s.energy_mj = mirto_->TotalEnergyMj();
  return s;
}

void StormEpisode::Check() {
  std::size_t bad_tokens = 0;
  for (std::size_t a = 0; a < in_.apps.size(); ++a) {
    const App& app = in_.apps[a];
    const AppState& st = state_[a];
    if (a >= next_arrival_) break;
    const std::string key = kRecordPrefix + app.id;
    if (app.fault == Fault::kBadToken) {
      ++bad_tokens;
      if (st.outcome != util::StatusCode::kUnauthenticated) {
        Fail(app.id + ": forged token not refused with UNAUTHENTICATED");
      }
    } else if (app.fault == Fault::kInvalidTemplate &&
               st.outcome != util::StatusCode::kInvalidArgument) {
      Fail(app.id + ": invalid template not refused with INVALID_ARGUMENT");
    }
    if (st.phase == Phase::kLive) {
      for (std::size_t p = 0; p < app.pods.size(); ++p) {
        const sched::PodView pod =
            st.pod_layer[p] < 0
                ? sched::PodView()
                : mirto_->cluster(static_cast<continuum::Layer>(st.pod_layer[p]))
                      .FindPod(app.pods[p]);
        if (!pod.valid() || pod.phase() != sched::PodPhase::kRunning) {
          Fail(app.pods[p] + ": accepted app has a pod that is not Running");
        }
      }
      for (std::size_t r = 0; r < kb_->size(); ++r) {
        if (!kb_->replica(r).store->Get(key).ok()) {
          Fail(app.id + ": record missing on replica " + std::to_string(r));
        }
      }
    } else if (st.phase == Phase::kGone || st.phase == Phase::kRefused ||
               st.phase == Phase::kFailed) {
      for (const std::string& pod : app.pods) {
        for (const continuum::Layer layer : kContinuumLayers) {
          if (mirto_->cluster(layer).FindPod(pod).valid() ||
              mirto_->kb(layer).Get(kb::ResourceRegistry::WorkloadKey(pod)).ok()) {
            Fail(pod + ": left behind by a removed or refused app");
          }
        }
      }
      for (std::size_t r = 0; r < kb_->size(); ++r) {
        if (kb_->replica(r).store->Get(key).ok()) {
          Fail(app.id + ": record of a removed or refused app on replica " +
               std::to_string(r));
        }
      }
    } else {
      Fail(app.id + ": still unresolved after the settle");
    }
  }
  std::uint64_t auth_rejects = 0;
  for (const continuum::Layer layer : kContinuumLayers) {
    auth_rejects += mirto_->agent(layer).stats().auth_failures;
  }
  if (auth_rejects != bad_tokens) {
    Fail("auth rejects " + std::to_string(auth_rejects) + " != forged tokens " +
         std::to_string(bad_tokens));
  }
  const std::vector<kb::KeyValue> reference = kb_->replica(0).store->Range("");
  for (std::size_t r = 1; r < kb_->size(); ++r) {
    const std::vector<kb::KeyValue> other = kb_->replica(r).store->Range("");
    bool same = other.size() == reference.size();
    for (std::size_t i = 0; same && i < other.size(); ++i) {
      same = other[i].key == reference[i].key &&
             other[i].mod_revision == reference[i].mod_revision &&
             other[i].value == reference[i].value;
    }
    if (!same) Fail("KB replica " + std::to_string(r) + " differs from replica 0");
  }
  if (cpu_ratio_max_ > kCpuCeiling) {
    Fail("cluster CPU reached " + std::to_string(cpu_ratio_max_) +
         " of capacity, above the design ceiling");
  }
}

EpisodeResult StormEpisode::Run() {
  EpisodeResult result;
  const std::int64_t setup_start = HostNowNs();
  Build();
  // Warm-up: one mean lifetime of arrivals, so the measured windows see the
  // steady-state population of live apps.
  engine_.RunUntil(sim::SimTime::Nanos(origin_ns_ + in_.warmup_ns));
  result.setup_s = static_cast<double>(HostNowNs() - setup_start) / 1e9;

  const Snapshot before = Take();
  result.windows = RunWindows(engine_, spans_, in_.windows, traced_, [this] { SampleLoad(); });
  const Snapshot after = Take();
  std::size_t running = 0;
  for (const continuum::Layer layer : kContinuumLayers) {
    running += mirto_->cluster(layer).RunningPods();
  }
  std::uint64_t log_entries = 0;
  std::int64_t term = 0;
  for (std::size_t r = 0; r < kb_->size(); ++r) {
    log_entries = std::max<std::uint64_t>(log_entries,
                                          kb_->replica(r).raft->log_size());
    term = std::max(term, kb_->replica(r).raft->current_term());
  }

  if (!SettleUntil(engine_, sim::SimTime::Seconds(30),
                   [this] { return unresolved_ == 0; })) {
    Fail(std::to_string(unresolved_) + " deployments unresolved 30 sim-s after "
         "the last arrival");
  }
  engine_.RunUntil(engine_.Now() + sim::SimTime::Seconds(1));  // followers apply
  Check();

  std::uint64_t auth_rejects = 0;
  for (const continuum::Layer layer : kContinuumLayers) {
    auth_rejects += mirto_->agent(layer).stats().auth_failures;
  }
  result.op = "deploy";
  result.op_sim_ms = deploy_ms_;
  result.miss_ratio_name = "deploy_fail_ratio";
  result.attempted = valid_attempts_;
  result.failed = valid_attempts_ - deployed_;
  result.op_ok_ratio = valid_attempts_ == 0
                           ? 0.0
                           : static_cast<double>(deployed_) /
                                 static_cast<double>(valid_attempts_);
  std::vector<Metric>& c = result.counts;
  c.push_back({"net.messages", Delta(before.messages, after.messages), "count"});
  c.push_back({"net.bytes", Delta(before.bytes, after.bytes), "bytes"});
  c.push_back({"net.dropped", Delta(before.dropped, after.dropped), "count"});
  c.push_back({"net.retries", Delta(before.retries, after.retries), "count"});
  AddPercentiles(c, "net.rpc_sim_ms", rpc_ms_, "ms");
  c.push_back({"security.auth_rejects", static_cast<double>(auth_rejects), "count"});
  c.push_back({"tosca.rejects", static_cast<double>(invalid_refusals_), "count"});
  c.push_back({"tosca.csar_bytes_mean", in_.csar_bytes_mean, "bytes"});
  c.push_back({"kb.writes", static_cast<double>(kb_writes_), "count"});
  AddPercentiles(c, "kb.commit_sim_ms", commit_ms_, "ms");
  c.push_back({"kb.client_retries", Delta(before.kb_retries, after.kb_retries), "count"});
  c.push_back({"kb.raft_log_entries", static_cast<double>(log_entries), "count"});
  c.push_back({"kb.raft_term", static_cast<double>(term), "count"});
  c.push_back({"sched.running_pods", static_cast<double>(running), "count"});
  c.push_back({"sched.pending_pods_max", static_cast<double>(pending_pods_max_), "count"});
  c.push_back({"sched.evictions", Delta(before.evictions, after.evictions), "count"});
  c.push_back({"sched.reschedules", Delta(before.reschedules, after.reschedules), "count"});
  c.push_back({"mirto.mape_iterations", Delta(before.mape, after.mape), "count"});
  c.push_back({"mirto.nodes_observed_per_iter",
               Delta(before.observed, after.observed) /
                   std::max(1.0, Delta(before.mape, after.mape)),
               "count"});
  c.push_back({"mirto.slo_publishes", Delta(before.slo_publishes, after.slo_publishes), "count"});
  const double bids = Delta(before.bids, after.bids);
  const double awards = Delta(before.awards, after.awards);
  c.push_back({"mirto.bids", bids, "count"});
  c.push_back({"mirto.awards", awards, "count"});
  c.push_back({"mirto.bid_useful_ratio", bids > 0 ? awards / bids : 0.0, "ratio"});
  AddPercentiles(c, "mirto.negotiate_sim_ms", negotiate_ms_, "ms");
  c.push_back({"mirto.observe_sim_ms_p50", observe_ms_.p50(), "ms", observe_ms_.count()});
  c.push_back({"continuum.nodes", static_cast<double>(infra_.nodes.size()), "count"});
  c.push_back({"continuum.energy_mj", after.energy_mj - before.energy_mj, "mJ"});
  c.push_back({"telemetry.spans", Delta(before.spans, after.spans), "count"});
  c.push_back({"telemetry.spans_dropped", Delta(before.spans_dropped, after.spans_dropped), "count"});
  result.failures = std::move(failures_);
  result.spans = spans_.Take();
  return result;
}

}  // namespace

EpisodeRunner PrepareDeployStorm(std::uint64_t seed, bool smoke) {
  std::shared_ptr<const Inputs> inputs = Generate(seed, smoke);
  return [inputs](bool traced) {
    StormEpisode episode(*inputs, traced);
    return episode.Run();
  };
}

}  // namespace myrtus::e2e
