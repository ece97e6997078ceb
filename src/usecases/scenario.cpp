#include "usecases/scenario.hpp"

#include <algorithm>

namespace myrtus::usecases {
namespace {

std::unique_ptr<dpe::AdtNode> MobilityThreats() {
  std::vector<std::unique_ptr<dpe::AdtNode>> spoof_children;
  spoof_children.push_back(dpe::AdtNode::Leaf("intercept_v2x", 0.6));
  spoof_children.push_back(dpe::AdtNode::Leaf("forge_messages", 0.5));
  auto spoof = dpe::AdtNode::And("spoof_traffic_data", std::move(spoof_children));
  spoof->AddDefence({"sign_v2x", 1.0, 0.15, "security-level:medium"});

  auto jam = dpe::AdtNode::Leaf("jam_uplink", 0.2);
  jam->AddDefence({"frequency_hopping", 1.5, 0.4, "enable:channel-agility"});

  std::vector<std::unique_ptr<dpe::AdtNode>> root_children;
  root_children.push_back(std::move(spoof));
  root_children.push_back(std::move(jam));
  return dpe::AdtNode::Or("disrupt_mobility", std::move(root_children));
}

std::unique_ptr<dpe::AdtNode> TelerehabThreats() {
  std::vector<std::unique_ptr<dpe::AdtNode>> leak_children;
  leak_children.push_back(dpe::AdtNode::Leaf("sniff_session", 0.7));
  leak_children.push_back(dpe::AdtNode::Leaf("break_weak_crypto", 0.6));
  auto leak = dpe::AdtNode::And("exfiltrate_patient_data", std::move(leak_children));
  leak->AddDefence({"pq_channel", 2.0, 0.1, "security-level:high"});

  auto insider = dpe::AdtNode::Leaf("insider_access", 0.15);
  insider->AddDefence({"audit_log", 0.5, 0.5, "enable:audit-trail"});

  std::vector<std::unique_ptr<dpe::AdtNode>> root_children;
  root_children.push_back(std::move(leak));
  root_children.push_back(std::move(insider));
  return dpe::AdtNode::Or("steal_health_data", std::move(root_children));
}

continuum::TaskDemand Demand(std::uint64_t cycles, std::uint64_t in_bytes,
                             std::uint64_t out_bytes, bool accelerable,
                             double parallel) {
  continuum::TaskDemand d;
  d.cycles = cycles;
  d.bytes_in = in_bytes;
  d.bytes_out = out_bytes;
  d.accelerable = accelerable;
  d.parallel_fraction = parallel;
  return d;
}

}  // namespace

Scenario SmartMobilityScenario() {
  Scenario s;
  s.name = "smart-mobility";
  s.source_host = "edge-0";  // vehicle-side sensor node
  s.arrival_rate_hz = 30.0;  // camera/lidar frame rate
  s.deadline_ms = 150.0;     // perception-to-plan budget

  // DPE application model.
  s.dpe_input.app_name = s.name;
  util::MustOk(s.dpe_input.graph.AddActor({"fuse_sensors", 4'000'000, 32768, false, 0.4}));
  util::MustOk(s.dpe_input.graph.AddActor({"detect_objects", 60'000'000, 1 << 20, true, 0.9}));
  util::MustOk(s.dpe_input.graph.AddActor({"plan_trajectory", 12'000'000, 65536, false, 0.3}));
  util::MustOk(s.dpe_input.graph.AddActor({"v2x_uplink", 1'000'000, 8192, false, 0.0}));
  util::MustOk(s.dpe_input.graph.AddChannel({"fuse_sensors", "detect_objects", 1, 1, 262144}));
  util::MustOk(s.dpe_input.graph.AddChannel({"detect_objects", "plan_trajectory", 1, 1, 16384}));
  util::MustOk(s.dpe_input.graph.AddChannel({"detect_objects", "v2x_uplink", 1, 1, 4096}));
  s.dpe_input.deadline_ms = s.deadline_ms;
  s.dpe_input.security_level = "low";
  s.threat_model = MobilityThreats();
  s.dpe_input.threat_model = s.threat_model.get();

  // Runtime stages. Perception must sit at the edge (latency); planning can
  // ride fog; the uplink archive is elastic.
  Stage fuse{"fuse", Demand(4'000'000, 131072, 65536, false, 0.4), 65536,
             security::SecurityLevel::kLow, "edge", 0.4, 64};
  Stage detect{"detect", Demand(60'000'000, 65536, 16384, true, 0.9), 16384,
               security::SecurityLevel::kLow, "edge", 1.2, 256};
  Stage plan{"plan", Demand(12'000'000, 16384, 4096, false, 0.3), 4096,
             security::SecurityLevel::kMedium, "", 0.6, 128};
  Stage uplink{"uplink", Demand(1'000'000, 4096, 1024, false, 0.0), 1024,
               security::SecurityLevel::kMedium, "", 0.2, 32};
  s.stages = {fuse, detect, plan, uplink};
  return s;
}

Scenario TelerehabScenario() {
  Scenario s;
  s.name = "telerehab";
  s.source_host = "edge-1";  // patient-side camera node
  s.arrival_rate_hz = 15.0;
  s.deadline_ms = 250.0;  // perceptible-but-tolerable feedback latency

  s.dpe_input.app_name = s.name;
  util::MustOk(s.dpe_input.graph.AddActor({"pose_estimation", 45'000'000, 1 << 19, true, 0.85}));
  util::MustOk(s.dpe_input.graph.AddActor({"exercise_scoring", 8'000'000, 65536, false, 0.2}));
  util::MustOk(s.dpe_input.graph.AddActor({"feedback", 1'500'000, 4096, false, 0.0}));
  util::MustOk(s.dpe_input.graph.AddActor({"session_archive", 3'000'000, 1 << 22, false, 0.1}));
  util::MustOk(s.dpe_input.graph.AddChannel({"pose_estimation", "exercise_scoring", 1, 1, 32768}));
  util::MustOk(s.dpe_input.graph.AddChannel({"exercise_scoring", "feedback", 1, 1, 512}));
  util::MustOk(s.dpe_input.graph.AddChannel({"exercise_scoring", "session_archive", 1, 1, 16384}));
  s.dpe_input.deadline_ms = s.deadline_ms;
  s.dpe_input.security_level = "medium";  // health data floor
  s.threat_model = TelerehabThreats();
  s.dpe_input.threat_model = s.threat_model.get();

  Stage pose{"pose", Demand(45'000'000, 131072, 32768, true, 0.85), 32768,
             security::SecurityLevel::kLow, "edge", 1.0, 256};
  Stage score{"score", Demand(8'000'000, 32768, 512, false, 0.2), 512,
              security::SecurityLevel::kMedium, "", 0.5, 128};
  Stage feedback{"feedback", Demand(1'500'000, 512, 256, false, 0.0), 256,
                 security::SecurityLevel::kLow, "edge", 0.2, 32};
  Stage archive{"archive", Demand(3'000'000, 16384, 0, false, 0.1), 0,
                security::SecurityLevel::kHigh, "", 0.3, 512};
  s.stages = {pose, score, feedback, archive};
  return s;
}

util::Status DeployScenario(Scenario& scenario, sched::Cluster& cluster,
                            std::uint64_t seed) {
  (void)seed;
  std::string failures;
  for (const Stage& stage : scenario.stages) {
    sched::PodSpec pod;
    pod.name = scenario.name + "/" + stage.pod_name;
    pod.cpu_request = stage.cpu_request;
    pod.mem_request_mb = stage.mem_request_mb;
    pod.min_security = stage.min_security;
    pod.needs_accelerator = stage.demand.accelerable;
    pod.layer_affinity = stage.layer_affinity;
    auto bound = cluster.BindPod(pod);
    if (!bound.ok()) {
      failures += pod.name + ": " + bound.status().message() + "; ";
    }
  }
  if (!failures.empty()) {
    return util::Status::ResourceExhausted("scenario deploy failed: " + failures);
  }
  return util::Status::Ok();
}

RequestPipeline::RequestPipeline(net::Network& network,
                                 continuum::Infrastructure& infra,
                                 sched::Cluster& cluster,
                                 const Scenario& scenario)
    : network_(network),
      infra_(infra),
      cluster_(cluster),
      scenario_(scenario),
      relay_method_("pipeline.continue/" + scenario.name),
      relay_method_id_(network.InternMethod(relay_method_)) {
  for (const Stage& stage : scenario.stages) {
    pod_names_.push_back(scenario.name + "/" + stage.pod_name);
  }
}

void RequestPipeline::LaunchRequest() {
  RunStage(0, scenario_.source_host, network_.engine().Now(),
           util::MilliJoules());
}

void RequestPipeline::StartStream(sim::SimTime until, std::uint64_t seed) {
  ScheduleArrival(until, std::make_shared<util::Rng>(seed, scenario_.name));
}

void RequestPipeline::ScheduleArrival(sim::SimTime until,
                                      const std::shared_ptr<util::Rng>& rng) {
  if (network_.engine().Now() >= until) return;
  const double gap_s = rng->NextExponential(scenario_.arrival_rate_hz);
  // Each pending arrival owns only the stream's Rng, so the stream holds no
  // reference cycle and frees with the engine's queue.
  network_.engine().ScheduleAfter(sim::SimTime::FromSeconds(gap_s),
                                  [this, until, rng] {
                                    LaunchRequest();
                                    ScheduleArrival(until, rng);
                                  });
}

void RequestPipeline::RunStage(std::size_t stage_index,
                               const std::string& at_host,
                               sim::SimTime started,
                               util::MilliJoules energy_acc) {
  if (stage_index >= scenario_.stages.size()) {
    Finish(started, energy_acc, true);
    return;
  }
  const Stage& stage = scenario_.stages[stage_index];
  // Looked up per stage: the pod may have been rebound since the last one.
  const sched::PodView pod = cluster_.FindPod(pod_names_[stage_index]);
  if (!pod || pod.phase() != sched::PodPhase::kRunning) {
    Finish(started, energy_acc, false);
    return;
  }
  continuum::ComputeNode* node = infra_.FindNode(pod.node_id());
  if (node == nullptr || !node->up()) {
    Finish(started, energy_acc, false);
    return;
  }
  const std::string target = pod.node_id();

  const auto compute = [this, stage_index, target, started, energy_acc,
                        node]() {
    // A shipped input can arrive after its target failed; Submit would drop
    // the task, so the request fails here instead of never finishing.
    if (!node->up()) {
      Finish(started, energy_acc, false);
      return;
    }
    const Stage& st = scenario_.stages[stage_index];
    node->Submit(st.demand, [this, stage_index, target, started,
                             energy_acc](const continuum::TaskReport& report) {
      RunStage(stage_index + 1, target, started,
               energy_acc + report.energy_mj);
    });
  };

  if (at_host == target) {
    compute();
    return;
  }
  // Ship the stage input over the network; the shared relay endpoint on the
  // target host resumes the pipeline on arrival.
  EnsureRelay(target);
  const std::uint64_t token = next_token_++;
  pending_[token] = compute;
  network_.Call(
      at_host, target, relay_method_id_,
      util::Json::MakeObject().Set("token", token),
      [this, started, energy_acc, token](util::StatusOr<util::Json> reply) {
        if (!reply.ok()) {
          pending_.erase(token);  // lost transfer: the request dies here
          Finish(started, energy_acc, false);
        }
      },
      sim::SimTime::Seconds(10), net::Protocol::kCoap,
      std::max<std::size_t>(stage.demand.bytes_in, 64));
}

void RequestPipeline::EnsureRelay(const std::string& host) {
  if (relay_hosts_.count(host) > 0) return;
  relay_hosts_.insert(host);
  network_.RegisterRpc(host, relay_method_,
                       [this](const net::HostId&, const util::Json& req)
                           -> util::StatusOr<util::Json> {
                         const auto token =
                             static_cast<std::uint64_t>(req.at("token").as_int());
                         const auto it = pending_.find(token);
                         if (it == pending_.end()) {
                           return util::Status::NotFound("stale pipeline token");
                         }
                         auto continuation = std::move(it->second);
                         pending_.erase(it);
                         continuation();
                         return util::Json(true);
                       });
}

void RequestPipeline::Finish(sim::SimTime started, util::MilliJoules energy,
                             bool ok) {
  if (!ok) {
    ++kpis_.failed;
    return;
  }
  ++kpis_.completed;
  const double latency_ms = (network_.engine().Now() - started).ToMillisF();
  kpis_.latency_ms.Add(latency_ms);
  kpis_.compute_energy_mj += energy.value();
  if (latency_ms > scenario_.deadline_ms) ++kpis_.violations;
}

}  // namespace myrtus::usecases
