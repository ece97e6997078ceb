// Experiment T1 (paper Table I): the EU-CEI building blocks and their MYRTUS
// implementations. One benchmark per building block exercising the
// implementing subsystem, plus the DPE as the ninth block MYRTUS contributes.
// The printed table is the functional coverage matrix.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "dpe/pipeline.hpp"
#include "kb/cluster.hpp"
#include "mirto/agent.hpp"
#include "net/pubsub.hpp"
#include "oracle/sched_oracle.hpp"
#include "security/channel.hpp"
#include "swarm/placement.hpp"
#include "telemetry/telemetry.hpp"
#include "usecases/scenario.hpp"
#include "util/units.hpp"

using namespace myrtus;

namespace {

void PrintCoverage(bench::Report& report) {
  std::printf("=== Table I: EU-CEI building blocks -> MYRTUS implementation ===\n");
  const struct {
    const char* block;
    const char* implementation;
  } rows[] = {
      {"Security and Privacy", "security:: real AES/ASCON/SHA suites, SecureChannel, Table II policy"},
      {"Trust and Reputation", "mirto::PrivacySecurityManager runtime trust + veto"},
      {"Data management", "kb::Store MVCC + ResourceRegistry telemetry, layered storage"},
      {"Resource management", "sched:: kube-like cluster (filter/score/bind, reconcile)"},
      {"Orchestration", "mirto:: MAPE-K agents + contract-net + swarm placement"},
      {"Network", "net:: topology/transport/HTTP-MQTT-CoAP + pubsub gateway"},
      {"Monitoring & Observability", "continuum:: PMCs -> kb registry telemetry via MIRTO Monitor"},
      {"Artificial Intelligence", "swarm:: PSO/ACO/GA + fl:: FedAvg operating-point models"},
      {"(+) Design & Programming Env", "dpe:: SDF IR, DSE, ADT, CSAR deployment specs"},
  };
  for (const auto& row : rows) {
    std::printf("  %-28s | %s\n", row.block, row.implementation);
  }
  report.AddMetric("building_blocks_covered",
                   static_cast<double>(std::size(rows)), "blocks",
                   /*higher_is_better=*/true);
  std::printf("\n");
}

// --- Security and Privacy ---------------------------------------------------
void BM_BB_SecurityChannel(benchmark::State& state) {
  util::Rng rng(1);
  auto pair = security::SecureChannel::Establish(security::SecurityLevel::kMedium, rng);
  util::MustOk(pair);
  const util::Bytes msg(512, 0x42);
  for (auto _ : state) {
    auto sealed = pair->initiator.Seal(msg);
    util::MustOk(sealed);
    benchmark::DoNotOptimize(pair->responder.Open(*sealed));
  }
}
BENCHMARK(BM_BB_SecurityChannel);

// --- Trust and Reputation -----------------------------------------------------
// Slot-addressed, as the MAPE agent records outcomes: the node ids are
// resolved to trust slots once, outside the timed loop.
void BM_BB_TrustUpdates(benchmark::State& state) {
  mirto::PrivacySecurityManager psm;
  std::vector<mirto::TrustSlot> slots;
  for (int n = 0; n < 64; ++n) {
    slots.push_back(psm.Slot("node-" + std::to_string(n)));
  }
  util::Rng rng(2);
  std::uint64_t i = 0;
  for (auto _ : state) {
    psm.RecordOutcome(slots[i % slots.size()], rng.NextBool(0.9), i);
    ++i;
    benchmark::DoNotOptimize(psm.TrustOf(slots[0]));
  }
}
BENCHMARK(BM_BB_TrustUpdates);

// --- Data management ----------------------------------------------------------
void BM_BB_KbStoreOps(benchmark::State& state) {
  kb::Store store;
  int i = 0;
  for (auto _ : state) {
    const std::string key = "/registry/nodes/n" + std::to_string(i % 256);
    store.Put(key, util::Json::MakeObject().Set("seq", i));
    benchmark::DoNotOptimize(store.Get(key));
    ++i;
  }
  state.counters["revision"] = static_cast<double>(store.revision());
}
BENCHMARK(BM_BB_KbStoreOps);

// --- Resource management --------------------------------------------------------
// The full filter -> score pipeline over every node: the oracle's scan from
// tests/oracle/, the reference the indexed scheduler is checked against.
void BM_BB_SchedulerPipeline(benchmark::State& state) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  sched::PodSpec pod;
  pod.name = "probe";
  pod.cpu_request = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle::ScanSchedule({}, pod, cluster.NodeStates()));
  }
}
BENCHMARK(BM_BB_SchedulerPipeline);

// The same fleet and pod through the production path: the NodeIndex's
// ranked class for the pod's shape, which no bind changes here, so each
// call reads the ranking's root. Reports candidates ranked per second.
void BM_BB_SchedulerIndexed(benchmark::State& state) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  sched::Scheduler scheduler = sched::Scheduler::Default();
  sched::PodSpec pod;
  pod.name = "probe";
  pod.cpu_request = 0.5;
  std::uint64_t candidates = 0;
  for (auto _ : state) {
    auto result = scheduler.Schedule(pod, cluster.index());
    util::MustOk(result);
    candidates += result->nodes_considered;
    benchmark::DoNotOptimize(result);
  }
  state.counters["candidates_per_s"] = benchmark::Counter(
      static_cast<double>(candidates), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BB_SchedulerIndexed);

// The production path's failure: a pod no node of the default fleet fits.
// Its ranking holds no candidate (every node is short on cpu), so the
// failure walk writes each node's reason into the RESOURCE_EXHAUSTED message.
void BM_BB_SchedulerExhausted(benchmark::State& state) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  sched::Scheduler scheduler = sched::Scheduler::Default();
  sched::PodSpec pod;
  pod.name = "probe";
  pod.cpu_request = 1e6;
  for (auto _ : state) {
    auto result = scheduler.Schedule(pod, cluster.index());
    if (result.ok()) state.SkipWithError("a pod sized past the fleet fit");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BB_SchedulerExhausted);

// A reconcile-style batch: N same-shape pods bound one after another on the
// default fleet, each bind changing one node's allocation columns, so each
// placement replays that one slot in the cached ranking. The batch is
// deleted, untimed, before the next. Reports ns per bind.
void BM_BB_SchedulerSameShapeBatch(benchmark::State& state) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::vector<std::string> names;
  std::uint64_t serial = 0;
  std::int64_t bind_ns = 0;
  std::uint64_t binds = 0;
  for (auto _ : state) {
    names.clear();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch; ++i) {
      sched::PodSpec pod;
      pod.name = "batch-" + std::to_string(serial++);
      pod.cpu_request = 0.25;
      pod.mem_request_mb = 64;
      util::MustOk(cluster.BindPod(pod));
      names.push_back(std::move(pod.name));
    }
    bind_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    binds += batch;
    state.PauseTiming();
    for (const std::string& name : names) util::MustOk(cluster.DeletePod(name));
    state.ResumeTiming();
  }
  state.counters["ns_per_bind"] =
      binds == 0 ? 0.0
                 : static_cast<double>(bind_ns) / static_cast<double>(binds);
}
BENCHMARK(BM_BB_SchedulerSameShapeBatch)->Arg(64);

// --- Orchestration ---------------------------------------------------------------
void BM_BB_PlacementPlanning(benchmark::State& state) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  mirto::WlManager wl(cluster, mirto::PlacementStrategy::kGreedy, 3);
  std::vector<sched::PodSpec> pods(6);
  for (std::size_t i = 0; i < pods.size(); ++i) {
    pods[i].name = "wl-" + std::to_string(i);
    pods[i].cpu_request = 0.4;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl.PlanPlacement(pods, {}, {}));
  }
}
BENCHMARK(BM_BB_PlacementPlanning);

// --- Network -----------------------------------------------------------------------
void BM_BB_NetworkRpc(benchmark::State& state) {
  sim::Engine engine;
  net::Topology topo;
  topo.AddBidirectional("a", "b", sim::SimTime::Millis(1), 1e9);
  net::Network network(engine, std::move(topo), 4);
  network.RegisterRpc("b", "echo",
                      [](const net::HostId&, const util::Json& req)
                          -> util::StatusOr<util::Json> { return req; });
  for (auto _ : state) {
    bool done = false;
    network.Call("a", "b", "echo", util::Json(1),
                 [&](util::StatusOr<util::Json>) { done = true; });
    engine.Run();
    benchmark::DoNotOptimize(done);
  }
  state.counters["sim_msgs"] = static_cast<double>(network.messages_delivered());
}
BENCHMARK(BM_BB_NetworkRpc);

// One RPC round trip edge -> fog -> cloud while a bulk frame holds the
// fog -> cloud link, so the request waits in that link's queue.
void BM_BB_NetworkRpcMultiHop(benchmark::State& state) {
  sim::Engine engine;
  net::Topology topo;
  topo.AddBidirectional("edge", "fog", sim::SimTime::Millis(1), 1e9);
  topo.AddBidirectional("fog", "cloud", sim::SimTime::Millis(10), 1e8);
  net::Network network(engine, std::move(topo), 4);
  network.Attach("cloud", [](const net::Message&) {});
  network.RegisterRpc("cloud", "echo",
                      [](const net::HostId&, const util::Json& req)
                          -> util::StatusOr<util::Json> { return req; });
  const util::Json request =
      util::Json::MakeObject().Set("pod", "app/stage-1").Set("cpu", 0.5);
  for (auto _ : state) {
    // 125 kB at 100 Mb/s: the link is busy for 10 ms.
    util::MustOk(network.Send(net::Message{.from = "fog",
                                           .to = "cloud",
                                           .kind = "bulk",
                                           .payload = {},
                                           .body_bytes = 125'000}));
    bool done = false;
    network.Call("edge", "cloud", "echo", request,
                 [&](util::StatusOr<util::Json> reply) { done = reply.ok(); });
    engine.Run();
    if (!done) {
      state.SkipWithError("the round trip failed");
      break;
    }
  }
  state.counters["sim_msgs"] = static_cast<double>(network.messages_delivered());
}
BENCHMARK(BM_BB_NetworkRpcMultiHop);

void BM_BB_PubSubFanout(benchmark::State& state) {
  const int subscribers = static_cast<int>(state.range(0));
  sim::Engine engine;
  net::Topology topo;
  for (int i = 0; i < subscribers; ++i) {
    topo.AddBidirectional("sub-" + std::to_string(i), "gw",
                          sim::SimTime::Millis(1), 1e8);
  }
  topo.AddBidirectional("sensor", "gw", sim::SimTime::Millis(1), 1e8);
  net::Network network(engine, std::move(topo), 5);
  net::Broker broker(network, "gw");
  int events = 0;
  for (int i = 0; i < subscribers; ++i) {
    broker.Subscribe("sub-" + std::to_string(i), "telemetry/#",
                     [&](const std::string&, const util::Json&) { ++events; });
  }
  for (auto _ : state) {
    broker.Publish("sensor", "telemetry/t", util::Json(21.5));
    engine.Run();
  }
  benchmark::DoNotOptimize(events);
}
BENCHMARK(BM_BB_PubSubFanout)->Arg(4)->Arg(32)->ArgNames({"subs"});

// --- Monitoring & Observability -------------------------------------------------------
// One MAPE iteration after k nodes changed (whole_fleet=0: k = 1, 1: k = every
// node). The event-driven Monitor observes exactly those k, each observation
// writing the node record and its utilization and queue_depth samples into
// the KB registry; an unchanged fleet would time an idle loop.
// s_per_node_observed is the iteration's host time over the k nodes, so the
// loop's fixed cost is spread over them.
void BM_BB_MonitorSampling(benchmark::State& state) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  net::Network network(engine, infra.topology, 6);
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  kb::Store store;
  mirto::AgentConfig config;
  config.host = "gw-0";
  mirto::MirtoAgent agent(network, cluster, infra, store,
                          mirto::AuthModule(util::BytesOf("x")), config);
  const std::size_t changed = state.range(0) != 0 ? infra.nodes.size() : 1;
  // Settle first: a fresh agent observes the whole fleet, and its first
  // Execute moves idle devices to their eco operating point, which marks
  // those nodes changed again.
  std::uint64_t observed_before = 0;
  do {
    observed_before = agent.stats().nodes_observed;
    agent.RunMapeIteration();
  } while (agent.stats().nodes_observed != observed_before);
  for (auto _ : state) {
    for (std::size_t i = 0; i < changed; ++i) infra.nodes[i]->MarkChanged();
    agent.RunMapeIteration();
  }
  const std::uint64_t observed =
      util::SubSat(agent.stats().nodes_observed, observed_before);
  if (observed != changed * state.iterations()) {
    state.SkipWithError("the Monitor observed other nodes than the changed ones");
  }
  state.counters["nodes_observed_per_iter"] =
      static_cast<double>(observed) / static_cast<double>(state.iterations());
  state.counters["s_per_node_observed"] =
      benchmark::Counter(static_cast<double>(observed),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["registry_keys"] = static_cast<double>(store.size());
}
BENCHMARK(BM_BB_MonitorSampling)->Arg(0)->Arg(1)->ArgNames({"whole_fleet"});

/// Host ns for one ScopedSpan start+end on the global tracer: wrapped=0 keeps
/// the span ring below its default capacity (appending; the ring restarts
/// outside the timed region before it fills), wrapped=1 runs it full at 64
/// slots so every span overwrites the oldest.
void BM_BB_TracerSpan(benchmark::State& state) {
  const bool wrapped = state.range(0) != 0;
  telemetry::ResetGlobal();
  telemetry::SetEnabled(true);
  telemetry::Tracer& tracer = telemetry::Global().tracer;
  if (wrapped) tracer.set_span_capacity(64);
  for (auto _ : state) {
    if (!wrapped &&
        tracer.finished().size() + 1 == tracer.finished().capacity()) {
      state.PauseTiming();
      tracer.set_span_capacity(telemetry::SpanRing::kDefaultCapacity);
      state.ResumeTiming();
    }
    telemetry::ScopedSpan span("bb.span", "bench");
  }
  telemetry::SetEnabled(false);
  telemetry::ResetGlobal();
}
BENCHMARK(BM_BB_TracerSpan)->Arg(0)->Arg(1)->ArgNames({"wrapped"});

// --- Artificial Intelligence ------------------------------------------------------------
void BM_BB_SwarmPlacementSolve(benchmark::State& state) {
  swarm::PlacementProblem problem;
  util::Rng setup(7);
  for (int i = 0; i < 10; ++i) {
    problem.tasks.push_back({setup.Uniform(0.2, 1.5), 128, 0, false, 50});
  }
  for (int i = 0; i < 6; ++i) {
    problem.nodes.push_back({"n" + std::to_string(i), 8, 8192, 2, true,
                             setup.Uniform(200, 900), setup.Uniform(1, 30)});
  }
  util::Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(swarm::SolvePso(problem, rng, 16, 20));
  }
}
BENCHMARK(BM_BB_SwarmPlacementSolve);

// --- Network (slicing + gateway aggregation) ------------------------------------------
void BM_BB_PrioritySlicing(benchmark::State& state) {
  // Wall cost of pushing a control frame through a bulk-congested link.
  for (auto _ : state) {
    sim::Engine engine;
    net::Topology t;
    t.AddLink(net::Link{"a", "b", sim::SimTime::Zero(), 1e6, 0.0, {}});
    net::Network network(engine, std::move(t), 4);
    network.Attach("b", [](const net::Message&) {});
    for (int i = 0; i < 32; ++i) {
      net::Message bulk{.from = "a",
                        .to = "b",
                        .kind = "bulk",
                        .payload = {},
                        .body_bytes = 1000};
      util::MustOk(network.Send(std::move(bulk)));
    }
    net::Message control;
    control.from = "a";
    control.to = "b";
    control.kind = "control";
    control.priority = 2;
    control.body_bytes = 64;
    util::MustOk(network.Send(std::move(control)));
    engine.Run();
    benchmark::DoNotOptimize(network.messages_delivered());
  }
}
BENCHMARK(BM_BB_PrioritySlicing);

// --- The DPE as MYRTUS's additional building block ----------------------------------------
void BM_BB_DpeEndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    dpe::DpeInput input;
    input.app_name = "bb-app";
    util::Rng gen(42);
    input.graph = dpe::RandomPipeline(8, gen);
    dpe::DpePipeline pipeline(9);
    benchmark::DoNotOptimize(pipeline.Run(input));
  }
}
BENCHMARK(BM_BB_DpeEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = bench::StripValueFlag(argc, argv, "--out=", "");
  bench::Report report("T1_building_blocks", "building_blocks");
  PrintCoverage(report);
  util::MustOk(report.Write(out_path));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
