// Experiment F3 (paper Fig. 3): the MIRTO Cognitive Engine agent and its
// MAPE-K orchestration loop. Measures (a) the sense→reconfigure reaction time
// after injected node failures, (b) KPI recovery (requests complete again
// after healing) vs a no-orchestrator baseline, and (c) the cost of one MAPE
// iteration as the fleet grows.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/report.hpp"
#include "mirto/agent.hpp"
#include "mirto/engine.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "usecases/scenario.hpp"

using namespace myrtus;

namespace {

struct World {
  sim::Engine engine;
  continuum::Infrastructure infra;
  std::unique_ptr<net::Network> network;
  sched::Cluster cluster;
  kb::Store kb_store;
  std::unique_ptr<mirto::MirtoAgent> agent;

  explicit World(int edge_scale = 1, bool with_agent = true)
      : infra(continuum::BuildInfrastructure(
            engine,
            continuum::InfrastructureSpec{.edge_hmpsoc = 2 * edge_scale,
                                          .edge_riscv = 2 * edge_scale,
                                          .edge_multicore = 2 * edge_scale})),
        cluster(engine, sched::Scheduler::Default()) {
    net::Topology topo = infra.topology;
    topo.AddBidirectional("mirto-0", "gw-0", sim::SimTime::Micros(200), 1e9);
    network = std::make_unique<net::Network>(engine, std::move(topo), 5);
    for (auto& n : infra.nodes) cluster.AddNode(n.get());
    if (with_agent) {
      mirto::AgentConfig config;
      config.host = "mirto-0";
      config.mape_period = sim::SimTime::Millis(250);
      agent = std::make_unique<mirto::MirtoAgent>(
          *network, cluster, infra, kb_store,
          mirto::AuthModule(util::BytesOf("bench")), config);
      agent->Start();
    }
  }
};

/// Reaction time: kill a pod-hosting node, measure sim-time until the pod
/// runs elsewhere.
double MeasureRecoveryMs(World& world, usecases::Scenario& scenario) {
  if (!usecases::DeployScenario(scenario, world.cluster, 1).ok()) return -1;
  world.engine.RunUntil(world.engine.Now() + sim::SimTime::Seconds(1));

  const sched::PodView detect =
      world.cluster.FindPod(scenario.name + "/" + scenario.stages[1].pod_name);
  if (!detect) return -1;
  const std::string victim = detect.node_id();
  world.infra.FindNode(victim)->SetUp(false);
  const sim::SimTime failed_at = world.engine.Now();

  while (world.engine.Now() < failed_at + sim::SimTime::Seconds(30)) {
    world.engine.RunUntil(world.engine.Now() + sim::SimTime::Millis(50));
    const sched::PodView pod = world.cluster.FindPod(scenario.name + "/" +
                                                     scenario.stages[1].pod_name);
    if (pod && pod.phase() == sched::PodPhase::kRunning &&
        pod.node_id() != victim) {
      return (world.engine.Now() - failed_at).ToMillisF();
    }
  }
  return -1;
}

void PrintRecoveryTable(bench::Report& report) {
  std::printf("=== Fig. 3: MAPE-K loop reaction to node failure ===\n");
  std::printf("%-28s | recovery time after node kill\n", "configuration");
  for (const auto period_ms : {100, 250, 500, 1000}) {
    World world;
    world.agent->Stop();
    mirto::AgentConfig config;
    config.host = "mirto-1";
    config.mape_period = sim::SimTime::Millis(period_ms);
    world.network->topology().AddBidirectional("mirto-1", "gw-0",
                                               sim::SimTime::Micros(200), 1e9);
    mirto::MirtoAgent agent(*world.network, world.cluster, world.infra,
                            world.kb_store,
                            mirto::AuthModule(util::BytesOf("bench")), config);
    // LINT: deferred-capture-ok(agent) -- MeasureRecoveryMs drains the shared
    // engine and Stop() disarms the MAPE loop before the agent leaves scope
    agent.Start();
    usecases::Scenario scenario = usecases::SmartMobilityScenario();
    const double ms = MeasureRecoveryMs(world, scenario);
    if (ms < 0) {
      std::printf("MAPE period %4d ms           | NOT RECOVERED\n", period_ms);
    } else {
      std::printf("MAPE period %4d ms           | %.0f ms\n", period_ms, ms);
    }
    if (period_ms == 250) {
      report.AddMetric("recovery_ms_period_250", ms < 0 ? 60'000.0 : ms, "ms");
    }
    agent.Stop();
  }
  {
    World world(1, /*with_agent=*/false);
    usecases::Scenario scenario = usecases::SmartMobilityScenario();
    const double ms = MeasureRecoveryMs(world, scenario);
    std::printf("%-28s | %s\n", "no orchestrator (baseline)",
                ms < 0 ? "NOT RECOVERED (expected)" : "unexpectedly recovered");
  }
  std::printf("\n");
}

enum class TelemetryMode { kDisabled, kEnabled };

/// Wall-clock latency of MAPE iterations, bucketed into a telemetry
/// histogram so the table below can quote p50/p95/p99. The Monitor samples
/// only nodes whose change epoch moved, so every node is marked changed
/// before each iteration, as BM_BB_MonitorSampling does: an unchanged fleet
/// would time an idle loop.
telemetry::Histogram MeasureMapeLatency(TelemetryMode mode, int iterations) {
  telemetry::ResetGlobal();
  World world;
  usecases::Scenario scenario = usecases::SmartMobilityScenario();
  util::MustOk(usecases::DeployScenario(scenario, world.cluster, 1));
  world.engine.RunUntil(world.engine.Now() + sim::SimTime::Millis(500));

  telemetry::SetEnabled(mode == TelemetryMode::kEnabled);
  telemetry::Histogram hist(
      telemetry::Histogram::ExponentialBounds(1e-4, 2.0, 30));  // 0.1 µs..
  for (int i = 0; i < iterations; ++i) {
    for (const auto& node : world.infra.nodes) node->MarkChanged();
    const auto t0 = std::chrono::steady_clock::now();
    world.agent->RunMapeIteration();
    const auto t1 = std::chrono::steady_clock::now();
    hist.Observe(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  telemetry::SetEnabled(false);
  telemetry::ResetGlobal();
  return hist;
}

void PrintMapeLatencyTable(bench::Report& report) {
  constexpr int kIterations = 2000;
  // Warm every path once so allocator/cache effects don't bias the rows.
  (void)MeasureMapeLatency(TelemetryMode::kDisabled, 100);
  (void)MeasureMapeLatency(TelemetryMode::kEnabled, 100);
  const telemetry::Histogram off =
      MeasureMapeLatency(TelemetryMode::kDisabled, kIterations);
  const telemetry::Histogram on =
      MeasureMapeLatency(TelemetryMode::kEnabled, kIterations);

  std::printf(
      "=== MAPE-K iteration latency (wall-clock, %d iterations, every node "
      "changed) ===\n",
      kIterations);
  std::printf("%-18s | %9s | %9s | %9s | %9s\n", "telemetry", "p50 ms",
              "p95 ms", "p99 ms", "mean ms");
  const auto mean = [](const telemetry::Histogram& h) {
    return h.count() > 0 ? h.sum() / static_cast<double>(h.count()) : 0.0;
  };
  const auto row = [&](const char* label, const telemetry::Histogram& h) {
    std::printf("%-18s | %9.4f | %9.4f | %9.4f | %9.4f\n", label, h.p50(),
                h.p95(), h.p99(), mean(h));
  };
  row("disabled", off);
  row("enabled", on);
  report.AddMetric("mape_iteration_mean_ms", mean(off), "ms",
                   /*higher_is_better=*/false, /*gate=*/false);
  std::printf("\n");
}

/// Runs one negotiated deployment (full MAPE-K world + contract-net
/// announce→bid→award→schedule→start) with tracing on and dumps the span
/// tree as a Chrome trace_event file for about:tracing / Perfetto.
void DumpNegotiationTrace(const std::string& path) {
  telemetry::ResetGlobal();
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  net::Network network(engine, infra.topology, 5);
  mirto::MirtoEngine mirto(network, infra);
  telemetry::SetEnabled(true);
  mirto.Start();
  engine.RunUntil(sim::SimTime::Millis(500));

  usecases::Scenario scenario = usecases::TelerehabScenario();
  dpe::DpePipeline pipeline(3);
  auto design = pipeline.Run(scenario.dpe_input);
  if (design.ok()) {
    mirto.DeployNegotiated(design->package, [](util::Status) {});
    engine.RunUntil(engine.Now() + sim::SimTime::Seconds(5));
  }
  mirto.Stop();

  const auto& tracer = telemetry::Global().tracer;
  const util::Status written = telemetry::WriteChromeTrace(tracer, path);
  if (written.ok()) {
    std::printf("wrote %zu spans (%zu MAPE cycles + negotiation) to %s\n",
                tracer.finished().size(),
                static_cast<std::size_t>(telemetry::Global().metrics.Value(
                    "myrtus_mirto_mape_iterations_total",
                    {{"agent", "mirto-edge"}})),
                path.c_str());
  } else {
    std::printf("trace dump failed: %s\n", written.ToString().c_str());
  }
  telemetry::SetEnabled(false);
  telemetry::ResetGlobal();
}

void BM_MapeIteration(benchmark::State& state) {
  World world(static_cast<int>(state.range(0)));
  usecases::Scenario scenario = usecases::SmartMobilityScenario();
  util::MustOk(usecases::DeployScenario(scenario, world.cluster, 1));
  for (auto _ : state) {
    world.agent->RunMapeIteration();
  }
  state.counters["nodes"] = static_cast<double>(world.infra.nodes.size());
}
BENCHMARK(BM_MapeIteration)->Arg(1)->Arg(4)->Arg(16)->ArgNames({"edge_scale"});

/// Same loop with tracing + metrics enabled: the delta vs BM_MapeIteration is
/// the telemetry-enabled cost per iteration.
void BM_MapeIterationTelemetry(benchmark::State& state) {
  telemetry::ResetGlobal();
  World world(static_cast<int>(state.range(0)));
  usecases::Scenario scenario = usecases::SmartMobilityScenario();
  util::MustOk(usecases::DeployScenario(scenario, world.cluster, 1));
  telemetry::SetEnabled(true);
  for (auto _ : state) {
    world.agent->RunMapeIteration();
  }
  telemetry::SetEnabled(false);
  state.counters["nodes"] = static_cast<double>(world.infra.nodes.size());
  state.counters["spans"] =
      static_cast<double>(telemetry::Global().tracer.finished().size() +
                          telemetry::Global().tracer.dropped_spans());
  telemetry::ResetGlobal();
}
BENCHMARK(BM_MapeIterationTelemetry)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->ArgNames({"edge_scale"});

void BM_DeployThroughApi(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    World world;
    world.network->topology().AddBidirectional("client", "gw-0",
                                               sim::SimTime::Millis(1), 1e9);
    usecases::Scenario scenario = usecases::TelerehabScenario();
    dpe::DpePipeline pipeline(3);
    auto design = pipeline.Run(scenario.dpe_input);
    util::MustOk(design);
    mirto::AuthModule client(util::BytesOf("bench"));
    util::Json request = util::Json::MakeObject()
                             .Set("token", client.IssueToken("bench"))
                             .Set("csar", design->package.Pack());
    state.ResumeTiming();
    bool done = false;
    world.network->Call("client", "mirto-0", "mirto.deploy", std::move(request),
                        [&](util::StatusOr<util::Json> r) { done = r.ok(); });
    world.engine.RunUntil(world.engine.Now() + sim::SimTime::Seconds(2));
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_DeployThroughApi)->Unit(benchmark::kMillisecond);

void BM_TrustUpdateSweep(benchmark::State& state) {
  mirto::PrivacySecurityManager psm;
  const int nodes = static_cast<int>(state.range(0));
  util::Rng rng(3);
  std::uint64_t sweep = 0;
  for (auto _ : state) {
    ++sweep;
    for (int i = 0; i < nodes; ++i) {
      psm.RecordOutcome("node-" + std::to_string(i), rng.NextBool(0.95), sweep);
    }
    benchmark::DoNotOptimize(psm.VetoedNodes());
  }
}
BENCHMARK(BM_TrustUpdateSweep)->Arg(16)->Arg(256)->ArgNames({"nodes"});

}  // namespace

int main(int argc, char** argv) {
  // --trace-out=<file>: dump one traced MAPE-K + negotiation cycle as a
  // Chrome trace_event file, then continue with the regular experiment.
  const std::string trace_out =
      bench::StripValueFlag(argc, argv, "--trace-out=", "");
  const std::string out_path = bench::StripValueFlag(argc, argv, "--out=", "");

  bench::Report report("F3_mirto_loop", "mape");
  report.set_seed(5);
  PrintRecoveryTable(report);
  PrintMapeLatencyTable(report);
  util::MustOk(report.Write(out_path));
  if (!trace_out.empty()) DumpNegotiationTrace(trace_out);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
