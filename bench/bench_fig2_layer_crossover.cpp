// Experiment F2 (paper Fig. 2): the layered continuum. Sweeps task profiles
// (compute demand × input size × deadline class) and reports, per profile,
// the end-to-end latency and energy of placing the task at each layer —
// expected shape: latency-critical small tasks win at the edge, medium
// analytics at the fog, heavy batch in the cloud, with crossovers as compute
// demand grows.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/report.hpp"
#include "continuum/infrastructure.hpp"

using namespace myrtus;

namespace {

struct LayerOutcome {
  double latency_ms;
  double energy_mj;
};

/// Analytical end-to-end cost of running (cycles, bytes) on a layer's
/// representative node, including the network path from the source edge node.
LayerOutcome EvaluateAt(const continuum::Infrastructure& infra,
                        continuum::ComputeNode* node, std::uint64_t cycles,
                        std::uint64_t bytes) {
  continuum::TaskDemand demand;
  demand.cycles = cycles;
  demand.bytes_in = bytes;
  demand.parallel_fraction = 0.8;
  const std::size_t device = node->BestDeviceFor(demand);
  const continuum::ExecutionEstimate est =
      node->devices()[device].Estimate(demand);

  double network_ms = 0.0;
  double network_mj = 0.0;
  if (node->id() != "edge-0") {
    auto route = infra.topology.FindRoute("edge-0", node->id());
    if (route.ok()) {
      network_ms = (*route)->propagation.ToMillisF() +
                   static_cast<double>(bytes) * 8.0 /
                       (*route)->min_bandwidth_bps * 1e3;
      network_mj = static_cast<double>(bytes) * 20e-9 * 1e3;  // 20 nJ/byte radio+NIC
    }
  }
  return {est.latency.ToMillisF() + network_ms,
          est.energy_mj.value() + network_mj};
}

void PrintCrossoverTable(bench::Report& report) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  continuum::ComputeNode* edge = infra.FindNode("edge-0");
  continuum::ComputeNode* fog = infra.FindNode("fmdc-0");
  continuum::ComputeNode* cloud = infra.FindNode("cloud-0");

  std::printf("=== Fig. 2: placement crossover across the continuum ===\n");
  std::printf("(end-to-end ms / mJ, source at edge-0; * marks the winner)\n");
  std::printf("%-12s %-10s | %-18s %-18s %-18s | winner\n", "cycles", "input",
              "edge", "fog (FMDC)", "cloud");
  for (const std::uint64_t cycles :
       {10'000'000ULL, 100'000'000ULL, 1'000'000'000ULL, 10'000'000'000ULL,
        100'000'000'000ULL}) {
    for (const std::uint64_t bytes : {10'000ULL, 1'000'000ULL, 100'000'000ULL}) {
      const LayerOutcome e = EvaluateAt(infra, edge, cycles, bytes);
      const LayerOutcome f = EvaluateAt(infra, fog, cycles, bytes);
      const LayerOutcome c = EvaluateAt(infra, cloud, cycles, bytes);
      const char* winner = "edge";
      double best = e.latency_ms;
      if (f.latency_ms < best) {
        best = f.latency_ms;
        winner = "fog";
      }
      if (c.latency_ms < best) winner = "cloud";
      std::printf("%-12llu %-10llu | %8.2f / %-8.1f %8.2f / %-8.1f %8.2f / %-8.1f | %s\n",
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(bytes), e.latency_ms,
                  e.energy_mj, f.latency_ms, f.energy_mj, c.latency_ms,
                  c.energy_mj, winner);
      // The mid-sweep cell is the crossover region the figure cares about:
      // the analytical model is deterministic, so these gate the diff.
      if (cycles == 1'000'000'000ULL && bytes == 1'000'000ULL) {
        report.AddMetric("edge_latency_ms_1e9_1mb", e.latency_ms, "ms");
        report.AddMetric("fog_latency_ms_1e9_1mb", f.latency_ms, "ms");
        report.AddMetric("cloud_latency_ms_1e9_1mb", c.latency_ms, "ms");
        report.AddMetric("edge_energy_mj_1e9_1mb", e.energy_mj, "mJ");
      }
    }
  }
  std::printf("\n");
}

void BM_PlacementEvaluation(benchmark::State& state) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  continuum::ComputeNode* node =
      infra.FindNode(state.range(0) == 0 ? "edge-0"
                                         : (state.range(0) == 1 ? "fmdc-0"
                                                                : "cloud-0"));
  const auto cycles = static_cast<std::uint64_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateAt(infra, node, cycles, 1'000'000));
  }
  state.SetLabel(state.range(0) == 0 ? "edge" : (state.range(0) == 1 ? "fog" : "cloud"));
}
BENCHMARK(BM_PlacementEvaluation)
    ->ArgsProduct({{0, 1, 2}, {100'000'000, 10'000'000'000}})
    ->ArgNames({"layer", "cycles"});

void BM_InfrastructureBuild(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    continuum::InfrastructureSpec spec;
    spec.edge_hmpsoc = 2 * scale;
    spec.edge_riscv = 2 * scale;
    spec.edge_multicore = 2 * scale;
    spec.gateways = scale;
    spec.fmdcs = scale;
    benchmark::DoNotOptimize(continuum::BuildInfrastructure(engine, spec));
  }
}
BENCHMARK(BM_InfrastructureBuild)->Arg(1)->Arg(4)->Arg(16)->ArgNames({"scale"});

/// Simulated execution (not just the analytical estimate): queueing shows up
/// under concurrent load at a single edge node vs the wide cloud.
void BM_QueueingUnderLoad(benchmark::State& state) {
  const bool use_cloud = state.range(0) == 1;
  for (auto _ : state) {
    sim::Engine engine;
    continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
    continuum::ComputeNode* node =
        infra.FindNode(use_cloud ? "cloud-0" : "edge-0");
    continuum::TaskDemand demand;
    demand.cycles = 50'000'000;
    demand.parallel_fraction = 0.5;
    double total_wait_ms = 0.0;
    int completed = 0;
    for (int i = 0; i < 64; ++i) {
      node->Submit(demand, 0, [&](const continuum::TaskReport& r) {
        total_wait_ms += r.queued.ToMillisF();
        ++completed;
      });
    }
    engine.Run();
    benchmark::DoNotOptimize(completed);
    state.counters["mean_queue_ms"] = total_wait_ms / completed;
  }
  state.SetLabel(use_cloud ? "cloud" : "edge");
}
BENCHMARK(BM_QueueingUnderLoad)->Arg(0)->Arg(1)->ArgNames({"cloud"});

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = bench::StripValueFlag(argc, argv, "--out=", "");
  bench::Report report("F2_layer_crossover", "layer_crossover");
  PrintCrossoverTable(report);
  util::MustOk(report.Write(out_path));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
