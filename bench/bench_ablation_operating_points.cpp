// Experiment A3 ([29]/[30] mechanism the paper adopts): operating-point-aware
// runtime adaptation vs fixed configurations. Sweeps offered load and
// compares energy and deadline violations under (a) always-fastest point,
// (b) always-eco point, and (c) the NodeManager's utilization-driven
// adaptation — expected shape: adaptive ~ matches fastest's violations at
// high load while approaching eco's energy at low load.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/report.hpp"
#include "continuum/infrastructure.hpp"
#include "mirto/managers.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace myrtus;

namespace {

enum class Policy { kFastest, kEco, kAdaptive };

struct Outcome {
  double energy_mj = 0;
  double violation_rate = 0;
  double p95_ms = 0;
};

Outcome RunLoad(Policy policy, double load_fraction, std::uint64_t seed) {
  sim::Engine engine;
  continuum::ComputeNode node(engine, "edge", continuum::Layer::kEdge,
                              "multicore", security::SecurityLevel::kLow, 2048);
  node.AddDevice(continuum::MakeBigCore("edge/big"));
  switch (policy) {
    case Policy::kFastest: util::MustOk(node.SetOperatingPoint(0, 0)); break;
    case Policy::kEco:
      util::MustOk(node.SetOperatingPoint(
          0, node.devices()[0].operating_points().size() - 1));
      break;
    case Policy::kAdaptive: util::MustOk(node.SetOperatingPoint(0, 1)); break;
  }
  mirto::NodeManager manager(0.7, 0.3);
  if (policy == Policy::kAdaptive) {
    engine.SchedulePeriodic(sim::SimTime::Millis(100), [&] {
      for (const auto& decision : manager.PlanNode(node)) {
        util::MustOk(manager.Execute(node, decision));
      }
    });
  }

  // Tasks: 20ms service at the fastest point; deadline 60ms; Poisson load.
  const double fastest_rate = 1.8e9 * 1.6 / 57.6e6;  // tasks/s at point 0
  const double arrival_rate = load_fraction * fastest_rate;
  util::Rng rng(seed, "a3");
  util::Samples latency_ms;
  std::uint64_t violations = 0;
  std::uint64_t completed = 0;

  std::function<void()> schedule_next = [&] {
    engine.ScheduleAfter(
        sim::SimTime::FromSeconds(rng.NextExponential(arrival_rate)), [&] {
          if (engine.Now() >= sim::SimTime::Seconds(20)) return;
          continuum::TaskDemand demand;
          demand.cycles = 57'600'000;
          const sim::SimTime start = engine.Now();
          node.Submit(demand, 0, [&, start](const continuum::TaskReport&) {
            const double ms = (engine.Now() - start).ToMillisF();
            latency_ms.Add(ms);
            ++completed;
            if (ms > 60.0) ++violations;
          });
          schedule_next();
        });
  };
  schedule_next();
  engine.RunUntil(sim::SimTime::Seconds(25));

  Outcome out;
  out.energy_mj =
      (node.total_energy() + node.IdleEnergyMj(engine.Now())).value();
  out.violation_rate =
      completed == 0 ? 0.0 : static_cast<double>(violations) / completed;
  out.p95_ms = latency_ms.p95();
  return out;
}

void PrintTable(bench::Report& report) {
  std::printf("=== A3: operating-point policies vs offered load ===\n");
  std::printf("(20s of Poisson tasks; energy includes idle draw)\n");
  std::printf("%-6s | %-28s | %-28s | %-28s\n", "load", "fastest (mJ/viol%/p95)",
              "eco (mJ/viol%/p95)", "adaptive (mJ/viol%/p95)");
  for (const double load : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const Outcome fast = RunLoad(Policy::kFastest, load, 1);
    const Outcome eco = RunLoad(Policy::kEco, load, 1);
    const Outcome adaptive = RunLoad(Policy::kAdaptive, load, 1);
    std::printf("%-6.1f | %9.0f / %5.1f%% / %6.1f | %9.0f / %5.1f%% / %6.1f | "
                "%9.0f / %5.1f%% / %6.1f\n",
                load, fast.energy_mj, fast.violation_rate * 100, fast.p95_ms,
                eco.energy_mj, eco.violation_rate * 100, eco.p95_ms,
                adaptive.energy_mj, adaptive.violation_rate * 100,
                adaptive.p95_ms);
    if (load == 0.5) {
      report.AddMetric("adaptive_energy_mj_load50", adaptive.energy_mj, "mJ");
      report.AddMetric("adaptive_violation_rate_load50",
                       adaptive.violation_rate, "fraction");
      report.AddMetric("adaptive_p95_ms_load50", adaptive.p95_ms, "ms");
    }
  }
  std::printf("\n");
}

void BM_AdaptiveRun(benchmark::State& state) {
  const double load = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunLoad(Policy::kAdaptive, load, 2));
  }
}
BENCHMARK(BM_AdaptiveRun)->Arg(3)->Arg(8)->ArgNames({"load_x10"})->Unit(benchmark::kMillisecond);

void BM_OperatingPointSwitch(benchmark::State& state) {
  continuum::Device device = continuum::MakeFpgaAccelerator("fpga");
  std::size_t p = 0;
  for (auto _ : state) {
    p = (p + 1) % device.operating_points().size();
    benchmark::DoNotOptimize(device.SetOperatingPoint(p));
  }
  state.counters["reconfigs"] = static_cast<double>(device.reconfigurations());
}
BENCHMARK(BM_OperatingPointSwitch);

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = bench::StripValueFlag(argc, argv, "--out=", "");
  bench::Report report("A3_operating_points", "operating_points");
  report.set_seed(1);
  report.set_sim_ms(25'000.0);
  PrintTable(report);
  util::MustOk(report.Write(out_path));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
