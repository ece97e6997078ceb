// Experiment A4 (§IV claims): (a) federated learning lets MIRTO edge agents
// "evolve based on each other's experiences" — FedAvg operating-point
// predictor accuracy vs local-only training across agent counts and non-IID
// severity; (b) swarm placement (PSO/ACO) scales where exhaustive search
// cannot, staying near greedy-or-better cost.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/report.hpp"
#include "fl/fedavg.hpp"
#include "swarm/placement.hpp"

using namespace myrtus;

namespace {

/// Synthetic operating-point dataset: features (load, deadline_slack) ->
/// label 1 when the fast point is needed. Each agent observes a different
/// load regime (non-IID).
fl::Dataset MakeAgentData(std::size_t n, double regime_center, util::Rng& rng) {
  fl::Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const double load = std::clamp(regime_center + rng.NextGaussian() * 0.2, 0.0, 1.0);
    const double slack = rng.Uniform(0.0, 1.0);
    const double label = (load > 0.6 || slack < 0.2) ? 1.0 : 0.0;
    data.push_back({{load, slack}, label});
  }
  return data;
}

void PrintFlTable(bench::Report& report) {
  std::printf("=== A4a: FedAvg vs local-only operating-point predictors ===\n");
  std::printf("%-8s | %-18s | %-18s\n", "agents", "FedAvg accuracy",
              "mean local accuracy");
  for (const std::size_t agents : {4u, 8u, 16u, 32u, 64u}) {
    util::Rng rng(50 + agents);
    std::vector<fl::Dataset> clients;
    for (std::size_t a = 0; a < agents; ++a) {
      // Agents see disjoint load regimes: classic non-IID.
      const double center = 0.15 + 0.7 * static_cast<double>(a) /
                                       static_cast<double>(agents - 1 + 1e-9);
      clients.push_back(MakeAgentData(60, center, rng));
    }
    fl::FederatedTrainer trainer(clients, 2, fl::LinearModel::Link::kLogistic,
                                 60 + agents);
    fl::FederatedConfig config;
    config.rounds = 30;
    config.local_epochs = 2;
    config.learning_rate = 0.3;
    const fl::LinearModel global = trainer.Train(config);
    const fl::Dataset pooled = trainer.PooledData();

    const auto locals = trainer.TrainLocalOnly(4, 0.3);
    double local_acc = 0;
    for (const auto& m : locals) local_acc += m.Accuracy(pooled);
    local_acc /= static_cast<double>(locals.size());
    std::printf("%-8zu | %17.1f%% | %17.1f%%\n", agents,
                global.Accuracy(pooled) * 100, local_acc * 100);
    if (agents == 16u) {
      report.AddMetric("fedavg_accuracy_16_agents", global.Accuracy(pooled),
                       "fraction", /*higher_is_better=*/true);
      report.AddMetric("local_only_accuracy_16_agents", local_acc, "fraction",
                       /*higher_is_better=*/true);
    }
  }
  std::printf("\n");
}

swarm::PlacementProblem MakeProblem(std::size_t tasks, std::size_t nodes,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  swarm::PlacementProblem p;
  for (std::size_t i = 0; i < tasks; ++i) {
    p.tasks.push_back({rng.Uniform(0.1, 1.5), rng.Uniform(32, 512),
                       static_cast<int>(rng.NextBounded(3)), rng.NextBool(0.2),
                       rng.Uniform(1, 200)});
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    std::string id = "n";
    id += std::to_string(i);
    p.nodes.push_back({std::move(id), rng.Uniform(4, 64),
                       rng.Uniform(2048, 65536), static_cast<int>(rng.NextBounded(3)),
                       rng.NextBool(0.4), rng.Uniform(100, 900),
                       rng.Uniform(1, 40)});
  }
  // Guarantee feasibility: one roomy high-security accelerator node always
  // exists, so solver comparisons measure optimization, not luck.
  p.nodes[0].security_level = 2;
  p.nodes[0].has_accelerator = true;
  p.nodes[0].cpu_capacity = static_cast<double>(tasks) * 2.0;
  p.nodes[0].mem_capacity_mb = static_cast<double>(tasks) * 1024.0;
  return p;
}

void PrintSwarmTable(bench::Report& report) {
  std::printf("=== A4b: placement solvers at scale (cost; lower is better) ===\n");
  std::printf("%-14s | %-10s | %-10s | %-10s | %-10s\n", "tasks x nodes",
              "random", "greedy", "pso", "aco");
  for (const auto& [tasks, nodes] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {6, 4}, {16, 8}, {40, 12}, {80, 20}}) {
    const swarm::PlacementProblem p = MakeProblem(tasks, nodes, tasks * 100 + nodes);
    util::Rng r1(1), r2(2), r3(3);
    double random_cost = 0;
    for (int i = 0; i < 10; ++i) random_cost += swarm::SolveRandom(p, r1).cost;
    random_cost /= 10;
    const double greedy = swarm::SolveGreedy(p).cost;
    const double pso = swarm::SolvePso(p, r2, 40, 60).cost;
    const double aco = swarm::SolveAco(p, r3, 32, 40).cost;
    char label[32];
    std::snprintf(label, sizeof label, "%zu x %zu", tasks, nodes);
    std::printf("%-14s | %10.1f | %10.1f | %10.1f | %10.1f\n", label,
                random_cost, greedy, pso, aco);
    if (tasks == 80) {
      report.AddMetric("greedy_cost_80x20", greedy, "cost");
      report.AddMetric("pso_cost_80x20", pso, "cost");
      report.AddMetric("aco_cost_80x20", aco, "cost");
    }
  }
  std::printf("\n");
}

void BM_FedAvgRound(benchmark::State& state) {
  const auto agents = static_cast<std::size_t>(state.range(0));
  util::Rng rng(9);
  std::vector<fl::Dataset> clients;
  for (std::size_t a = 0; a < agents; ++a) {
    clients.push_back(MakeAgentData(60, 0.5, rng));
  }
  for (auto _ : state) {
    fl::FederatedTrainer trainer(clients, 2, fl::LinearModel::Link::kLogistic, 9);
    fl::FederatedConfig config;
    config.rounds = 1;
    benchmark::DoNotOptimize(trainer.Train(config));
  }
}
BENCHMARK(BM_FedAvgRound)->Arg(4)->Arg(16)->Arg(64)->ArgNames({"agents"});

void BM_SwarmSolvers(benchmark::State& state) {
  const swarm::PlacementProblem p = MakeProblem(24, 10, 99);
  util::Rng rng(5);
  for (auto _ : state) {
    switch (state.range(0)) {
      case 0: benchmark::DoNotOptimize(swarm::SolveGreedy(p)); break;
      case 1: benchmark::DoNotOptimize(swarm::SolvePso(p, rng, 32, 40)); break;
      default: benchmark::DoNotOptimize(swarm::SolveAco(p, rng, 24, 30));
    }
  }
  state.SetLabel(state.range(0) == 0 ? "greedy" : (state.range(0) == 1 ? "pso" : "aco"));
}
BENCHMARK(BM_SwarmSolvers)->Arg(0)->Arg(1)->Arg(2)->ArgNames({"solver"})->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = bench::StripValueFlag(argc, argv, "--out=", "");
  bench::Report report("A4_fl_swarm_ablation", "fl_swarm");
  report.set_seed(50);
  PrintFlTable(report);
  PrintSwarmTable(report);
  util::MustOk(report.Write(out_path));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
