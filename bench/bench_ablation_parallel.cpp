// Experiment A7: deterministic parallel runtime ablation. The fork-join pool
// (util/parallel) promises two things at once: wall-clock speedup on the
// DSE / exhaustive placement / FL hot paths, and byte-identical results at
// every worker count. This bench measures both — a serial-vs-N-worker
// speedup table over the three adopted workloads, with an FNV checksum per
// cell that MUST match the serial baseline. A checksum mismatch is a
// correctness bug in the determinism contract and fails the run (exit 1),
// which is how CI guards the contract on real multi-core hardware.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "dpe/dse.hpp"
#include "fl/fedavg.hpp"
#include "swarm/placement.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

using namespace myrtus;

namespace {

bool g_quick = false;

void AppendU64(std::string& buf, std::uint64_t v) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  buf.append(bytes, sizeof(bytes));
}

void AppendF64(std::string& buf, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(buf, bits);
}

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// --- Workloads ---------------------------------------------------------------
// Each returns an FNV-1a checksum over every result byte it produced; the
// checksum is the determinism witness compared across worker counts.

std::uint64_t RunDseSweep() {
  dpe::DataflowGraph graph;
  const std::size_t n_actors = g_quick ? 6 : 9;
  const auto actor_name = [](std::size_t a) {
    std::string name = "a";
    name += std::to_string(a);
    return name;
  };
  for (std::size_t a = 0; a < n_actors; ++a) {
    dpe::Actor actor;
    actor.name = actor_name(a);
    actor.cycles_per_firing = 1'000'000 + 137'000 * a;
    actor.state_bytes = 2048;
    actor.accelerable = (a % 2) == 0;
    actor.parallel_fraction = 0.1 * static_cast<double>(a % 8);
    util::MustOk(graph.AddActor(actor));
  }
  for (std::size_t a = 0; a + 1 < n_actors; ++a) {
    util::MustOk(graph.AddChannel(
        {actor_name(a), actor_name(a + 1), 1, 1, 4096}));
  }
  dpe::KpiEstimator estimator(graph, dpe::HmpsocTargets());
  auto exhaustive = dpe::ExploreExhaustive(estimator, 2'000'000);

  util::Rng rng(17, "bench.dse");
  const dpe::DseResult genetic =
      dpe::ExploreGenetic(estimator, rng, g_quick ? 16 : 48, g_quick ? 6 : 30);

  std::string buf;
  if (exhaustive.ok()) {
    AppendU64(buf, static_cast<std::uint64_t>(exhaustive->evaluated));
    for (const dpe::ParetoPoint& p : exhaustive->front) {
      for (const int d : p.config.actor_to_device) {
        AppendU64(buf, static_cast<std::uint64_t>(d));
      }
      AppendF64(buf, p.kpi.latency_s);
      AppendF64(buf, p.kpi.energy_mj);
    }
  }
  AppendU64(buf, static_cast<std::uint64_t>(genetic.evaluated));
  for (const dpe::ParetoPoint& p : genetic.front) {
    AppendF64(buf, p.kpi.latency_s);
    AppendF64(buf, p.kpi.energy_mj);
  }
  return util::Fnv1a64(buf);
}

/// Exhaustive placement over n_nodes^n_tasks states: the one placement
/// solver with enough work per region to pay for the pool (greedy and ACO
/// run serial).
std::uint64_t RunExhaustivePlacement() {
  swarm::PlacementProblem problem;
  const std::size_t n_tasks = g_quick ? 5 : 6;
  const std::size_t n_nodes = g_quick ? 8 : 10;
  for (std::size_t t = 0; t < n_tasks; ++t) {
    swarm::PlacementTask task;
    task.cpu = 0.25 + 0.05 * static_cast<double>(t % 7);
    task.mem_mb = 64 + 16 * static_cast<double>(t % 5);
    task.traffic_kbps = 10.0 * static_cast<double>(1 + t % 9);
    task.min_security = static_cast<int>(t % 3);
    task.needs_accelerator = (t % 11) == 0;
    problem.tasks.push_back(task);
  }
  for (std::size_t n = 0; n < n_nodes; ++n) {
    swarm::PlacementNode node;
    node.cpu_capacity = 4.0 + static_cast<double>(n % 3);
    node.mem_capacity_mb = 2048;
    node.power_mw_per_cpu = 300.0 + 100.0 * static_cast<double>(n % 4);
    node.latency_to_consumer_ms = 1.0 + static_cast<double>(n % 6);
    node.security_level = static_cast<int>(n % 4);
    node.has_accelerator = (n % 5) == 0;
    problem.nodes.push_back(node);
  }

  const auto exact = swarm::SolveExhaustive(problem);
  util::MustOk(exact);
  std::string buf;
  AppendU64(buf, static_cast<std::uint64_t>(exact->evaluations));
  for (const int a : exact->assignment) {
    AppendU64(buf, static_cast<std::uint64_t>(a));
  }
  AppendF64(buf, exact->cost);
  return util::Fnv1a64(buf);
}

std::uint64_t RunFederatedRounds() {
  const std::size_t features = 8;
  const std::size_t clients = g_quick ? 6 : 12;
  util::Rng data_rng(41, "bench.fl.data");
  fl::Dataset data;
  for (int i = 0; i < (g_quick ? 600 : 2400); ++i) {
    fl::Example ex;
    ex.features.resize(features);
    double score = 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      ex.features[f] = data_rng.Uniform(-1.0, 1.0);
      score += (f % 2 == 0 ? 1.0 : -0.5) * ex.features[f];
    }
    ex.label = score > 0 ? 1.0 : 0.0;
    data.push_back(std::move(ex));
  }
  std::vector<fl::Dataset> split =
      fl::NonIidSplit(std::move(data), clients, data_rng);

  fl::FederatedTrainer trainer(std::move(split), features,
                               fl::LinearModel::Link::kLogistic, 57);
  fl::FederatedConfig config;
  config.rounds = g_quick ? 4 : 16;
  config.local_epochs = 2;
  const fl::LinearModel global = trainer.Train(config);

  std::string buf;
  for (const double p : global.Parameters()) AppendF64(buf, p);
  return util::Fnv1a64(buf);
}

struct Workload {
  const char* name;
  std::uint64_t (*run)();
};

constexpr Workload kWorkloads[] = {
    {"dse_sweep", RunDseSweep},
    {"placement_exhaustive", RunExhaustivePlacement},
    {"fedavg", RunFederatedRounds},
};

/// Runs the ablation: every workload at workers {1, 2, 4, 8}, timing each
/// cell and checking its checksum against the serial baseline. Returns false
/// on any checksum mismatch.
bool RunAblation(const std::string& out_path) {
  bench::Report report("A7_parallel_ablation", "parallel");
  report.set_mode(g_quick ? "quick" : "full");
  report.set_seed(17);
  std::printf(
      "=== A7: deterministic parallel runtime — serial vs pooled "
      "(%s mode) ===\n",
      g_quick ? "quick" : "full");
  std::printf("%-20s | %-8s | %-10s | %-8s | %-18s | %s\n", "workload",
              "workers", "time (ms)", "speedup", "checksum", "match");

  util::Json rows = util::Json::MakeArray();
  bool all_match = true;
  for (const Workload& w : kWorkloads) {
    util::SetParallelWorkers(1);
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t baseline = w.run();
    const double serial_ms = MillisSince(t0);
    std::printf("%-20s | %-8d | %-10.2f | %-8s | 0x%016llx | %s\n", w.name, 1,
                serial_ms, "1.00",
                static_cast<unsigned long long>(baseline), "ref");
    rows.Append(util::Json::MakeObject()
                    .Set("workload", w.name)
                    .Set("workers", 1)
                    .Set("time_ms", serial_ms)
                    .Set("speedup", 1.0)
                    .Set("checksum_matches", true));

    for (const int workers : {2, 4, 8}) {
      util::SetParallelWorkers(workers);
      const auto t1 = std::chrono::steady_clock::now();
      const std::uint64_t checksum = w.run();
      const double ms = MillisSince(t1);
      const bool match = checksum == baseline;
      all_match = all_match && match;
      const double speedup = ms > 0 ? serial_ms / ms : 0.0;
      std::printf("%-20s | %-8d | %-10.2f | %-8.2f | 0x%016llx | %s\n", w.name,
                  workers, ms, speedup,
                  static_cast<unsigned long long>(checksum),
                  match ? "yes" : "MISMATCH");
      rows.Append(util::Json::MakeObject()
                      .Set("workload", w.name)
                      .Set("workers", workers)
                      .Set("time_ms", ms)
                      .Set("speedup", speedup)
                      .Set("checksum_matches", match));
      // Wall-clock speedups vary across machines, so they ride along ungated;
      // the determinism witness is the gate.
      if (workers == 8) {
        report.AddMetric(std::string(w.name) + "_speedup_8_workers", speedup,
                         "x", /*higher_is_better=*/true, /*gate=*/false);
      }
    }
  }
  util::SetParallelWorkers(1);

  const util::ParallelPoolStats stats = util::ParallelStats();
  report.AddMetric("all_checksums_match", all_match ? 1.0 : 0.0, "bool",
                   /*higher_is_better=*/true);
  report.SetExtra("rows", std::move(rows));
  report.SetExtra("pool", util::Json::MakeObject()
                              .Set("regions", stats.regions)
                              .Set("pooled_regions", stats.pooled_regions)
                              .Set("shards", stats.shards)
                              .Set("items", stats.items));
  util::MustOk(report.Write(out_path));
  if (!all_match) {
    std::printf(
        "FATAL: checksum mismatch — pooled execution diverged from the "
        "serial baseline; the determinism contract is broken\n");
  }
  return all_match;
}

// --- Microbenchmarks ---------------------------------------------------------

void BM_PlacementExhaustive(benchmark::State& state) {
  util::SetParallelWorkers(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(RunExhaustivePlacement());
  util::SetParallelWorkers(1);
}
BENCHMARK(BM_PlacementExhaustive)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_parallel.json";
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--quick") {
      g_quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  const bool ok = RunAblation(out_path);
  if (!ok) return 1;  // CI gate: determinism contract violation
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
