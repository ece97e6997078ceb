// Locks in the deterministic fork-join contract of util/parallel: any worker
// count — inline serial (0/1) or pooled (2/4/8) — produces byte-identical
// results, including bodies that consume randomness; exhaustive placement
// and a FedAvg round match their serial runs; and a full DPE + MAPE world
// records an identical telemetry span stream and metrics registry whether
// its DSE ran serial or pooled.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dpe/pipeline.hpp"
#include "fl/fedavg.hpp"
#include "mirto/agent.hpp"
#include "mirto/engine.hpp"
#include "swarm/placement.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "usecases/scenario.hpp"
#include "util/rng.hpp"

namespace myrtus::util {
namespace {

/// Runs `body` under each worker count and asserts every result equals the
/// serial (workers=1) baseline, bit for bit.
template <typename Fn>
void ExpectWorkerInvariant(Fn&& body) {
  SetParallelWorkers(1);
  const auto baseline = body();
  for (const int workers : {2, 4, 8}) {
    SetParallelWorkers(workers);
    const auto got = body();
    EXPECT_EQ(got, baseline) << "diverged at " << workers << " workers";
  }
  SetParallelWorkers(1);
}

TEST(ParallelShards, CountIsPureFunctionOfN) {
  EXPECT_EQ(ParallelShardCount(0), 0u);
  EXPECT_EQ(ParallelShardCount(1), 1u);
  EXPECT_EQ(ParallelShardCount(63), 63u);
  EXPECT_EQ(ParallelShardCount(64), kParallelMaxShards);
  EXPECT_EQ(ParallelShardCount(100'000), kParallelMaxShards);
  // Worker count must not influence sharding (it would break substreams).
  SetParallelWorkers(8);
  EXPECT_EQ(ParallelShardCount(100'000), kParallelMaxShards);
  SetParallelWorkers(1);
}

TEST(ParallelShards, ShardsTileTheIndexSpaceExactly) {
  for (const std::size_t n : {1u, 7u, 64u, 65u, 1000u}) {
    std::vector<int> hits(n, 0);
    ParallelFor(n, [&](const Shard& shard) {
      EXPECT_EQ(shard.count, ParallelShardCount(n));
      for (std::size_t i = shard.begin; i < shard.end; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i], 1) << "item " << i << " of " << n;
    }
  }
}

TEST(ParallelFor, ByteIdenticalAcrossWorkerCounts) {
  ExpectWorkerInvariant([] {
    std::vector<double> out(10'000);
    ParallelFor(out.size(), [&](const Shard& shard) {
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        out[i] = static_cast<double>(i) * 1.000000119e-3 + 0.5 / (1.0 + i);
      }
    });
    return out;
  });
}

TEST(ParallelMap, CommitsInItemOrderAtAnyWorkerCount) {
  ExpectWorkerInvariant([] {
    return ParallelMap<std::size_t>(4097, [](std::size_t i) { return i * i; });
  });
}

TEST(ParallelFor, ShardSubstreamsAreWorkerCountInvariant) {
  // The sanctioned way for a body to draw numbers: a substream derived from
  // its shard index, so what it draws never depends on the worker count.
  ExpectWorkerInvariant([] {
    std::vector<std::uint64_t> draws(997);
    ParallelFor(draws.size(), [&](const Shard& shard) {
      Rng rng(0xABCDEFu, "test.stream", shard.index);
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        draws[i] = rng.NextU64();
      }
    });
    return draws;
  });
}

TEST(ParallelFor, NestedRegionsRunInlineAndStayCorrect) {
  ExpectWorkerInvariant([] {
    std::vector<std::size_t> out(256);
    ParallelFor(out.size(), [&](const Shard& shard) {
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        // A helper that parallelizes internally must be safe to call from a
        // shard body; the nested region runs inline on this worker.
        const std::vector<std::size_t> terms = ParallelMap<std::size_t>(
            i % 17, [](std::size_t k) { return k + 1; });
        out[i] = std::accumulate(terms.begin(), terms.end(), std::size_t{0});
      }
    });
    return out;
  });
}

TEST(ParallelPool, StatsCountRegionsAndItems) {
  const ParallelPoolStats before = ParallelStats();
  SetParallelWorkers(4);
  ParallelFor(100, [](const Shard&) {});
  const ParallelPoolStats after = ParallelStats();
  SetParallelWorkers(1);
  EXPECT_EQ(after.regions, before.regions + 1);
  EXPECT_EQ(after.items, before.items + 100);
  EXPECT_GE(after.shards, before.shards + ParallelShardCount(100));
  EXPECT_GT(after.pooled_regions, before.pooled_regions);
}

// --- Pooled adopters: serial vs pooled results -------------------------------
// Each adopter's own region must actually run on the pool, so the comparison
// (and the TSan build running this suite) covers the pooled path.

TEST(ParallelAdopters, ExhaustivePlacementIdenticalSerialVsPooled) {
  // 4 nodes ^ 5 tasks = 1024 states: every one of the 64 shards has work.
  swarm::PlacementProblem problem;
  problem.tasks = {{1.0, 256, 0, false, 100.0},
                   {2.0, 512, 0, true, 10.0},
                   {0.5, 128, 1, false, 500.0},
                   {1.5, 1024, 0, false, 50.0},
                   {0.25, 64, 2, false, 250.0}};
  problem.nodes = {{"edge-fpga", 4.0, 2048, 0, true, 900.0, 2.0},
                   {"edge", 2.0, 1024, 1, false, 600.0, 3.0},
                   {"fog", 8.0, 8192, 1, false, 400.0, 7.0},
                   {"cloud", 64.0, 65536, 2, false, 150.0, 30.0}};
  const std::uint64_t pooled_before = ParallelStats().pooled_regions;
  ExpectWorkerInvariant([&] {
    auto solution = swarm::SolveExhaustive(problem);
    EXPECT_TRUE(solution.ok());
    if (!solution.ok()) return std::make_tuple(std::vector<int>{}, 0.0, 0);
    EXPECT_EQ(solution->evaluations, 1024);
    return std::make_tuple(solution->assignment, solution->cost,
                           solution->evaluations);
  });
  EXPECT_GT(ParallelStats().pooled_regions, pooled_before);
}

TEST(ParallelAdopters, FedAvgRoundIdenticalSerialVsPooled) {
  // y = 2x0 - 3x1 + 1 + noise, dealt across six clients.
  Rng rng(9);
  fl::Dataset all;
  for (int i = 0; i < 360; ++i) {
    const double x0 = rng.Uniform(-1, 1);
    const double x1 = rng.Uniform(-1, 1);
    all.push_back({{x0, x1}, 2 * x0 - 3 * x1 + 1 + rng.NextGaussian() * 0.01});
  }
  const std::vector<fl::Dataset> clients = fl::NonIidSplit(all, 6, rng);
  fl::FederatedConfig config;
  config.rounds = 1;
  const std::uint64_t pooled_before = ParallelStats().pooled_regions;
  ExpectWorkerInvariant([&] {
    fl::FederatedTrainer trainer(clients, 2, fl::LinearModel::Link::kIdentity,
                                 42);
    fl::FederatedMetrics metrics;
    const fl::LinearModel global = trainer.Train(config, &metrics);
    return std::make_pair(global.Parameters(), metrics.global_loss_per_round);
  });
  EXPECT_GT(ParallelStats().pooled_regions, pooled_before);
}

// --- Full MAPE world: serial vs pooled telemetry ------------------------------

/// Deploys the telerehab scenario through a MIRTO agent, runs the periodic
/// MAPE loop for a stretch of simulated time with telemetry on, and
/// fingerprints everything observable: every finished span (ids, parent,
/// name, sim start/end, attributes), the metrics registry, and scheduler
/// state.
std::string RunMapeWorldFingerprint() {
  telemetry::ResetGlobal();
  telemetry::SetEnabled(true);
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  net::Topology topo = infra.topology;
  topo.AddBidirectional("dpe-tool", "gw-0", sim::SimTime::Millis(1), 1e9);
  net::Network network(engine, std::move(topo), 2026);

  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  kb::Store store;
  mirto::AgentConfig config;
  config.host = "gw-0";
  mirto::MirtoAgent agent(network, cluster, infra, store,
                          mirto::AuthModule(util::BytesOf("par-secret")),
                          config);
  agent.Start();

  usecases::Scenario scenario = usecases::TelerehabScenario();
  dpe::DpePipeline pipeline(5);
  auto design = pipeline.Run(scenario.dpe_input);
  EXPECT_TRUE(design.ok());

  mirto::AuthModule client(util::BytesOf("par-secret"));
  bool deployed = false;
  network.Call("dpe-tool", "gw-0", "mirto.deploy",
               util::Json::MakeObject()
                   .Set("token", client.IssueToken("dpe-tool"))
                   .Set("csar", design->package.Pack()),
               [&](util::StatusOr<util::Json> r) { deployed = r.ok(); });
  engine.RunUntil(sim::SimTime::Seconds(8));
  EXPECT_TRUE(deployed);

  const telemetry::Telemetry& tel = telemetry::Global();
  EXPECT_EQ(tel.tracer.dropped_spans(), 0u) << "fingerprint would be partial";
  std::ostringstream fp;
  for (const telemetry::SpanRecord& s : tel.tracer.finished()) {
    fp << s.trace_id << '|' << s.span_id << '|' << s.parent_id << '|'
       << s.name << '|' << s.category << '|' << s.start_ns << '|' << s.end_ns;
    for (const auto& [key, value] : s.attrs) fp << '|' << key << '=' << value;
    fp << '\n';
  }
  fp << telemetry::PrometheusText(tel.metrics);
  fp << "pods=" << cluster.RunningPods() << '\n';
  fp << "events=" << engine.executed_events() << '\n';
  for (const std::string& app : agent.DeployedApps()) fp << app << '\n';
  telemetry::SetEnabled(false);
  telemetry::ResetGlobal();
  return fp.str();
}

TEST(ParallelMapeWorld, TraceIsIdenticalSerialVsPooled) {
  SetParallelWorkers(1);
  const std::string serial = RunMapeWorldFingerprint();
  ASSERT_FALSE(serial.empty());
  SetParallelWorkers(8);
  const std::string pooled = RunMapeWorldFingerprint();
  SetParallelWorkers(1);
  ASSERT_EQ(serial.size(), pooled.size());
  EXPECT_EQ(serial, pooled) << "MAPE world diverged between serial and pooled";
}

}  // namespace
}  // namespace myrtus::util
