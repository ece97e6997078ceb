// Experiment A2: the consistency tax of the distributed Knowledge Base. The
// paper chooses etcd (strongly consistent, Raft-replicated); this ablation
// quantifies commit latency and throughput vs cluster size and compares
// against a single-node (unreplicated) store — expected shape: latency grows
// with cluster size (more replication RTTs), and 1-node is the floor.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "kb/cluster.hpp"
#include "kb/registry.hpp"
#include "util/stats.hpp"

using namespace myrtus;

namespace {

struct RaftWorld {
  sim::Engine engine;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<kb::KbCluster> cluster;

  explicit RaftWorld(std::size_t replicas, sim::SimTime link_latency) {
    net::Topology topo;
    std::vector<net::HostId> hosts;
    for (std::size_t i = 0; i < replicas; ++i) {
      hosts.push_back("kb-" + std::to_string(i));
    }
    for (std::size_t i = 0; i < replicas; ++i) {
      for (std::size_t j = i + 1; j < replicas; ++j) {
        topo.AddBidirectional(hosts[i], hosts[j], link_latency, 1e9);
      }
    }
    for (const auto& h : hosts) {
      topo.AddBidirectional("client", h, link_latency, 1e9);
    }
    network = std::make_unique<net::Network>(engine, std::move(topo), 17);
    cluster = std::make_unique<kb::KbCluster>(*network, hosts, 17);
    cluster->Start();
    engine.RunUntil(sim::SimTime::Seconds(2));
  }
};

/// Measures commit latency (simulated) of sequential client writes.
util::Samples MeasureCommitLatency(std::size_t replicas, int writes) {
  RaftWorld world(replicas, sim::SimTime::Millis(2));
  kb::KbClient client(*world.network, *world.cluster, "client");
  util::Samples latency_ms;
  for (int i = 0; i < writes; ++i) {
    const sim::SimTime start = world.engine.Now();
    bool done = false;
    client.Put("/bench/" + std::to_string(i), util::Json(i),
               [&](util::Status s) { done = s.ok(); });
    while (!done && world.engine.Now() < start + sim::SimTime::Seconds(10)) {
      world.engine.RunUntil(world.engine.Now() + sim::SimTime::Millis(1));
    }
    if (done) latency_ms.Add((world.engine.Now() - start).ToMillisF());
  }
  return latency_ms;
}

void PrintLatencyTable(bench::Report& report) {
  std::printf("=== A2: KB commit latency vs replication factor (2ms links) ===\n");
  std::printf("%-10s | %-10s | %-10s | %-10s\n", "replicas", "p50 (ms)",
              "p95 (ms)", "writes/s*");
  for (const std::size_t n : {1u, 3u, 5u, 7u}) {
    util::Samples lat = MeasureCommitLatency(n, 60);
    const double throughput = lat.p50() > 0 ? 1000.0 / lat.p50() : 0.0;
    std::printf("%-10zu | %10.2f | %10.2f | %10.1f\n", n, lat.p50(), lat.p95(),
                throughput);
    if (n == 3u) {
      report.AddMetric("commit_p50_ms_3_replicas", lat.p50(), "ms");
      report.AddMetric("commit_p95_ms_3_replicas", lat.p95(), "ms");
    }
  }
  std::printf("(*sequential closed-loop; simulated time)\n\n");
}

void BM_RaftCommit(benchmark::State& state) {
  // Wall-clock cost of simulating one replicated commit.
  const auto replicas = static_cast<std::size_t>(state.range(0));
  RaftWorld world(replicas, sim::SimTime::Millis(2));
  kb::KbClient client(*world.network, *world.cluster, "client");
  int i = 0;
  for (auto _ : state) {
    bool done = false;
    ++i;
    client.Put("/k/" + std::to_string(i), util::Json(i),
               [&](util::Status s) { done = s.ok(); });
    while (!done) {
      world.engine.RunUntil(world.engine.Now() + sim::SimTime::Millis(5));
    }
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_RaftCommit)->Arg(1)->Arg(3)->Arg(5)->ArgNames({"replicas"});

void BM_LocalStorePut(benchmark::State& state) {
  // The unreplicated floor: a bare MVCC store mutation.
  kb::Store store;
  int i = 0;
  for (auto _ : state) {
    ++i;
    benchmark::DoNotOptimize(store.Put("/k/" + std::to_string(i % 1024),
                                       util::Json(i)));
  }
}
BENCHMARK(BM_LocalStorePut);

void BM_WatchFanout(benchmark::State& state) {
  kb::Store store;
  const int watchers = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (int i = 0; i < watchers; ++i) {
    // LINT: deferred-capture-ok(default) -- watchers only fire inside the Put
    // loop below; the store and the counter die with this frame together
    store.Watch("/nodes/", [&](const kb::WatchEvent&) { ++events; });
  }
  int i = 0;
  for (auto _ : state) {
    ++i;
    store.Put("/nodes/n" + std::to_string(i % 64), util::Json(i));
  }
  benchmark::DoNotOptimize(events);
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_WatchFanout)->Arg(1)->Arg(16)->Arg(128)->ArgNames({"watchers"});

void BM_RangeScan(benchmark::State& state) {
  kb::Store store;
  for (int i = 0; i < 4096; ++i) {
    store.Put("/registry/nodes/n" + std::to_string(i), util::Json(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Range("/registry/nodes/"));
  }
}
BENCHMARK(BM_RangeScan);

void BM_RegistryAppendTelemetry(benchmark::State& state) {
  // One monitor sample appended to a series already at its 256-sample cap,
  // so every append also trims the oldest sample.
  kb::Store store;
  kb::ResourceRegistry registry(store);
  std::int64_t t = 0;
  for (; t < 256; ++t) registry.AppendTelemetry("n0", "utilization", {t, 0.5});
  for (auto _ : state) {
    registry.AppendTelemetry("n0", "utilization", {t, 0.5});
    ++t;
  }
  benchmark::DoNotOptimize(store.revision());
}
BENCHMARK(BM_RegistryAppendTelemetry);

void BM_RegistryPutNode(benchmark::State& state) {
  // One full node-record write, trust included, into a 1k-node registry that
  // a peer watches: the MIRTO agent's one registry write per observed node.
  // Writes sweep the nodes in turn, so every write replaces a live record.
  constexpr int kNodes = 1000;
  kb::Store store;
  kb::ResourceRegistry registry(store);
  std::vector<kb::NodeRecord> records;
  for (int n = 0; n < kNodes; ++n) {
    records.push_back({.node_id = "node-" + std::to_string(n),
                       .layer = "edge",
                       .kind = "hmpsoc",
                       .cpu_capacity = 8.0,
                       .mem_capacity_mb = 4096,
                       .security_level = 1,
                       .has_accelerator = true});
    registry.PutNode(records.back());
  }
  std::uint64_t events = 0;
  // LINT: deferred-capture-ok(default) -- the watcher only fires inside the
  // write loop below; the store and the counter die with this frame together
  store.Watch("/registry/nodes/", [&](const kb::WatchEvent&) { ++events; });
  std::uint64_t i = 0;
  for (auto _ : state) {
    kb::NodeRecord& record = records[i % kNodes];
    record.cpu_allocated = static_cast<double>(i % 8);
    record.mem_allocated_mb = i % 4096;
    record.energy_mj = util::MilliJoules(static_cast<double>(i));
    record.trust = {.value = 0.7, .healing = (i / kNodes) % 2 == 1,
                    .iteration = i};
    registry.PutNode(record);
    ++i;
  }
  benchmark::DoNotOptimize(events);
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_RegistryPutNode);

void PrintFailoverTable(bench::Report& report) {
  std::printf("=== A2b: leader failover downtime (5 replicas, 2ms links) ===\n");
  RaftWorld world(5, sim::SimTime::Millis(2));
  const int leader = world.cluster->LeaderIndex();
  if (leader < 0) {
    std::printf("no leader elected\n\n");
    return;
  }
  world.cluster->Crash(static_cast<std::size_t>(leader));
  const sim::SimTime crashed_at = world.engine.Now();
  while (world.cluster->LeaderIndex() < 0 &&
         world.engine.Now() < crashed_at + sim::SimTime::Seconds(30)) {
    world.engine.RunUntil(world.engine.Now() + sim::SimTime::Millis(10));
  }
  const double failover_ms = (world.engine.Now() - crashed_at).ToMillisF();
  report.AddMetric("leader_failover_ms_5_replicas", failover_ms, "ms");
  std::printf("new leader after %.1f ms (election timeout 150-300ms)\n\n",
              failover_ms);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = bench::StripValueFlag(argc, argv, "--out=", "");
  bench::Report report("A2_kb_raft_ablation", "kb_raft");
  report.set_seed(17);
  PrintLatencyTable(report);
  PrintFailoverTable(report);
  util::MustOk(report.Write(out_path));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
