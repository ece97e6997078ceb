// Experiment A6: fault-injection ablation. The continuum keeps operating
// through lossy links and node churn only because every control-plane RPC
// rides Network::CallWithRetry and the scheduler reconciles displaced pods.
// This bench sweeps per-hop loss × retry policy (commit rate and latency of
// the Raft KB, with the retry layer on vs off) and node-kill chaos with the
// reconcile loop on vs off (placement success) — the "with/without"
// comparison rows the robustness layer is judged by.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/report.hpp"
#include "continuum/infrastructure.hpp"
#include "kb/cluster.hpp"
#include "sched/controller.hpp"
#include "sim/chaos.hpp"
#include "util/stats.hpp"

using namespace myrtus;

namespace {

int g_writes_per_cell = 30;
sim::SimTime g_chaos_horizon = sim::SimTime::Seconds(20);

struct LossyRaftWorld {
  sim::Engine engine;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<kb::KbCluster> cluster;

  LossyRaftWorld(double loss_rate, bool with_retry, std::uint64_t seed = 23) {
    net::Topology topo;
    std::vector<net::HostId> hosts = {"kb-0", "kb-1", "kb-2"};
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      for (std::size_t j = i + 1; j < hosts.size(); ++j) {
        topo.AddBidirectional(hosts[i], hosts[j], sim::SimTime::Millis(2), 1e9,
                              loss_rate);
      }
    }
    for (const auto& h : hosts) {
      topo.AddBidirectional("client", h, sim::SimTime::Millis(2), 1e9,
                            loss_rate);
    }
    network = std::make_unique<net::Network>(engine, std::move(topo), seed);
    kb::RaftConfig config;
    if (!with_retry) config.rpc_retry = net::RetryPolicy::None();
    cluster = std::make_unique<kb::KbCluster>(*network, hosts, seed, config);
    cluster->Start();
    engine.RunUntil(sim::SimTime::Seconds(3));
  }
};

void PrintLossSweepTable(bench::Report& report) {
  std::printf(
      "=== A6: Raft commit under per-hop loss, CallWithRetry on vs off "
      "(3 replicas, 2ms links, %d writes/cell) ===\n",
      g_writes_per_cell);
  std::printf("%-8s | %-9s | %-12s | %-10s | %-10s | %-10s\n", "loss",
              "retry", "committed", "p50 (ms)", "p95 (ms)", "rpc retries");
  for (const double loss : {0.0, 0.05, 0.10, 0.20}) {
    for (const bool with_retry : {false, true}) {
      LossyRaftWorld world(loss, with_retry);
      if (world.cluster->LeaderIndex() < 0) {
        std::printf("%-8.2f | %-9s | %12s | %10s | %10s | %10s\n", loss,
                    with_retry ? "on" : "off", "no leader", "-", "-", "-");
        continue;
      }
      kb::KbClient client(*world.network, *world.cluster, "client");
      // "off" means no transport-level retries anywhere: Raft peer RPCs
      // (set in LossyRaftWorld) and the client's legs fall back to single
      // legacy attempts with long timeouts.
      if (!with_retry) client.set_rpc_retry(net::RetryPolicy::None());
      util::Samples latency_ms;
      int committed = 0;
      for (int i = 0; i < g_writes_per_cell; ++i) {
        const sim::SimTime start = world.engine.Now();
        bool done = false;
        bool ok = false;
        client.Put("/bench/" + std::to_string(i), util::Json(i),
                   [&](util::Status s) {
                     done = true;
                     ok = s.ok();
                   });
        while (!done &&
               world.engine.Now() < start + sim::SimTime::Seconds(15)) {
          world.engine.RunUntil(world.engine.Now() + sim::SimTime::Millis(1));
        }
        if (ok) {
          ++committed;
          latency_ms.Add((world.engine.Now() - start).ToMillisF());
        }
      }
      std::printf("%-8.2f | %-9s | %5d /%5d | %10.1f | %10.1f | %10llu\n",
                  loss, with_retry ? "on" : "off", committed,
                  g_writes_per_cell, latency_ms.p50(), latency_ms.p95(),
                  static_cast<unsigned long long>(world.network->retries()));
      // The headline robustness cell: sim-time results are seed-deterministic,
      // so they gate the regression diff.
      if (loss == 0.10 && with_retry) {
        report.AddMetric("raft_commit_rate_loss10_retry",
                         g_writes_per_cell > 0
                             ? static_cast<double>(committed) /
                                   g_writes_per_cell
                             : 0.0,
                         "fraction", /*higher_is_better=*/true);
        report.AddMetric("raft_commit_p95_ms_loss10_retry", latency_ms.p95(),
                         "ms");
      }
    }
  }
  std::printf(
      "(loss is i.i.d. per hop; each RPC crosses the hop twice, so one\n"
      " attempt at loss 0.10 fails ~19%% of the time)\n\n");
}

void PrintNodeChurnTable(bench::Report& report) {
  std::printf(
      "=== A6b: placement success under node-kill chaos, reconcile loop "
      "on vs off (6 replicas, 3 flapping nodes, %.0fs horizon) ===\n",
      g_chaos_horizon.ToSecondsF());
  std::printf("%-10s | %-10s | %-12s | %-12s | %-11s\n", "chaos", "reconcile",
              "mean ready", "final ready", "reschedules");
  for (const bool chaos_on : {false, true}) {
    for (const bool reconcile_on : {false, true}) {
      sim::Engine engine;
      continuum::Infrastructure infra =
          continuum::BuildInfrastructure(engine, {});
      sched::Cluster cluster(engine, sched::Scheduler::Default());
      for (auto& n : infra.nodes) cluster.AddNode(n.get());
      sched::Deployment dep;
      dep.name = "svc";
      dep.pod_template.cpu_request = 0.25;
      dep.replicas = 6;
      cluster.ApplyDeployment(dep);
      cluster.Reconcile();
      if (reconcile_on) cluster.StartReconcileLoop(sim::SimTime::Millis(100));

      sim::ChaosController chaos(engine, 31);
      if (chaos_on) {
        for (const char* id : {"edge-0", "edge-1", "fmdc-0"}) {
          continuum::ComputeNode* node = infra.FindNode(id);
          chaos.RegisterTarget(
              id, [node] { node->SetUp(false); },
              [node] { node->SetUp(true); });
          chaos.ScheduleRandomFaults(id, sim::SimTime::Millis(500),
                                     g_chaos_horizon, sim::SimTime::Seconds(3),
                                     sim::SimTime::Seconds(2));
        }
      }
      // Placement success = replicas actually serving, i.e. bound to a node
      // that is up. (DeploymentReadyReplicas alone goes stale without the
      // reconcile loop: nothing re-phases pods stranded on dead nodes.)
      const auto healthy_replicas = [&] {
        int healthy = 0;
        for (const auto& n : infra.nodes) {
          if (!n->up()) continue;
          for (const sched::PodView& p : cluster.PodsOnNode(n->id())) {
            if (p.spec().name.rfind("svc", 0) == 0) ++healthy;
          }
        }
        return healthy;
      };
      double healthy_sum = 0.0;
      int samples = 0;
      while (engine.Now() < g_chaos_horizon) {
        engine.RunUntil(engine.Now() + sim::SimTime::Millis(200));
        healthy_sum += healthy_replicas();
        ++samples;
      }
      const double mean_healthy = samples > 0 ? healthy_sum / samples : 0.0;
      if (chaos_on && reconcile_on) {
        report.AddMetric("mean_healthy_replicas_chaos", mean_healthy,
                         "replicas", /*higher_is_better=*/true);
        report.AddMetric("final_healthy_replicas_chaos",
                         static_cast<double>(healthy_replicas()), "replicas",
                         /*higher_is_better=*/true);
      }
      std::printf("%-10s | %-10s | %6.2f /%3d | %7d /%3d | %11llu\n",
                  chaos_on ? "on" : "off", reconcile_on ? "on" : "off",
                  mean_healthy, dep.replicas, healthy_replicas(),
                  dep.replicas,
                  static_cast<unsigned long long>(cluster.reschedules()));
      cluster.StopReconcileLoop();
    }
  }
  std::printf(
      "(mean healthy replicas sampled every 200ms; without reconciliation,\n"
      " pods on killed nodes stay lost for the rest of the run)\n\n");
}

void BM_ChaosRandomSchedule(benchmark::State& state) {
  // Host-side cost of drawing and replaying one seeded fault timeline.
  const auto targets = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    sim::ChaosController chaos(engine, 5);
    for (int i = 0; i < targets; ++i) {
      std::string target = "t";
      target += std::to_string(i);
      chaos.RegisterTarget(target, [] {}, [] {});
      chaos.ScheduleRandomFaults(target, sim::SimTime::Zero(),
                                 sim::SimTime::Seconds(60),
                                 sim::SimTime::Seconds(1),
                                 sim::SimTime::Millis(200));
    }
    engine.Run();
    benchmark::DoNotOptimize(chaos.injections());
  }
}
BENCHMARK(BM_ChaosRandomSchedule)->Arg(1)->Arg(8)->Arg(64)->ArgNames({"targets"});

void BM_CallWithRetryLossyLink(benchmark::State& state) {
  // Wall cost of one retried RPC over a 25%-lossy hop.
  sim::Engine engine;
  net::Topology topo;
  topo.AddBidirectional("a", "b", sim::SimTime::Millis(1), 1e9, 0.25);
  net::Network network(engine, std::move(topo), 13);
  network.RegisterRpc("b", "echo",
                      [](const net::HostId&, const util::Json& req)
                          -> util::StatusOr<util::Json> { return req; });
  net::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = sim::SimTime::Millis(10);
  policy.attempt_timeout = sim::SimTime::Millis(50);
  int i = 0;
  for (auto _ : state) {
    bool done = false;
    network.CallWithRetry("a", "b", "echo", util::Json(++i),
                          [&](util::StatusOr<util::Json>) { done = true; },
                          policy);
    while (!done) {
      engine.RunUntil(engine.Now() + sim::SimTime::Millis(5));
    }
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_CallWithRetryLossyLink);

}  // namespace

int main(int argc, char** argv) {
  // `--quick` keeps CI smoke runs to a few simulated seconds; strip it
  // before benchmark::Initialize, which rejects unknown flags.
  const bool quick = bench::StripFlag(argc, argv, "--quick");
  if (quick) {
    g_writes_per_cell = 4;
    g_chaos_horizon = sim::SimTime::Seconds(5);
  }
  const std::string out_path = bench::StripValueFlag(argc, argv, "--out=", "");
  bench::Report report("A6_chaos_ablation", "chaos");
  report.set_mode(quick ? "quick" : "full");
  report.set_seed(23);
  report.set_sim_ms(g_chaos_horizon.ToMillisF());
  PrintLossSweepTable(report);
  PrintNodeChurnTable(report);
  util::MustOk(report.Write(out_path));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
