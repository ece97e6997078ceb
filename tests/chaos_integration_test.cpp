// End-to-end chaos: the ChaosController driving real fault hooks (lossy
// links, link partitions, node kills) against Raft and the scheduler, with
// CallWithRetry providing the graceful degradation ISSUE acceptance demands.
#include <gtest/gtest.h>

#include <algorithm>

#include "continuum/infrastructure.hpp"
#include "kb/cluster.hpp"
#include "net/transport.hpp"
#include "sched/controller.hpp"
#include "sim/chaos.hpp"

namespace myrtus {
namespace {

using sim::SimTime;

struct RaftFixture {
  sim::Engine engine;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<kb::KbCluster> cluster;

  RaftFixture(std::size_t n, double loss_rate, std::uint64_t seed = 1) {
    net::Topology topo;
    std::vector<net::HostId> hosts;
    for (std::size_t i = 0; i < n; ++i) {
      hosts.push_back("kb-" + std::to_string(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        topo.AddBidirectional(hosts[i], hosts[j], SimTime::Millis(2), 1e9,
                              loss_rate);
      }
    }
    topo.AddHost("client");
    for (const auto& h : hosts) {
      topo.AddBidirectional("client", h, SimTime::Millis(2), 1e9, loss_rate);
    }
    net = std::make_unique<net::Network>(engine, std::move(topo), seed);
    cluster = std::make_unique<kb::KbCluster>(*net, hosts, seed);
    cluster->Start();
  }
};

// ISSUE acceptance: with 10% per-hop loss, Raft (on CallWithRetry) still
// elects and commits. Each RPC crosses the hop twice, so a single attempt
// fails ~19% of the time — without retries, replication stalls regularly.
TEST(ChaosIntegration, RaftCommitsUnderTenPercentPerHopLoss) {
  RaftFixture f(3, /*loss_rate=*/0.10, /*seed=*/5);
  f.engine.RunUntil(SimTime::Seconds(3));
  ASSERT_GE(f.cluster->LeaderIndex(), 0);

  kb::KbClient client(*f.net, *f.cluster, "client");
  int acks = 0;
  constexpr int kPuts = 20;
  for (int i = 0; i < kPuts; ++i) {
    client.Put("/lossy/" + std::to_string(i), util::Json(i),
               [&](util::Status s) {
                 if (s.ok()) ++acks;
               });
  }
  f.engine.RunUntil(f.engine.Now() + SimTime::Seconds(20));
  EXPECT_GE(acks, kPuts * 95 / 100)
      << "retry layer must carry Raft through 10% loss";
  EXPECT_GT(f.net->retries(), 0u) << "loss this high must trigger retries";
}

// Chaos partitions a follower's links on a seeded-random schedule while a
// client keeps writing. Commits only need a majority, so every write lands,
// and the flapped follower converges once its last down-phase ends.
TEST(ChaosIntegration, LinkFlappingFollowerDoesNotStallCommits) {
  RaftFixture f(3, /*loss_rate=*/0.0, /*seed=*/9);
  sim::ChaosController chaos(f.engine, 42);

  const net::HostId victim = "kb-2";
  std::vector<std::size_t> victim_links;
  auto& topo = f.net->topology();
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const net::Link& l = topo.link(i);
    if (l.from == victim || l.to == victim) victim_links.push_back(i);
  }
  chaos.RegisterTarget(
      "links:kb-2",
      [&] {
        for (const std::size_t i : victim_links) topo.SetLinkUp(i, false);
      },
      [&] {
        for (const std::size_t i : victim_links) topo.SetLinkUp(i, true);
      });
  chaos.ScheduleRandomFaults("links:kb-2", SimTime::Seconds(3),
                             SimTime::Seconds(25),
                             /*mean_up=*/SimTime::Seconds(2),
                             /*mean_down=*/SimTime::Seconds(1));

  f.engine.RunUntil(SimTime::Seconds(3));
  ASSERT_GE(f.cluster->LeaderIndex(), 0);
  kb::KbClient client(*f.net, *f.cluster, "client");
  int acks = 0;
  constexpr int kPuts = 10;
  for (int i = 0; i < kPuts; ++i) {
    client.Put("/flap/" + std::to_string(i), util::Json(i),
               [&](util::Status s) {
                 if (s.ok()) ++acks;
               });
  }
  f.engine.RunUntil(SimTime::Seconds(40));
  EXPECT_GT(chaos.injections(), 0u);
  EXPECT_FALSE(chaos.IsFaulty("links:kb-2")) << "horizon restores the links";
  EXPECT_EQ(acks, kPuts);

  // The flapped follower caught back up after its final heal.
  for (int i = 0; i < kPuts; ++i) {
    auto kv = f.cluster->replica(2).store->Get("/flap/" + std::to_string(i));
    EXPECT_TRUE(kv.ok()) << "follower missing /flap/" << i;
  }
}

// Graceful degradation: chaos kills nodes under a deployment; the
// reconciliation loop evicts their pods and rebuilds the replicas on
// survivors, so placement success stays at 100% of desired once healed.
TEST(ChaosIntegration, ReconcileReschedulesPodsOffChaosKilledNodes) {
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
  ASSERT_EQ(cluster.DeploymentReadyReplicas("svc"), 6);
  cluster.StartReconcileLoop(SimTime::Millis(100));

  sim::ChaosController chaos(engine, 7);
  for (const char* id : {"edge-0", "edge-1", "fmdc-0"}) {
    continuum::ComputeNode* node = infra.FindNode(id);
    ASSERT_NE(node, nullptr) << id;
    chaos.RegisterTarget(
        id, [node] { node->SetUp(false); }, [node] { node->SetUp(true); });
  }
  chaos.ScheduleFault("edge-0", SimTime::Millis(500), SimTime::Seconds(2));
  chaos.ScheduleFault("edge-1", SimTime::Seconds(1), SimTime::Seconds(2));
  chaos.ScheduleFault("fmdc-0", SimTime::Millis(1500), SimTime::Seconds(2));

  // Mid-fault: dead nodes hold no pods, replicas rebuilt elsewhere.
  engine.RunUntil(SimTime::Millis(1800));
  EXPECT_EQ(chaos.active_faults(), 3u);
  for (const char* id : {"edge-0", "edge-1", "fmdc-0"}) {
    EXPECT_TRUE(cluster.PodsOnNode(id).empty())
        << "pods left on chaos-killed node " << id;
  }
  EXPECT_EQ(cluster.DeploymentReadyReplicas("svc"), 6)
      << "survivors must absorb the displaced replicas";
  EXPECT_GT(cluster.evictions(), 0u);

  // After all faults clear, the deployment is still whole and the chaos
  // timeline recorded every inject/restore pair.
  engine.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(chaos.active_faults(), 0u);
  EXPECT_EQ(cluster.DeploymentReadyReplicas("svc"), 6);
  EXPECT_EQ(chaos.injections(), 3u);
  EXPECT_EQ(chaos.restores(), 3u);
  const auto edge0_injects =
      std::count_if(chaos.timeline().begin(), chaos.timeline().end(),
                    [](const sim::ChaosEvent& e) {
                      return e.target == "edge-0" && e.injected;
                    });
  EXPECT_EQ(edge0_injects, 1);
  cluster.StopReconcileLoop();
}

}  // namespace
}  // namespace myrtus
