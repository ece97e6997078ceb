// The four MIRTO Manager drivers in isolation.
#include <gtest/gtest.h>

#include "continuum/infrastructure.hpp"
#include "mirto/agent.hpp"
#include "mirto/managers.hpp"

namespace myrtus::mirto {
namespace {

using continuum::BuildInfrastructure;
using continuum::Infrastructure;

struct Fixture {
  sim::Engine engine;
  Infrastructure infra;
  sched::Cluster cluster;

  Fixture() : infra(BuildInfrastructure(engine, {})),
              cluster(engine, sched::Scheduler::Default()) {
    for (auto& n : infra.nodes) cluster.AddNode(n.get());
  }
};

std::vector<sched::PodSpec> SamplePods() {
  std::vector<sched::PodSpec> pods;
  sched::PodSpec a;
  a.name = "detector";
  a.cpu_request = 1.0;
  a.needs_accelerator = true;
  pods.push_back(a);
  sched::PodSpec b;
  b.name = "aggregator";
  b.cpu_request = 2.0;
  b.min_security = security::SecurityLevel::kMedium;
  pods.push_back(b);
  sched::PodSpec c;
  c.name = "archiver";
  c.cpu_request = 0.5;
  pods.push_back(c);
  return pods;
}

class WlStrategyTest : public ::testing::TestWithParam<PlacementStrategy> {};

TEST_P(WlStrategyTest, PlansAndExecutesFeasiblePlacement) {
  Fixture f;
  WlManager wl(f.cluster, GetParam(), 7);
  NetworkManager netmgr(f.infra.topology);
  std::vector<std::string> node_ids;
  for (auto& n : f.infra.nodes) node_ids.push_back(n->id());
  const auto costs = netmgr.LatencyCostMs(f.infra.DefaultGateway(), node_ids);

  const auto pods = SamplePods();
  auto directives = wl.PlanPlacement(pods, costs, {});
  ASSERT_TRUE(directives.ok()) << directives.status();
  ASSERT_TRUE(wl.Execute(pods, *directives).ok());
  EXPECT_EQ(f.cluster.RunningPods(), 3u);

  // Hard constraints hold regardless of strategy.
  const sched::PodView detector = f.cluster.FindPod("detector");
  ASSERT_TRUE(detector.valid());
  EXPECT_TRUE(f.cluster.FindNodeState(detector.node_id())->HasAccelerator());
  const sched::PodView aggregator = f.cluster.FindPod("aggregator");
  ASSERT_TRUE(aggregator.valid());
  EXPECT_TRUE(security::Satisfies(
      f.infra.FindNode(aggregator.node_id())->security_level(),
      security::SecurityLevel::kMedium));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, WlStrategyTest,
    ::testing::Values(PlacementStrategy::kStaticKube, PlacementStrategy::kGreedy,
                      PlacementStrategy::kPso, PlacementStrategy::kAco),
    [](const auto& suite_info) {
      std::string name(PlacementStrategyName(suite_info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(WlManager, VetoedNodesAreAvoided) {
  Fixture f;
  WlManager wl(f.cluster, PlacementStrategy::kGreedy, 7);
  sched::PodSpec pod;
  pod.name = "vision";
  pod.needs_accelerator = true;
  pod.layer_affinity = "edge";
  // Veto every accelerator edge node except edge-1.
  std::vector<std::string> vetoed = {"edge-0", "edge-2", "edge-3"};
  auto directives = wl.PlanPlacement({pod}, {}, vetoed);
  ASSERT_TRUE(directives.ok());
  ASSERT_TRUE(directives->count("vision") > 0);
  EXPECT_EQ(directives->at("vision"), "edge-1");
}

TEST(WlManager, StaticKubeProducesNoDirectives) {
  Fixture f;
  WlManager wl(f.cluster, PlacementStrategy::kStaticKube, 7);
  auto directives = wl.PlanPlacement(SamplePods(), {}, {});
  ASSERT_TRUE(directives.ok());
  EXPECT_TRUE(directives->empty());
}

TEST(NodeManager, HotDevicePromotedToFastestPoint) {
  sim::Engine engine;
  continuum::ComputeNode node(engine, "n", continuum::Layer::kEdge, "multicore",
                              security::SecurityLevel::kLow, 1024);
  node.AddDevice(continuum::MakeBigCore("n/big"));
  ASSERT_TRUE(node.SetOperatingPoint(0, 2).ok());  // eco

  // Saturate the device: utilization -> ~1.
  continuum::TaskDemand heavy;
  heavy.cycles = 2'000'000'000;
  node.Submit(heavy, 0, nullptr);
  engine.RunUntil(sim::SimTime::Millis(500));

  NodeManager mgr;
  auto decisions = mgr.PlanNode(node);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(decisions[0].changed);
  EXPECT_EQ(decisions[0].operating_point, 0u);
  ASSERT_TRUE(mgr.Execute(node, decisions[0]).ok());
  EXPECT_EQ(node.devices()[0].active_point_index(), 0u);
  EXPECT_EQ(mgr.reconfigurations(), 1u);
}

TEST(NodeManager, IdleDeviceDemotedToEco) {
  sim::Engine engine;
  continuum::ComputeNode node(engine, "n", continuum::Layer::kEdge, "multicore",
                              security::SecurityLevel::kLow, 1024);
  node.AddDevice(continuum::MakeBigCore("n/big"));
  engine.RunUntil(sim::SimTime::Seconds(1));  // fully idle
  NodeManager mgr;
  auto decisions = mgr.PlanNode(node);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(decisions[0].changed);
  EXPECT_EQ(decisions[0].operating_point,
            node.devices()[0].operating_points().size() - 1);
}

TEST(NodeManager, MidUtilizationHolds) {
  sim::Engine engine;
  continuum::ComputeNode node(engine, "n", continuum::Layer::kEdge, "multicore",
                              security::SecurityLevel::kLow, 1024);
  node.AddDevice(continuum::MakeBigCore("n/big"));
  // ~50% utilization.
  continuum::TaskDemand task;
  task.cycles = 1'440'000'000;  // 500ms at 1.8GHz*1.6
  node.Submit(task, 0, nullptr);
  engine.RunUntil(sim::SimTime::Seconds(1));
  NodeManager mgr;
  auto decisions = mgr.PlanNode(node);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_FALSE(decisions[0].changed);
}

TEST(NetworkManager, LatencyCostsFollowTopology) {
  Fixture f;
  NetworkManager mgr(f.infra.topology);
  const auto costs = mgr.LatencyCostMs("gw-0", {"edge-0", "fmdc-0", "cloud-0"});
  EXPECT_NEAR(costs.at("edge-0"), 2.0, 0.01);
  EXPECT_NEAR(costs.at("fmdc-0"), 5.0, 0.01);
  EXPECT_NEAR(costs.at("cloud-0"), 30.0, 0.01);
  auto nearest = mgr.NearestNode("gw-0", {"fmdc-0", "cloud-0"});
  ASSERT_TRUE(nearest.ok());
  EXPECT_EQ(*nearest, "fmdc-0");
}

TEST(NetworkManager, UnreachableNodesGetInfiniteCost) {
  net::Topology topo;
  topo.AddHost("island");
  topo.AddBidirectional("a", "b", sim::SimTime::Millis(1), 1e9);
  NetworkManager mgr(topo);
  const auto costs = mgr.LatencyCostMs("a", {"b", "island"});
  EXPECT_LT(costs.at("b"), 10.0);
  EXPECT_GE(costs.at("island"), 1e9);
  EXPECT_FALSE(mgr.NearestNode("a", {"island"}).ok());
}

TEST(SecurityManager, TrustDecaysOnFailuresAndRecovers) {
  PrivacySecurityManager psm(0.4);
  EXPECT_DOUBLE_EQ(psm.TrustOf("edge-0"), 1.0);
  std::uint64_t iteration = 0;
  for (int i = 0; i < 3; ++i) psm.RecordOutcome("edge-0", false, ++iteration);
  EXPECT_LT(psm.TrustOf("edge-0"), 0.4);
  EXPECT_EQ(psm.VetoedNodes(), std::vector<std::string>{"edge-0"});
  for (int i = 0; i < 60; ++i) psm.RecordOutcome("edge-0", true, ++iteration);
  EXPECT_GT(psm.TrustOf("edge-0"), 0.9);
  EXPECT_TRUE(psm.VetoedNodes().empty());
}

TEST(SecurityManager, SlotAndIdAddressTheSameTrust) {
  PrivacySecurityManager psm(0.4);
  // Slots handed out out of id order, and stable on repeat.
  const TrustSlot c = psm.Slot("node-c");
  const TrustSlot a = psm.Slot("node-a");
  EXPECT_NE(a, c);
  EXPECT_EQ(psm.Slot("node-c"), c);
  EXPECT_EQ(psm.TrustOf(a), 1.0);
  EXPECT_EQ(psm.TrustOf("never-seen"), 1.0);

  // Recorded through the slot, read through the id, and the other way round.
  // One outcome per node per iteration, iterations 1 to 3.
  EXPECT_TRUE(psm.RecordOutcome(c, false, 1));
  EXPECT_EQ(psm.TrustOf("node-c"), 0.7);
  EXPECT_EQ(psm.TrustOf("node-c"), psm.TrustOf(c));
  EXPECT_TRUE(psm.RecordOutcome("node-a", false, 1));
  EXPECT_EQ(psm.TrustOf(a), 0.7);
  // Both addresses drive one entry: alternating them compounds.
  EXPECT_TRUE(psm.RecordOutcome(a, false, 2));
  EXPECT_TRUE(psm.RecordOutcome("node-a", false, 3));
  EXPECT_EQ(psm.TrustOf(a), 0.7 * 0.7 * 0.7);
  EXPECT_EQ(psm.TrustOf("node-a"), psm.TrustOf(a));
  for (std::uint64_t i = 2; i <= 3; ++i) psm.RecordOutcome(c, false, i);

  // Vetoes come back in id order although "node-c" took its slot first.
  EXPECT_EQ(psm.VetoedNodes(),
            (std::vector<std::string>{"node-a", "node-c"}));

  // A node first seen late gets a working slot, placed in id order among
  // the vetoes and holding its transition like the others.
  const TrustSlot b = psm.Slot("node-b");
  EXPECT_NE(b, a);
  EXPECT_NE(b, c);
  EXPECT_EQ(psm.TrustOf(b), 1.0);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    EXPECT_TRUE(psm.RecordOutcome(b, false, i));
  }
  EXPECT_EQ(psm.TrustOf("node-b"), psm.TrustOf(b));
  EXPECT_EQ(psm.VetoedNodes(),
            (std::vector<std::string>{"node-a", "node-b", "node-c"}));
  // Each node's state is its transition, at iteration 1, from which a
  // record carrying it reads the same trust as the manager after iteration 3.
  for (const char* id : {"node-a", "node-b", "node-c"}) {
    const kb::NodeRecord record{.node_id = id,
                                .trust = psm.StateOf(psm.Slot(id))};
    EXPECT_EQ(record.trust,
              (kb::TrustState{.value = 0.7, .healing = false, .iteration = 1}))
        << id;
    EXPECT_EQ(kb::TrustAt(record, 3), psm.TrustOf(id)) << id;
  }
}

TEST(SecurityManager, PermitsChecksLevelAndTrust) {
  sim::Engine engine;
  continuum::ComputeNode low_node(engine, "edge-x", continuum::Layer::kEdge,
                                  "riscv", security::SecurityLevel::kLow, 512);
  continuum::ComputeNode high_node(engine, "fmdc-x", continuum::Layer::kFog,
                                   "fmdc", security::SecurityLevel::kHigh, 4096);
  PrivacySecurityManager psm(0.4);
  sched::PodSpec secure;
  secure.min_security = security::SecurityLevel::kHigh;
  EXPECT_FALSE(psm.Permits(secure, low_node));
  EXPECT_TRUE(psm.Permits(secure, high_node));
  for (std::uint64_t i = 1; i <= 5; ++i) psm.RecordOutcome("fmdc-x", false, i);
  EXPECT_FALSE(psm.Permits(secure, high_node)) << "distrusted node vetoed";
}

// Only transitions move a node's state: the first failure after successes
// and the first success after failures. Outcomes in between move the
// manager's trust, which a record carrying the state reads through
// kb::TrustAt.
TEST(SecurityManager, StateOfMovesOnlyAtTransitions) {
  PrivacySecurityManager psm;
  const TrustSlot slot = psm.Slot("edge-0");
  const auto record = [&psm, slot] {
    return kb::NodeRecord{.node_id = "edge-0", .trust = psm.StateOf(slot)};
  };
  EXPECT_EQ(psm.StateOf(slot), kb::TrustState{}) << "never failed: healed";
  psm.RecordOutcome(slot, false, 5);
  const kb::TrustState failed{.value = 0.7, .healing = false, .iteration = 5};
  EXPECT_EQ(psm.StateOf(slot), failed);
  for (std::uint64_t i = 6; i <= 8; ++i) psm.RecordOutcome(slot, false, i);
  EXPECT_EQ(psm.StateOf(slot), failed) << "decay steps are no transition";
  EXPECT_EQ(kb::TrustAt(record(), 8), psm.TrustOf(slot));

  psm.RecordOutcome(slot, true, 9);
  const kb::TrustState healing = psm.StateOf(slot);
  EXPECT_TRUE(healing.healing);
  EXPECT_EQ(healing.iteration, 9u);
  EXPECT_EQ(healing.value, psm.TrustOf(slot));
  std::uint64_t iteration = 9;
  while (psm.RecordOutcome(slot, true, ++iteration)) {
    EXPECT_EQ(psm.StateOf(slot), healing) << "healing steps are no transition";
  }
  EXPECT_EQ(kb::TrustAt(record(), iteration), psm.TrustOf(slot));
  EXPECT_LT(psm.TrustOf(slot), 1.0);
}

// After an operating-point change every capacity read agrees: the node's
// cached CpuCapacity(), the scheduler's CpuFree(), and the record the agent's
// next Monitor pass writes.
TEST(NodeManager, OperatingPointChangeRefreshesEveryCapacityRead) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  net::Topology topo = infra.topology;
  topo.AddBidirectional("mirto-agent", "gw-0", sim::SimTime::Micros(100), 1e9);
  net::Network network(engine, std::move(topo), 3);
  kb::Store store;
  AgentConfig config;
  config.host = "mirto-agent";
  MirtoAgent agent(network, cluster, infra, store,
                   AuthModule(util::BytesOf("s3cret")), config);

  continuum::ComputeNode& node = *infra.nodes[0];
  const sched::NodeState* state = cluster.FindNodeState(node.id());
  ASSERT_NE(state, nullptr);
  // The capacity formula, evaluated over the devices' active points.
  const auto capacity_of_points = [&node] {
    double total = 0.0;
    for (const continuum::Device& d : node.devices()) {
      total += static_cast<double>(d.parallel_units()) *
               d.active_point().speedup * d.active_point().clock_ghz;
    }
    return total;
  };
  const auto expect_reads = [&](double capacity) {
    EXPECT_EQ(node.CpuCapacity(), capacity);
    EXPECT_EQ(state->CpuFree(), capacity - state->cpu_allocated());
    agent.RunMapeIteration();
    auto record = agent.registry().GetNode(node.id());
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->cpu_capacity, capacity);
  };

  const double fastest = node.CpuCapacity();
  EXPECT_EQ(fastest, capacity_of_points());
  const std::size_t eco = node.devices()[0].operating_points().size() - 1;
  ASSERT_GT(eco, 0u);
  ASSERT_TRUE(node.SetOperatingPoint(0, eco).ok());
  const double parked = capacity_of_points();
  ASSERT_LT(parked, fastest);
  expect_reads(parked);
  // The pass above parked every idle device; moving one back is observed
  // by the next pass through the change epoch alone.
  engine.RunUntil(sim::SimTime::Millis(250));
  ASSERT_TRUE(node.SetOperatingPoint(0, 0).ok());
  expect_reads(capacity_of_points());

  EXPECT_FALSE(node.SetOperatingPoint(node.devices().size(), 0).ok());
  EXPECT_FALSE(node.SetOperatingPoint(0, eco + 1).ok());
}

}  // namespace
}  // namespace myrtus::mirto
