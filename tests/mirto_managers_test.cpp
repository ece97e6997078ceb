// The four MIRTO Manager drivers in isolation.
#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "continuum/infrastructure.hpp"
#include "mirto/agent.hpp"
#include "mirto/managers.hpp"
#include "util/rng.hpp"

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
  for (int i = 0; i < 3; ++i) psm.RecordOutcome("edge-0", false);
  EXPECT_LT(psm.TrustOf("edge-0"), 0.4);
  EXPECT_EQ(psm.VetoedNodes(), std::vector<std::string>{"edge-0"});
  for (int i = 0; i < 60; ++i) psm.RecordOutcome("edge-0", true);
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
  EXPECT_TRUE(psm.RecordOutcome(c, false));
  EXPECT_EQ(psm.TrustOf("node-c"), 0.7);
  EXPECT_EQ(psm.TrustOf("node-c"), psm.TrustOf(c));
  EXPECT_TRUE(psm.RecordOutcome("node-a", false));
  EXPECT_EQ(psm.TrustOf(a), 0.7);
  // Both addresses drive one entry: alternating them compounds.
  EXPECT_TRUE(psm.RecordOutcome(a, false));
  EXPECT_TRUE(psm.RecordOutcome("node-a", false));
  EXPECT_EQ(psm.TrustOf(a), 0.7 * 0.7 * 0.7);
  EXPECT_EQ(psm.TrustOf("node-a"), psm.TrustOf(a));
  for (int i = 0; i < 2; ++i) psm.RecordOutcome(c, false);

  // Vetoes come back in id order although "node-c" took its slot first.
  EXPECT_EQ(psm.VetoedNodes(),
            (std::vector<std::string>{"node-a", "node-c"}));

  // A node first seen late gets a working slot, placed in id order among
  // the vetoes and published like the others.
  kb::Store store;
  kb::ResourceRegistry registry(store);
  for (const char* id : {"node-a", "node-b", "node-c"}) {
    registry.PutNode({.node_id = id, .layer = "edge"});
  }
  psm.PublishTrust(registry);
  const TrustSlot b = psm.Slot("node-b");
  EXPECT_NE(b, a);
  EXPECT_NE(b, c);
  EXPECT_EQ(psm.TrustOf(b), 1.0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(psm.RecordOutcome(b, false));
  EXPECT_EQ(psm.TrustOf("node-b"), psm.TrustOf(b));
  EXPECT_EQ(psm.VetoedNodes(),
            (std::vector<std::string>{"node-a", "node-b", "node-c"}));
  psm.PublishTrust(registry);
  for (const char* id : {"node-a", "node-b", "node-c"}) {
    const auto record = registry.GetNode(id);
    ASSERT_TRUE(record.ok()) << id;
    EXPECT_EQ(record->trust_score, psm.TrustOf(id)) << id;
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
  for (int i = 0; i < 5; ++i) psm.RecordOutcome("fmdc-x", false);
  EXPECT_FALSE(psm.Permits(secure, high_node)) << "distrusted node vetoed";
}

TEST(SecurityManager, PublishesTrustToRegistry) {
  kb::Store store;
  kb::ResourceRegistry registry(store);
  registry.PutNode({.node_id = "edge-0", .layer = "edge"});
  PrivacySecurityManager psm;
  psm.RecordOutcome("edge-0", false);
  psm.PublishTrust(registry);
  auto record = registry.GetNode("edge-0");
  ASSERT_TRUE(record.ok());
  EXPECT_NEAR(record->trust_score, 0.7, 1e-9);
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

// The batched PublishTrust against the per-key PutTrust loop it replaced:
// the same pending set, published in node-id order by both, must leave the
// same store behind (every key's bytes, revisions, version and lease, the
// store revision) and deliver the same watch events, through external
// non-canonical writes, a watcher that deletes and inserts registry keys
// mid-walk, and a node whose record appears late.
class PublishTrustWorld {
 public:
  explicit PublishTrustWorld(std::vector<std::string>* armed)
      : armed_(armed) {
    own_watch_ = store_.Watch(kb::ResourceRegistry::NodeKey(""),
                              [this](const kb::WatchEvent& e) {
                                own_events_.push_back(Render(e));
                              });
    store_.Watch("/", [this](const kb::WatchEvent& e) {
      events_.push_back(Render(e));
    });
    store_.Watch(kb::ResourceRegistry::NodeKey(""),
                 [this](const kb::WatchEvent& e) { Meddle(e); });
  }

  kb::Store& store() { return store_; }
  kb::ResourceRegistry& registry() { return registry_; }
  std::int64_t own_watch() const { return own_watch_; }

  /// Everything observable: keys with MVCC metadata, the revision, and the
  /// events delivered since the last snapshot.
  std::string Snapshot() {
    std::string out = "rev " + std::to_string(store_.revision()) + "\n";
    for (const kb::KeyValue& kv : store_.Range("/")) out += Render(kv) + "\n";
    for (const std::string& e : events_) out += "event " + e + "\n";
    for (const std::string& e : own_events_) out += "own " + e + "\n";
    events_.clear();
    own_events_.clear();
    return out;
  }

  void set_publishing(bool on) { publishing_ = on; }
  std::size_t meddles() const { return done_.size(); }

 private:
  static std::string Render(const kb::KeyValue& kv) {
    return kv.key + " " + kv.value.Dump() + " c" +
           std::to_string(kv.create_revision) + " m" +
           std::to_string(kv.mod_revision) + " v" + std::to_string(kv.version) +
           " l" + std::to_string(kv.lease_id);
  }
  static std::string Render(const kb::WatchEvent& e) {
    return (e.type == kb::WatchEvent::Type::kPut ? "put " : "del ") +
           Render(e.kv);
  }

  // While a publish runs, a trust write to an armed key deletes that very
  // key (the walk's current entry), the next armed-ahead key, and inserts a
  // fresh record, all re-entrantly.
  void Meddle(const kb::WatchEvent& e) {
    if (!publishing_ || e.type != kb::WatchEvent::Type::kPut) return;
    for (std::size_t i = 0; i + 2 < armed_->size(); i += 3) {
      if (e.kv.key != (*armed_)[i] || done_.count(i) > 0) continue;
      done_.insert(i);
      store_.Delete((*armed_)[i]);
      store_.Delete((*armed_)[i + 1]);
      const std::string id =
          (*armed_)[i + 2].substr(kb::ResourceRegistry::NodeKey("").size());
      store_.Put((*armed_)[i + 2],
                 kb::NodeRecord{.node_id = id, .layer = "fog"}.ToJson());
      return;
    }
  }

  kb::Store store_;
  kb::ResourceRegistry registry_{store_};
  std::int64_t own_watch_ = 0;
  std::vector<std::string> events_;
  std::vector<std::string> own_events_;
  std::vector<std::string>* armed_;
  std::set<std::size_t> done_;
  bool publishing_ = false;
};

TEST(SecurityManager, BatchedPublishMatchesPerKeyPutTrustLoop) {
  constexpr std::size_t kNodes = 300;
  std::vector<std::string> ids;
  for (std::size_t n = 0; n < kNodes; ++n) {
    ids.push_back("node-" + std::to_string(n));  // id order != index order
  }
  std::vector<std::string> armed;
  PublishTrustWorld batched(&armed);
  PublishTrustWorld reference(&armed);
  PrivacySecurityManager psm;
  PrivacySecurityManager reference_trust;  // values only
  std::set<std::string> reference_pending;

  const auto both = [&](auto&& fn) {
    fn(batched);
    fn(reference);
  };
  // Every node but the last two is registered up front, some under a lease.
  both([&](PublishTrustWorld& w) {
    const std::int64_t lease = w.store().GrantLease(1'000'000);
    for (std::size_t n = 0; n + 2 < kNodes; ++n) {
      const kb::NodeRecord record{.node_id = ids[n], .layer = "edge"};
      if (n % 7 == 0) {
        w.store().Put(kb::ResourceRegistry::NodeKey(ids[n]), record.ToJson(),
                      lease);
      } else {
        w.registry().PutNode(record, w.own_watch());
      }
    }
  });

  util::Rng rng(20261018, "publish-trust-differential");
  for (int step = 0; step < 120; ++step) {
    // A burst of outcomes: failures start healing runs, successes heal.
    const std::size_t outcomes = 1 + rng.NextBounded(40);
    for (std::size_t k = 0; k < outcomes; ++k) {
      const std::string& id = ids[rng.NextBounded(kNodes)];
      const bool success = rng.NextBool(0.7);
      psm.RecordOutcome(id, success);
      if (reference_trust.RecordOutcome(id, success)) {
        reference_pending.insert(id);
      }
    }
    const double roll = rng.NextDouble();
    if (roll < 0.2) {
      // An external writer stores a non-canonical record: missing fields
      // and ints where ToJson writes doubles.
      const std::string& id = ids[rng.NextBounded(kNodes - 2)];
      const util::Json noncanonical = util::Json::MakeObject()
                                          .Set("node_id", id)
                                          .Set("layer", "edge")
                                          .Set("cpu_capacity", 8)
                                          .Set("trust_score", 1);
      both([&](PublishTrustWorld& w) {
        w.store().Put(kb::ResourceRegistry::NodeKey(id), noncanonical);
      });
    } else if (roll < 0.3 && !reference_pending.empty()) {
      // Arm the meddler on a pending node and two others: this publish's
      // trust write to the first deletes it and the second and (re)creates
      // the third.
      auto trigger = reference_pending.begin();
      std::advance(trigger, rng.NextBounded(reference_pending.size()));
      if (*trigger != ids[kNodes - 1]) {  // keep the late node's record
        armed.push_back(kb::ResourceRegistry::NodeKey(*trigger));
        for (int k = 0; k < 2; ++k) {
          armed.push_back(kb::ResourceRegistry::NodeKey(
              ids[rng.NextBounded(kNodes - 2)]));
        }
      }
    } else if (roll < 0.4) {
      // A Monitor-style canonical rewrite by the publisher's registry.
      const std::string& id = ids[rng.NextBounded(kNodes - 2)];
      both([&](PublishTrustWorld& w) {
        w.registry().PutNode(
            {.node_id = id, .layer = "edge", .trust_score = psm.TrustOf(id)},
            w.own_watch());
      });
    }
    if (step == 60) {
      // The late node's record appears; its queued trust lands next publish.
      both([&](PublishTrustWorld& w) {
        w.registry().PutNode({.node_id = ids[kNodes - 1], .layer = "cloud"},
                             w.own_watch());
      });
    }
    if (step < 60 && step % 10 == 0) {
      psm.RecordOutcome(ids[kNodes - 1], false);
      if (reference_trust.RecordOutcome(ids[kNodes - 1], false)) {
        reference_pending.insert(ids[kNodes - 1]);
      }
    }

    batched.set_publishing(true);
    psm.PublishTrust(batched.registry(), batched.own_watch());
    batched.set_publishing(false);
    reference.set_publishing(true);
    for (auto it = reference_pending.begin(); it != reference_pending.end();) {
      if (reference.registry().PutTrust(*it, reference_trust.TrustOf(*it),
                                        reference.own_watch())) {
        it = reference_pending.erase(it);
      } else {
        ++it;
      }
    }
    reference.set_publishing(false);
    ASSERT_EQ(batched.Snapshot(), reference.Snapshot()) << "step " << step;
  }

  // Not vacuous: the late node queued until its record existed, then landed.
  auto late = batched.registry().GetNode(ids[kNodes - 1]);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->trust_score, psm.TrustOf(ids[kNodes - 1]));
  EXPECT_LT(late->trust_score, 1.0);
  EXPECT_GE(batched.meddles(), 3u);
  EXPECT_GT(batched.store().revision(), 2000);
}

}  // namespace
}  // namespace myrtus::mirto
