// MIRTO agent: authentication, API daemon, MAPE-K loop reactions, LIQO
// peering, and multi-agent contract-net negotiation.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "dpe/pipeline.hpp"
#include "mirto/agent.hpp"
#include "mirto/engine.hpp"
#include "mirto/peering.hpp"
#include "oracle/mape_oracle.hpp"

namespace myrtus::mirto {
namespace {

using continuum::BuildInfrastructure;
using continuum::Infrastructure;
using continuum::Layer;
using sim::SimTime;

TEST(AuthModule, TokenRoundtrip) {
  AuthModule auth(util::BytesOf("secret"));
  const std::string token = auth.IssueToken("dpe-tool");
  auto principal = auth.Authenticate(token);
  ASSERT_TRUE(principal.ok());
  EXPECT_EQ(*principal, "dpe-tool");
}

TEST(AuthModule, RejectsForgedAndMalformedTokens) {
  AuthModule auth(util::BytesOf("secret"));
  AuthModule other(util::BytesOf("other-secret"));
  EXPECT_FALSE(auth.Authenticate("no-dot-token").ok());
  EXPECT_FALSE(auth.Authenticate("user.deadbeef").ok());
  EXPECT_FALSE(auth.Authenticate(other.IssueToken("user")).ok());
  // Principal swap invalidates the MAC.
  std::string token = auth.IssueToken("alice");
  token.replace(0, 5, "mallo");
  EXPECT_FALSE(auth.Authenticate(token).ok());
}

tosca::CsarPackage TelerehabPackage() {
  dpe::DpeInput input;
  input.app_name = "telerehab";
  util::MustOk(input.graph.AddActor({"pose", 30'000'000, 4096, true, 0.8}));
  util::MustOk(input.graph.AddActor({"score", 5'000'000, 1024, false, 0.2}));
  util::MustOk(input.graph.AddActor({"feedback", 1'000'000, 512, false, 0.0}));
  util::MustOk(input.graph.AddActor({"archive", 2'000'000, 65536, false, 0.0}));
  util::MustOk(input.graph.AddChannel({"pose", "score", 1, 1, 8192}));
  util::MustOk(input.graph.AddChannel({"score", "feedback", 1, 1, 256}));
  util::MustOk(input.graph.AddChannel({"score", "archive", 1, 1, 4096}));
  input.deadline_ms = 500;
  input.security_level = "medium";
  dpe::DpePipeline pipeline(5);
  auto out = pipeline.Run(input);
  EXPECT_TRUE(out.ok());
  return out->package;
}

struct AgentFixture {
  sim::Engine engine;
  Infrastructure infra;
  std::unique_ptr<net::Network> net;
  sched::Cluster cluster;
  kb::Store store;
  std::unique_ptr<MirtoAgent> agent;

  AgentFixture() : infra(BuildInfrastructure(engine, {})),
                   cluster(engine, sched::Scheduler::Default()) {
    net::Topology topo = infra.topology;
    topo.AddBidirectional("mirto-agent", "gw-0", SimTime::Micros(100), 1e9);
    topo.AddBidirectional("client", "gw-0", SimTime::Millis(1), 1e9);
    net = std::make_unique<net::Network>(engine, std::move(topo), 3);
    for (auto& n : infra.nodes) cluster.AddNode(n.get());
    AgentConfig config;
    config.host = "mirto-agent";
    config.strategy = PlacementStrategy::kGreedy;
    agent = std::make_unique<MirtoAgent>(*net, cluster, infra, store,
                                         AuthModule(util::BytesOf("s3cret")),
                                         config);
    agent->Start();
  }
};

TEST(MirtoAgent, DeployViaApiWithValidToken) {
  AgentFixture f;
  AuthModule client_auth(util::BytesOf("s3cret"));
  util::Json request = util::Json::MakeObject()
                           .Set("token", client_auth.IssueToken("dpe"))
                           .Set("csar", TelerehabPackage().Pack());
  bool replied = false;
  f.net->Call("client", "mirto-agent", "mirto.deploy", std::move(request),
              [&](util::StatusOr<util::Json> reply) {
                ASSERT_TRUE(reply.ok()) << reply.status();
                EXPECT_EQ(reply->at("status").as_string(), "deployed");
                EXPECT_EQ(reply->at("principal").as_string(), "dpe");
                replied = true;
              });
  f.engine.RunUntil(SimTime::Seconds(1));
  ASSERT_TRUE(replied);
  EXPECT_EQ(f.cluster.RunningPods(), 2u);  // telerehab partitions
  EXPECT_EQ(f.agent->stats().deployments_accepted, 1u);

  // Placement recorded in the KB.
  EXPECT_FALSE(f.agent->registry().ListWorkloads().empty());
}

TEST(MirtoAgent, RejectsBadTokenWithoutDeploying) {
  AgentFixture f;
  util::Json request = util::Json::MakeObject()
                           .Set("token", "intruder.deadbeef")
                           .Set("csar", TelerehabPackage().Pack());
  bool rejected = false;
  f.net->Call("client", "mirto-agent", "mirto.deploy", std::move(request),
              [&](util::StatusOr<util::Json> reply) {
                EXPECT_EQ(reply.status().code(),
                          util::StatusCode::kUnauthenticated);
                rejected = true;
              });
  f.engine.RunUntil(SimTime::Seconds(1));
  EXPECT_TRUE(rejected);
  EXPECT_EQ(f.cluster.RunningPods(), 0u);
  EXPECT_EQ(f.agent->stats().auth_failures, 1u);
}

TEST(MirtoAgent, RejectsCorruptCsar) {
  AgentFixture f;
  AuthModule client_auth(util::BytesOf("s3cret"));
  util::Json request = util::Json::MakeObject()
                           .Set("token", client_auth.IssueToken("dpe"))
                           .Set("csar", "garbage-bytes");
  bool rejected = false;
  f.net->Call("client", "mirto-agent", "mirto.deploy", std::move(request),
              [&](util::StatusOr<util::Json> reply) {
                EXPECT_FALSE(reply.ok());
                rejected = true;
              });
  f.engine.RunUntil(SimTime::Seconds(1));
  EXPECT_TRUE(rejected);
  EXPECT_EQ(f.agent->stats().deployments_rejected, 1u);
}

TEST(MirtoAgent, MapeLoopPopulatesRegistry) {
  AgentFixture f;
  f.engine.RunUntil(SimTime::Seconds(2));
  EXPECT_GT(f.agent->stats().mape_iterations, 4u);
  const auto nodes = f.agent->registry().ListNodes();
  EXPECT_EQ(nodes.size(), f.infra.nodes.size());
  EXPECT_FALSE(
      f.agent->registry().GetTelemetry("edge-0", "utilization").empty());
  EXPECT_FALSE(
      f.agent->registry().GetTelemetry("cloud-0", "queue_depth").empty());
}

TEST(MirtoAgent, MapeLoopRecoversFromNodeFailure) {
  AgentFixture f;
  ASSERT_TRUE(f.agent->Deploy(TelerehabPackage()).ok());
  ASSERT_EQ(f.cluster.RunningPods(), 2u);

  // Kill whichever node hosts the first pod.
  std::string victim;
  for (auto& n : f.infra.nodes) {
    if (!f.cluster.PodsOnNode(n->id()).empty()) {
      victim = n->id();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  f.infra.FindNode(victim)->SetUp(false);
  f.engine.RunUntil(f.engine.Now() + SimTime::Seconds(3));

  EXPECT_EQ(f.cluster.RunningPods(), 2u) << "MAPE loop must re-place pods";
  EXPECT_TRUE(f.cluster.PodsOnNode(victim).empty());
  EXPECT_GT(f.agent->stats().reallocations, 0u);
  // Trust in the failed node decayed.
  EXPECT_LT(f.agent->security_manager().TrustOf(victim), 0.5);
}

// Regression: a node left the healing set only when its trust reached
// exactly 1.0, but in double the success update from 0.7 stalls at
// 0.999999999999999 after 646 steps, so every node that ever failed was
// re-scored in every Analyze pass forever.
TEST(MirtoAgent, HealingSetDrainsOnceTrustStopsMoving) {
  AgentFixture f;
  f.agent->RunMapeIteration();
  ASSERT_EQ(f.agent->healing_node_count(), 0u);
  continuum::ComputeNode* node = f.infra.FindNode("edge-0");
  ASSERT_NE(node, nullptr);
  node->SetUp(false);
  f.agent->RunMapeIteration();  // one failure outcome
  node->SetUp(true);
  f.agent->RunMapeIteration();
  EXPECT_EQ(f.agent->healing_node_count(), 1u);
  for (int i = 0; i < 700; ++i) f.agent->RunMapeIteration();
  const double trust = f.agent->security_manager().TrustOf("edge-0");
  EXPECT_LT(trust, 1.0) << "recovery stalls below 1.0 in double";
  EXPECT_GT(trust, 0.999);
  EXPECT_EQ(f.agent->healing_node_count(), 0u);
  EXPECT_FALSE(f.agent->security_manager().RecordOutcome(
      "edge-0", true, f.agent->stats().mape_iterations + 1))
      << "a drained node's next success is a no-op";
}

// Property: the registry holds trust as its last transition. Under seeded
// fail/recover schedules, after every MAPE iteration each node's stored
// record reads, through kb::TrustAt, exactly the agent's in-memory trust, and
// a watcher other than the agent's own sees the trust fields change once per
// transition: a node's first failure after being up, and its first success
// after failing. Every record write is a Monitor observation, so trust rides
// the one write per observed node and is never written on its own. A few
// nodes flap; one seed in 20 also keeps a node down until its decay reaches
// the fixed point (over 2,100 iterations) and then lets it heal until the
// success update stalls.
void CheckTrustStateSchedule(std::uint64_t seed) {
  AgentFixture f;
  util::Rng rng(seed, "trust-state-property");
  const std::size_t fleet = f.infra.nodes.size();
  // The watch sees every commit to the node records, so `stored` mirrors
  // them; the mirror is checked against the store every 100 iterations.
  std::map<std::string, kb::NodeRecord> stored;
  std::uint64_t puts = 0;
  std::uint64_t trust_writes = 0;
  const std::string prefix = kb::ResourceRegistry::NodeKey("");
  // LINT: deferred-capture-ok(default) -- the watch fires only inside the
  // iterations below; the fixture and the counters outlive them in this frame
  f.store.Watch(prefix, [&](const kb::WatchEvent& e) {
    if (e.type != kb::WatchEvent::Type::kPut) return;
    ++puts;
    auto record = kb::NodeRecord::FromJson(e.kv.value);
    ASSERT_TRUE(record.ok());
    kb::NodeRecord& last = stored[e.kv.key];
    if (record->trust != last.trust) ++trust_writes;
    last = *std::move(record);
  });
  std::vector<std::string> keys;
  for (const auto& node : f.infra.nodes) {
    keys.push_back(kb::ResourceRegistry::NodeKey(node->id()));
  }

  std::vector<double> flap(fleet, 0.0);  // per-iteration toggle probability
  const std::uint64_t flappers = 2 + rng.NextBounded(3);
  for (std::uint64_t k = 0; k < flappers; ++k) {
    flap[rng.NextBounded(fleet)] = 0.05 + 0.45 * rng.NextDouble();
  }
  const bool long_outage = seed % 20 == 0;
  const std::size_t long_node = rng.NextBounded(fleet);
  const std::uint64_t outage_end = 5 + 2100 + rng.NextBounded(200);
  if (long_outage) flap[long_node] = 0.0;
  const std::uint64_t iterations = long_outage ? outage_end + 750 : 120;

  std::vector<bool> failing(fleet, false);  // failed since its last recovery
  std::uint64_t transitions = 0;
  bool decayed_to_fixed_point = false;
  for (std::uint64_t it = 1; it <= iterations; ++it) {
    for (std::size_t i = 0; i < fleet; ++i) {
      continuum::ComputeNode& node = *f.infra.nodes[i];
      bool up = node.up();
      if (long_outage && i == long_node) {
        up = it < 5 || it >= outage_end;
      } else if (rng.NextBool(flap[i])) {
        up = !up;
      }
      if (up != node.up()) node.SetUp(up);
      if (up == failing[i]) {
        ++transitions;
        failing[i] = !up;
      }
    }
    f.agent->RunMapeIteration();
    ASSERT_EQ(f.agent->stats().mape_iterations, it);

    PrivacySecurityManager& psm = f.agent->security_manager();
    for (std::size_t i = 0; i < fleet; ++i) {
      const std::string& id = f.infra.nodes[i]->id();
      const auto record = stored.find(keys[i]);
      ASSERT_NE(record, stored.end()) << id;
      ASSERT_EQ(kb::TrustAt(record->second, it), psm.TrustOf(id))
          << "seed " << seed << ", iteration " << it << ", " << id;
      if (it % 100 == 0 || it == iterations) {
        auto kv = f.store.Get(keys[i]);
        ASSERT_TRUE(kv.ok());
        ASSERT_EQ(kv->value.Dump(), record->second.ToJson().Dump()) << id;
      }
    }
    ASSERT_EQ(trust_writes, transitions)
        << "seed " << seed << ", iteration " << it;
    // Every node-record write is one Monitor observation.
    ASSERT_EQ(puts, f.agent->stats().nodes_observed)
        << "seed " << seed << ", iteration " << it;
    if (long_outage && it + 1 == outage_end) {
      const double trust = psm.TrustOf(f.infra.nodes[long_node]->id());
      decayed_to_fixed_point = kb::TrustStep(trust, false) == trust;
    }
  }
  if (!long_outage) return;
  // Not vacuous: the long outage decayed to its fixed point, and the node
  // then healed until the update stalled.
  EXPECT_TRUE(decayed_to_fixed_point) << "seed " << seed;
  const std::string& id = f.infra.nodes[long_node]->id();
  const double healed = f.agent->security_manager().TrustOf(id);
  EXPECT_EQ(kb::TrustStep(healed, true), healed) << "seed " << seed;
  EXPECT_LT(healed, 1.0);
  // Past the fixed point the record reads the same value forever, and
  // reading it there costs no more than reaching it.
  EXPECT_EQ(kb::TrustAt(stored.at(keys[long_node]),
                        std::numeric_limits<std::uint64_t>::max()),
            healed);
}

TEST(MirtoAgent, StoredTrustStateMatchesInMemoryTrustUnderRandomChurn) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ASSERT_NO_FATAL_FAILURE(CheckTrustStateSchedule(seed));
  }
}

TEST(MirtoAgent, MonitorRecordsCumulativeEnergyInMillijoules) {
  AgentFixture f;
  continuum::ComputeNode* node = f.infra.FindNode("edge-0");
  ASSERT_NE(node, nullptr);
  continuum::TaskDemand demand;
  demand.cycles = 50'000'000;
  demand.bytes_in = 4096;
  node->Submit(demand, nullptr);
  f.engine.RunUntil(SimTime::Seconds(2));
  ASSERT_GT(node->total_energy_mj(), 0.0);

  // Monitor used to publish instantaneous power (mW) under the cumulative
  // energy field; the record must carry the node's energy counter (mJ).
  f.agent->RunMapeIteration();
  auto record = f.agent->registry().GetNode("edge-0");
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_DOUBLE_EQ(record->energy_mj.value(), node->total_energy_mj());
}

TEST(MirtoAgent, OperatingPointsAdaptToIdleness) {
  AgentFixture f;
  // Run with zero load: every device should be demoted to eco points.
  f.engine.RunUntil(SimTime::Seconds(2));
  EXPECT_GT(f.agent->stats().operating_point_changes, 0u);
  continuum::ComputeNode* edge = f.infra.FindNode("edge-0");
  ASSERT_NE(edge, nullptr);
  for (const continuum::Device& d : edge->devices()) {
    EXPECT_EQ(d.active_point_index(), d.operating_points().size() - 1)
        << d.name();
  }
}

TEST(LiqoPeering, OffloadAndReclaim) {
  sim::Engine engine;
  Infrastructure edge_infra = BuildInfrastructure(engine, {});
  sched::Cluster local(engine, sched::Scheduler::Default());
  sched::Cluster remote(engine, sched::Scheduler::Default());
  // Local: only edge nodes. Remote: fog+cloud.
  for (auto& n : edge_infra.nodes) {
    if (n->layer() == Layer::kEdge) {
      local.AddNode(n.get());
    } else {
      remote.AddNode(n.get());
    }
  }
  LiqoPeering peering(engine, local, remote, "fog-cluster");
  EXPECT_NE(local.FindNodeState(peering.virtual_node_id()), nullptr);

  sched::PodSpec pod;
  pod.name = "analytics";
  pod.cpu_request = 2.0;
  auto node = peering.Offload(pod);
  ASSERT_TRUE(node.ok()) << node.status();
  EXPECT_EQ(remote.RunningPods(), 1u);
  auto where = peering.RemoteNodeOf("analytics");
  ASSERT_TRUE(where.ok());
  EXPECT_EQ(*where, *node);

  ASSERT_TRUE(peering.Reclaim("analytics").ok());
  EXPECT_EQ(remote.RunningPods(), 0u);
  EXPECT_FALSE(peering.RemoteNodeOf("analytics").ok());
  EXPECT_FALSE(peering.Reclaim("analytics").ok());
}

TEST(LiqoPeering, SyncCapacityReflectsRemoteUsage) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  sched::Cluster local(engine, sched::Scheduler::Default());
  sched::Cluster remote(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) {
    if (n->layer() == Layer::kCloud) remote.AddNode(n.get());
  }
  LiqoPeering peering(engine, local, remote, "cloud");
  sched::NodeState* vnode = local.FindNodeState(peering.virtual_node_id());
  ASSERT_NE(vnode, nullptr);
  const double free_before = vnode->CpuFree();

  // Consume remote capacity directly, then sync.
  sched::PodSpec hog;
  hog.name = "hog";
  hog.cpu_request = 50.0;
  hog.mem_request_mb = 64;
  ASSERT_TRUE(remote.BindPod(hog).ok());
  peering.SyncCapacity();
  EXPECT_NEAR(vnode->CpuFree(), free_before - 50.0, 1.0);
}

TEST(MirtoEngine, NegotiatedDeploymentDistributesAcrossLayers) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  net::Topology topo = infra.topology;
  net::Network network(engine, std::move(topo), 5);
  MirtoEngine mirto(network, infra);
  mirto.Start();
  engine.RunUntil(SimTime::Millis(500));

  bool done = false;
  mirto.DeployNegotiated(TelerehabPackage(), [&](util::Status s) {
    EXPECT_TRUE(s.ok()) << s;
    done = true;
  });
  engine.RunUntil(engine.Now() + SimTime::Seconds(5));
  ASSERT_TRUE(done);
  EXPECT_EQ(mirto.TotalRunningPods(), 2u);
  EXPECT_EQ(mirto.negotiation_stats().announcements, 2u);
  EXPECT_GT(mirto.negotiation_stats().bids_received, 2u);
  EXPECT_EQ(mirto.negotiation_stats().awards, 2u);
  EXPECT_EQ(mirto.negotiation_stats().failed_pods, 0u);
  mirto.Stop();
}

// The fleet's energy is the sum of the node counters, whether a node accrued
// it before the engine existed or from completions after it was built.
TEST(MirtoEngine, TotalEnergyCountsEnergyAccruedBeforeTheEngineIsBuilt) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  continuum::TaskDemand task;
  task.cycles = 5'000'000;
  infra.nodes[1]->Submit(task, [](const continuum::TaskReport&) {});
  engine.RunUntil(SimTime::Seconds(1));
  const double accrued = infra.nodes[1]->total_energy_mj();
  ASSERT_GT(accrued, 0.0);
  net::Network network(engine, infra.topology, 7);
  MirtoEngine mirto(network, infra);
  EXPECT_EQ(mirto.TotalEnergyMj(), accrued);
}

TEST(MirtoEngine, TotalEnergyTracksTaskCompletions) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  net::Network network(engine, infra.topology, 8);
  MirtoEngine mirto(network, infra);
  EXPECT_EQ(mirto.TotalEnergyMj(), 0.0);
  // One task per node; each completion report carries the energy it added.
  auto reported = std::make_shared<std::vector<double>>(infra.nodes.size());
  continuum::TaskDemand task;
  task.cycles = 5'000'000;
  for (std::size_t i = 0; i < infra.nodes.size(); ++i) {
    infra.nodes[i]->Submit(task, [reported, i](const continuum::TaskReport& r) {
      (*reported)[i] = r.energy_mj.value();
    });
  }
  engine.RunUntil(SimTime::Seconds(1));
  double expected = 0.0;
  for (const double mj : *reported) {
    ASSERT_GT(mj, 0.0);
    expected += mj;
  }
  EXPECT_EQ(mirto.TotalEnergyMj(), expected);
}

TEST(MirtoEngine, AcceleratorPodLandsAtEdge) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  net::Network network(engine, infra.topology, 6);
  MirtoEngine mirto(network, infra);
  mirto.Start();
  engine.RunUntil(SimTime::Millis(500));

  // Single accelerable pod: only edge HMPSoCs can bid.
  tosca::ServiceTemplate tpl;
  tpl.tosca_version = "tosca_2_0";
  tosca::NodeTemplate nt;
  nt.name = "kernel";
  nt.type = std::string(tosca::kTypeAccelerator);
  nt.properties = util::Json::MakeObject().Set("cpu", 0.5).Set("memory_mb", 64);
  tpl.node_templates["kernel"] = nt;
  const tosca::CsarPackage pkg = tosca::CsarPackage::Create(tpl);

  bool done = false;
  mirto.DeployNegotiated(pkg, [&](util::Status s) {
    EXPECT_TRUE(s.ok()) << s;
    done = true;
  });
  engine.RunUntil(engine.Now() + SimTime::Seconds(5));
  ASSERT_TRUE(done);
  EXPECT_EQ(mirto.cluster(Layer::kEdge).RunningPods(), 1u);
  EXPECT_EQ(mirto.cluster(Layer::kCloud).RunningPods(), 0u);
  mirto.Stop();
}

TEST(MirtoEngine, ImpossiblePodReportsFailure) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  net::Network network(engine, infra.topology, 7);
  MirtoEngine mirto(network, infra);
  mirto.Start();
  engine.RunUntil(SimTime::Millis(500));

  tosca::ServiceTemplate tpl;
  tpl.tosca_version = "tosca_2_0";
  tosca::NodeTemplate nt;
  nt.name = "goliath";
  nt.type = std::string(tosca::kTypeWorkload);
  nt.properties = util::Json::MakeObject()
                      .Set("cpu", 1e6)  // no node can host this
                      .Set("memory_mb", 64);
  tpl.node_templates["goliath"] = nt;
  const tosca::CsarPackage pkg = tosca::CsarPackage::Create(tpl);

  bool done = false;
  mirto.DeployNegotiated(pkg, [&](util::Status s) {
    EXPECT_EQ(s.code(), util::StatusCode::kResourceExhausted);
    done = true;
  });
  engine.RunUntil(engine.Now() + SimTime::Seconds(5));
  EXPECT_TRUE(done);
  EXPECT_EQ(mirto.negotiation_stats().failed_pods, 1u);
  mirto.Stop();
}

TEST(MirtoEngine, StatusEndpointAnswers) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  net::Topology topo = infra.topology;
  topo.AddBidirectional("client", "gw-0", SimTime::Millis(1), 1e9);
  net::Network network(engine, std::move(topo), 8);
  MirtoEngine mirto(network, infra);
  mirto.Start();
  bool replied = false;
  network.Call("client", MirtoEngine::AgentHost(Layer::kFog), "mirto.status", {},
               [&](util::StatusOr<util::Json> reply) {
                 ASSERT_TRUE(reply.ok());
                 EXPECT_EQ(reply->at("strategy").as_string(), "greedy");
                 replied = true;
               });
  engine.RunUntil(SimTime::Seconds(1));
  EXPECT_TRUE(replied);
  mirto.Stop();
}


TEST(MirtoAgent, RegistryDeleteEventTriggersReallocationSignal) {
  // A component record vanishing from the KB (e.g. heartbeat-lease expiry)
  // must mark the fleet dirty even before the poll-based Analyze notices.
  AgentFixture f;
  ASSERT_TRUE(f.agent->Deploy(TelerehabPackage()).ok());
  f.engine.RunUntil(SimTime::Millis(600));  // a few MAPE iterations

  // Simulate the heartbeat service expiring a node record.
  f.store.Delete(kb::ResourceRegistry::NodeKey("edge-0"));
  const std::uint64_t before = f.agent->stats().mape_iterations;
  f.engine.RunUntil(f.engine.Now() + SimTime::Millis(600));
  EXPECT_GT(f.agent->stats().mape_iterations, before);
  // The record reappears on the next Monitor pass (the node is still up) --
  // the signal exists to force a reconcile, which must not lose any pod.
  EXPECT_TRUE(f.agent->registry().GetNode("edge-0").ok());
  EXPECT_EQ(f.cluster.RunningPods(), 2u);
}

TEST(MirtoAgent, UndeployRemovesTrackedPods) {
  AgentFixture f;
  ASSERT_TRUE(f.agent->Deploy(TelerehabPackage()).ok());
  ASSERT_EQ(f.cluster.RunningPods(), 2u);
  ASSERT_EQ(f.agent->DeployedApps(), std::vector<std::string>{"telerehab"});
  ASSERT_TRUE(f.agent->Undeploy("telerehab").ok());
  EXPECT_EQ(f.cluster.RunningPods(), 0u);
  EXPECT_FALSE(f.agent->Undeploy("telerehab").ok());
}

/// --- Event-driven MAPE vs. the full-walk oracle ----------------------------
/// One world runs a seeded 300-op churn schedule. Before every MAPE iteration
/// the oracle recomputes the full-walk outcome from public state; after it,
/// the agent's registry NodeRecords, SLO statuses and published /slo
/// verdicts, trust scores, and planned operating-point decisions must match.
struct OracleWorld {
  sim::Engine engine;
  Infrastructure infra;
  std::unique_ptr<net::Network> net;
  sched::Cluster cluster;
  kb::Store store;
  std::unique_ptr<MirtoAgent> agent;
  std::unique_ptr<oracle::MapeOracle> reference;

  OracleWorld()
      : infra(BuildInfrastructure(engine, {})),
        cluster(engine, sched::Scheduler::Default()) {
    net::Topology topo = infra.topology;
    topo.AddBidirectional("mirto-agent", "gw-0", SimTime::Micros(100), 1e9);
    net = std::make_unique<net::Network>(engine, std::move(topo), 3);
    for (auto& n : infra.nodes) cluster.AddNode(n.get());
    AgentConfig config;
    config.host = "mirto-agent";
    config.strategy = PlacementStrategy::kGreedy;
    agent = std::make_unique<MirtoAgent>(*net, cluster, infra, store,
                                         AuthModule(util::BytesOf("s3cret")),
                                         config);
    reference = std::make_unique<oracle::MapeOracle>(*agent, cluster, infra,
                                                     store, engine);
    // No Start(): iterations are driven manually so the oracle can compute
    // its expectation right before each one.
  }

  /// One checked iteration: the oracle's divergences (empty when equal).
  std::vector<oracle::Divergence> CheckedIteration() {
    reference->Expect();
    agent->RunMapeIteration();
    return reference->Compare();
  }
};

class MapeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapeDifferential, AgentMatchesFullWalkOracleUnderChurn) {
  OracleWorld w;
  util::Rng rng(GetParam(), "mape-churn-differential");
  std::vector<std::string> churn_pods;
  int created = 0;
  bool deployed = false;
  const std::size_t fleet = w.infra.nodes.size();

  for (int op = 0; op < 300; ++op) {
    const double roll = rng.NextDouble();
    const std::size_t pick = static_cast<std::size_t>(rng.NextBounded(fleet));
    continuum::ComputeNode& node = *w.infra.nodes[pick];
    if (roll < 0.25) {
      node.SetUp(!node.up());
    } else if (roll < 0.45) {
      if (node.up()) {
        continuum::TaskDemand demand;
        demand.cycles = 1'000'000 + rng.NextBounded(50'000'000);
        node.Submit(demand, nullptr);
      }
    } else if (roll < 0.55) {
      // Allocation wiggle: net no-op, but an observable mutation.
      if (node.ReserveMemory(16).ok()) node.ReleaseMemory(16);
    } else if (roll < 0.70) {
      sched::PodSpec pod;
      pod.name = "churn-" + std::to_string(created++);
      pod.cpu_request = 0.25;
      pod.mem_request_mb = 16;
      if (rng.NextBool(0.2)) pod.cpu_request = 1e6;  // stays pending
      // LINT: discard(churn input: an unplaceable pod stays pending)
      (void)w.cluster.BindPod(pod);
      churn_pods.push_back(pod.name);
    } else if (roll < 0.80) {
      if (!churn_pods.empty()) {
        const std::size_t victim = static_cast<std::size_t>(
            rng.NextBounded(churn_pods.size()));
        ASSERT_TRUE(w.cluster.DeletePod(churn_pods[victim]).ok());
        churn_pods.erase(churn_pods.begin() +
                         static_cast<std::ptrdiff_t>(victim));
      }
    } else if (roll < 0.90) {
      deployed = w.agent->Deploy(TelerehabPackage()).ok();
    } else if (deployed) {
      ASSERT_TRUE(w.agent->Undeploy("telerehab").ok());
      deployed = false;
    }
    w.engine.RunUntil(w.engine.Now() +
                      SimTime::Millis(1 + rng.NextBounded(20)));

    if (op % 10 == 9) {
      const std::vector<oracle::Divergence> divergences = w.CheckedIteration();
      ASSERT_TRUE(divergences.empty())
          << "outcome divergence after op " << op << " (seed " << GetParam()
          << "):\n"
          << oracle::FormatDivergences(divergences);
    }
  }
  // The equivalence must not be vacuous: the agent has to have done strictly
  // less observation work than the oracle's full walks.
  EXPECT_LT(w.agent->stats().nodes_observed, w.reference->nodes_walked());
  EXPECT_EQ(w.agent->stats().mape_iterations, 30u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapeDifferential,
                         ::testing::Values(1u, 7u, 42u, 1337u));

TEST(MapeOracle, ReportsANodeThatChangedBehindItsBack) {
  OracleWorld w;
  for (int i = 0; i < 3; ++i) {
    w.engine.RunUntil(w.engine.Now() + SimTime::Millis(250));
    ASSERT_TRUE(w.CheckedIteration().empty());
  }
  // The node flips after the expectation was taken: the agent observes the
  // new state, the oracle expected the old one, and it must say which node.
  continuum::ComputeNode& flipped = *w.infra.nodes[1];
  w.engine.RunUntil(w.engine.Now() + SimTime::Millis(250));
  w.reference->Expect();
  flipped.SetUp(!flipped.up());
  w.agent->RunMapeIteration();
  const std::vector<oracle::Divergence> divergences = w.reference->Compare();
  ASSERT_FALSE(divergences.empty());
  std::set<std::string> nodes;
  for (const oracle::Divergence& d : divergences) {
    if (!d.node_id.empty()) nodes.insert(d.node_id);
  }
  EXPECT_EQ(nodes, std::set<std::string>{flipped.id()})
      << oracle::FormatDivergences(divergences);
  EXPECT_NE(w.reference->ExpectedSnapshot(), w.reference->AgentSnapshot());
}

// Regression: a guard flag used to hide every /registry/nodes/ event from
// the agent's watch while the agent wrote its own records, including a put
// that another watcher made re-entrantly inside that write. The patched node
// was never marked dirty, so the agent kept a record it had not observed and
// diverged from the full walk. Only the agent's own commits skip its watch.
TEST(MirtoAgent, ReentrantExternalRegistryWriteIsReobserved) {
  OracleWorld w;
  // Settle: the first passes observe the fleet and park idle devices.
  for (int i = 0; i < 3; ++i) {
    w.engine.RunUntil(w.engine.Now() + SimTime::Millis(250));
    ASSERT_TRUE(w.CheckedIteration().empty());
  }
  continuum::ComputeNode& a = *w.infra.nodes[0];
  continuum::ComputeNode& b = *w.infra.nodes[1];
  const std::string a_key = kb::ResourceRegistry::NodeKey(a.id());
  const std::string b_key = kb::ResourceRegistry::NodeKey(b.id());
  bool patched = false;
  // LINT: deferred-capture-ok(default) -- the watch fires only inside the
  // iterations below; the world and the flag outlive them in this frame
  w.store.Watch(kb::ResourceRegistry::NodeKey(""),
                [&](const kb::WatchEvent& e) {
                  if (patched || e.kv.key != a_key) return;
                  patched = true;
                  util::Json forged = w.store.Get(b_key)->value;
                  forged.Set("cpu_allocated", 99.0);
                  w.store.Put(b_key, std::move(forged));
                });
  a.MarkChanged();  // A is the only dirty node
  w.engine.RunUntil(w.engine.Now() + SimTime::Millis(250));
  const std::uint64_t observed = w.agent->stats().nodes_observed;
  w.reference->Expect();
  w.agent->RunMapeIteration();  // the agent's PutNode(A) triggers the patch
  ASSERT_TRUE(patched);
  ASSERT_EQ(w.agent->stats().nodes_observed, observed + 1);
  ASSERT_DOUBLE_EQ(w.agent->registry().GetNode(b.id())->cpu_allocated, 99.0);
  for (const oracle::Divergence& d : w.reference->Compare()) {
    ASSERT_EQ(d.node_id, b.id()) << "only the patched record differs";
  }

  w.engine.RunUntil(w.engine.Now() + SimTime::Millis(250));
  const std::vector<oracle::Divergence> divergences = w.CheckedIteration();
  EXPECT_TRUE(divergences.empty()) << oracle::FormatDivergences(divergences);
  EXPECT_EQ(w.agent->stats().nodes_observed, observed + 2)
      << "B alone is re-observed on the next Monitor";
  EXPECT_NE(w.agent->registry().GetNode(b.id())->cpu_allocated, 99.0);
}

TEST(MirtoAgent, SteadyStateSkipsSloRepublish) {
  AgentFixture f;
  f.engine.RunUntil(SimTime::Seconds(2));
  const std::uint64_t publishes = f.agent->stats().slo_publishes;
  const std::uint64_t iterations = f.agent->stats().mape_iterations;
  EXPECT_GT(publishes, 0u);
  // Two objectives x N iterations would be 2N publishes without the
  // on-change gate; steady state must be far below that.
  EXPECT_LT(publishes, iterations) << "verdicts republished every iteration";
}

TEST(MirtoAgent, RedeploySameAppUpdatesInPlace) {
  AgentFixture f;
  ASSERT_TRUE(f.agent->Deploy(TelerehabPackage()).ok());
  const std::size_t first = f.cluster.RunningPods();
  ASSERT_TRUE(f.agent->Deploy(TelerehabPackage()).ok());
  EXPECT_EQ(f.cluster.RunningPods(), first) << "no duplicate pods on update";
  EXPECT_EQ(f.agent->stats().deployments_accepted, 2u);
}

}  // namespace
}  // namespace myrtus::mirto
