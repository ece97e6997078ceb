// Full-stack integration: the three pillars plus the gateway, the agent's
// MAPE-K monitoring, image registry, and lifecycle management working
// together over one simulated continuum — the closest thing to the paper's
// M18 "partial integration of all the pillars' technologies".
#include <gtest/gtest.h>

#include "mirto/engine.hpp"
#include "net/gateway.hpp"
#include "sched/image_registry.hpp"
#include "usecases/scenario.hpp"

namespace myrtus {
namespace {

using continuum::Layer;
using sim::SimTime;

TEST(Integration, FullStackLifecycle) {
  // ---- Pillar 1: infrastructure, network, KB, image registry.
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  net::Topology topo = infra.topology;
  topo.AddBidirectional("dpe-tool", "gw-0", SimTime::Millis(1), 1e9);
  net::Network network(engine, std::move(topo), 2026);

  kb::Store kb_store;

  sched::ImageRegistry images;
  const util::Bytes base_layer = util::BytesOf(std::string(1 << 16, 'L'));
  ASSERT_TRUE(images.Push("myrtus/telerehab", "v1",
                          {base_layer, util::BytesOf("pose-v1")}).ok());

  // ---- Pillar 3: DPE designs the application from the scenario model.
  usecases::Scenario scenario = usecases::TelerehabScenario();
  dpe::DpePipeline dpe_pipeline(5);
  auto design = dpe_pipeline.Run(scenario.dpe_input);
  ASSERT_TRUE(design.ok()) << design.status();
  ASSERT_TRUE(design->deadline_met);
  EXPECT_EQ(design->effective_security_level, "high");

  // ---- Pillar 2: agent deploys through the authenticated API.
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  mirto::AgentConfig config;
  config.host = "gw-0";  // agent co-located with the gateway
  mirto::MirtoAgent agent(network, cluster, infra, kb_store,
                          mirto::AuthModule(util::BytesOf("int-secret")),
                          config);
  agent.Start();

  mirto::AuthModule client(util::BytesOf("int-secret"));
  bool deployed = false;
  network.Call("dpe-tool", "gw-0", "mirto.deploy",
               util::Json::MakeObject()
                   .Set("token", client.IssueToken("dpe-tool"))
                   .Set("csar", design->package.Pack()),
               [&](util::StatusOr<util::Json> r) { deployed = r.ok(); });
  engine.RunUntil(SimTime::Seconds(1));
  ASSERT_TRUE(deployed);
  const std::size_t pods_v1 = cluster.RunningPods();
  ASSERT_GT(pods_v1, 0u);
  ASSERT_EQ(agent.DeployedApps(), std::vector<std::string>{"telerehab"});

  // Image pulls for each hosting node dedup the shared base layer.
  std::set<std::string> hosting_nodes;
  for (const auto& [name, record] : agent.registry().ListWorkloads()) {
    hosting_nodes.insert(record.at("node").as_string());
  }
  std::uint64_t transferred = 0;
  for (const std::string& node : hosting_nodes) {
    auto receipt = images.Pull("myrtus/telerehab:v1", node);
    ASSERT_TRUE(receipt.ok());
    transferred += receipt->bytes_transferred;
  }
  EXPECT_GT(transferred, 0u);

  // ---- Update in place (CH2: dynamic update): re-deploying the same app
  // replaces its pods rather than duplicating them.
  bool updated = false;
  network.Call("dpe-tool", "gw-0", "mirto.deploy",
               util::Json::MakeObject()
                   .Set("token", client.IssueToken("dpe-tool"))
                   .Set("csar", design->package.Pack()),
               [&](util::StatusOr<util::Json> r) { updated = r.ok(); });
  engine.RunUntil(engine.Now() + SimTime::Seconds(1));
  ASSERT_TRUE(updated);
  EXPECT_EQ(cluster.RunningPods(), pods_v1) << "update must not duplicate pods";

  // ---- Run traffic; the agent's Monitor records utilization in the KB.
  sched::Cluster stage_cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) stage_cluster.AddNode(n.get());
  ASSERT_TRUE(usecases::DeployScenario(scenario, stage_cluster, 3).ok());
  usecases::RequestPipeline pipeline(network, infra, stage_cluster, scenario);
  pipeline.StartStream(engine.Now() + SimTime::Seconds(3), 9);
  engine.RunUntil(engine.Now() + SimTime::Seconds(5));
  EXPECT_GT(pipeline.kpis().completed, 20u);
  EXPECT_FALSE(agent.registry().GetTelemetry("edge-1", "utilization").empty());

  // ---- Undeploy through the API; the registry forgets the workloads.
  bool undeployed = false;
  network.Call("dpe-tool", "gw-0", "mirto.undeploy",
               util::Json::MakeObject()
                   .Set("token", client.IssueToken("dpe-tool"))
                   .Set("app", "telerehab"),
               [&](util::StatusOr<util::Json> r) { undeployed = r.ok(); });
  engine.RunUntil(engine.Now() + SimTime::Seconds(1));
  ASSERT_TRUE(undeployed);
  EXPECT_EQ(cluster.RunningPods(), 0u);
  EXPECT_TRUE(agent.registry().ListWorkloads().empty());
  EXPECT_TRUE(agent.DeployedApps().empty());

  // Undeploying twice is a clean NOT_FOUND.
  bool second_failed = false;
  network.Call("dpe-tool", "gw-0", "mirto.undeploy",
               util::Json::MakeObject()
                   .Set("token", client.IssueToken("dpe-tool"))
                   .Set("app", "telerehab"),
               [&](util::StatusOr<util::Json> r) {
                 second_failed =
                     r.status().code() == util::StatusCode::kNotFound;
               });
  engine.RunUntil(engine.Now() + SimTime::Seconds(1));
  EXPECT_TRUE(second_failed);
  agent.Stop();
}

TEST(Integration, GatewayFeedsMonitoredContinuum) {
  // Sensors -> gateway aggregation -> fog analytics host: the §III
  // data-management picture.
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  net::Topology topo = infra.topology;
  for (int s = 0; s < 4; ++s) {
    topo.AddBidirectional("sensor-" + std::to_string(s), "gw-0",
                          SimTime::Millis(1), 1e7);
  }
  net::Network network(engine, std::move(topo), 77);
  net::SmartGateway gateway(network, "gw-0");
  gateway.EnableAggregation("reading", "fmdc-0", SimTime::Millis(250), 32);

  int batches = 0;
  std::size_t readings = 0;
  network.Attach("fmdc-0", [&](const net::Message& m) {
    if (m.kind == "gw.batch") {
      ++batches;
      readings += m.payload.at("items").items().size();
    }
  });

  // 4 sensors x 25 readings.
  for (int round = 0; round < 25; ++round) {
    engine.ScheduleAfter(SimTime::Millis(20 * round), [&network, round] {
      for (int s = 0; s < 4; ++s) {
        net::Message m;
        m.from = "sensor-" + std::to_string(s);
        m.to = "gw-0";
        m.kind = "reading";
        m.protocol = net::Protocol::kCoap;
        m.payload = util::Json::MakeObject().Set("seq", round);
        m.body_bytes = 48;
        util::MustOk(network.Send(std::move(m)));
      }
    });
  }
  engine.RunUntil(SimTime::Seconds(2));
  EXPECT_EQ(readings, 100u) << "no reading lost through aggregation";
  EXPECT_LT(batches, 20) << "batching must compress 100 messages";
  EXPECT_GT(batches, 0);
}

TEST(Integration, NegotiatedDeployThenLayerFailover) {
  // Deploy via contract-net, then kill the fog layer: MIRTO's per-layer
  // reconcilers move what they can; the fog pods land back when it recovers.
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  net::Network network(engine, infra.topology, 31);
  mirto::MirtoEngine mirto(network, infra);
  mirto.Start();
  engine.RunUntil(SimTime::Millis(400));

  tosca::ServiceTemplate tpl;
  tpl.tosca_version = "tosca_2_0";
  for (int i = 0; i < 4; ++i) {
    tosca::NodeTemplate nt;
    nt.name = "svc" + std::to_string(i);
    nt.type = std::string(tosca::kTypeWorkload);
    nt.properties =
        util::Json::MakeObject().Set("cpu", 0.5).Set("memory_mb", 64);
    tpl.node_templates[nt.name] = nt;
  }
  bool done = false;
  mirto.DeployNegotiated(tosca::CsarPackage::Create(tpl),
                         [&](util::Status s) { done = s.ok(); });
  engine.RunUntil(engine.Now() + SimTime::Seconds(4));
  ASSERT_TRUE(done);
  EXPECT_EQ(mirto.TotalRunningPods(), 4u);

  // Fail every fog node.
  for (continuum::ComputeNode* n : infra.NodesInLayer(Layer::kFog)) {
    n->SetUp(false);
  }
  engine.RunUntil(engine.Now() + SimTime::Seconds(3));
  // Pods on the fog layer were evicted; its cluster reports them pending.
  EXPECT_EQ(mirto.cluster(Layer::kFog).RunningPods(), 0u);

  for (continuum::ComputeNode* n : infra.NodesInLayer(Layer::kFog)) {
    n->SetUp(true);
  }
  engine.RunUntil(engine.Now() + SimTime::Seconds(3));
  EXPECT_EQ(mirto.TotalRunningPods(), 4u) << "fleet healed after recovery";
  mirto.Stop();
}

}  // namespace
}  // namespace myrtus
