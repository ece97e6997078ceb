// Quickstart: build a continuum, start a MIRTO agent, deploy a TOSCA
// application through the authenticated API, and watch the MAPE-K loop and
// the request pipeline produce KPIs.
//
//   $ ./example_quickstart
#include <cstdio>

#include "continuum/infrastructure.hpp"
#include "mirto/agent.hpp"
#include "tosca/csar.hpp"
#include "usecases/scenario.hpp"

using namespace myrtus;

int main() {
  std::printf("== MYRTUS quickstart ==\n\n");

  // 1. Simulated continuum: 6 edge devices, gateway, FMDC, cloud (Fig. 2).
  sim::Engine engine;
  continuum::Infrastructure infra =
      continuum::BuildInfrastructure(engine, continuum::InfrastructureSpec{});
  std::printf("infrastructure: %zu nodes (%zu edge / %zu fog / %zu cloud)\n",
              infra.nodes.size(),
              infra.NodesInLayer(continuum::Layer::kEdge).size(),
              infra.NodesInLayer(continuum::Layer::kFog).size(),
              infra.NodesInLayer(continuum::Layer::kCloud).size());

  net::Topology topo = infra.topology;
  topo.AddBidirectional("dpe-workstation", "gw-0", sim::SimTime::Millis(1), 1e9);
  topo.AddBidirectional("mirto-0", "gw-0", sim::SimTime::Micros(200), 1e9);
  net::Network network(engine, std::move(topo), /*seed=*/42);

  // 2. One MIRTO agent orchestrating the whole slice.
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& node : infra.nodes) cluster.AddNode(node.get());
  kb::Store kb_store;
  mirto::AgentConfig config;
  config.host = "mirto-0";
  config.strategy = mirto::PlacementStrategy::kGreedy;
  mirto::MirtoAgent agent(network, cluster, infra, kb_store,
                          mirto::AuthModule(util::BytesOf("quickstart-secret")),
                          config);
  agent.Start();

  // 3. A minimal TOSCA application: one accelerated kernel + one service.
  tosca::ServiceTemplate tpl;
  tpl.tosca_version = "tosca_2_0";
  tpl.description = "hello-continuum";
  tosca::NodeTemplate kernel;
  kernel.name = "video_filter";
  kernel.type = std::string(tosca::kTypeAccelerator);
  kernel.properties =
      util::Json::MakeObject().Set("cpu", 0.8).Set("memory_mb", 128);
  tpl.node_templates[kernel.name] = kernel;
  tosca::NodeTemplate service;
  service.name = "dashboard";
  service.type = std::string(tosca::kTypeWorkload);
  service.properties =
      util::Json::MakeObject().Set("cpu", 0.4).Set("memory_mb", 64);
  service.requirements.push_back({"connects_to", "video_filter"});
  tpl.node_templates[service.name] = service;
  tosca::Policy privacy;
  privacy.name = "privacy";
  privacy.type = std::string(tosca::kPolicySecurity);
  privacy.targets = {"dashboard"};
  privacy.properties = util::Json::MakeObject().Set("level", "medium");
  tpl.policies.push_back(privacy);

  const tosca::CsarPackage package = tosca::CsarPackage::Create(tpl);
  std::printf("CSAR package: %zu files, %zu bytes\n", package.files().size(),
              package.TotalBytes());

  // 4. Deploy through the authenticated API daemon, over the network.
  mirto::AuthModule client_auth(util::BytesOf("quickstart-secret"));
  util::Json request = util::Json::MakeObject()
                           .Set("token", client_auth.IssueToken("dpe-workstation"))
                           .Set("csar", package.Pack());
  network.Call("dpe-workstation", "mirto-0", "mirto.deploy", std::move(request),
               [](util::StatusOr<util::Json> reply) {
                 if (reply.ok()) {
                   std::printf("deploy reply: %s\n", reply->Dump().c_str());
                 } else {
                   std::printf("deploy failed: %s\n",
                               reply.status().ToString().c_str());
                 }
               });
  engine.RunUntil(sim::SimTime::Seconds(1));

  std::printf("\npods after deployment:\n");
  for (const char* name : {"video_filter", "dashboard"}) {
    const sched::PodView pod = cluster.FindPod(name);
    if (pod) {
      std::printf("  %-14s -> %-8s (%s)\n", name, pod.node_id().c_str(),
                  std::string(sched::PodPhaseName(pod.phase())).c_str());
    }
  }

  // 5. Let the MAPE-K loop observe the system for a while.
  engine.RunUntil(sim::SimTime::Seconds(5));
  const mirto::AgentStats& stats = agent.stats();
  std::printf("\nMIRTO agent after 5s: %llu MAPE iterations, "
              "%llu operating-point changes, %llu reallocations\n",
              static_cast<unsigned long long>(stats.mape_iterations),
              static_cast<unsigned long long>(stats.operating_point_changes),
              static_cast<unsigned long long>(stats.reallocations));

  std::printf("\nKB registry view (trust / ready):\n");
  for (const kb::NodeRecord& record : agent.registry().ListNodes()) {
    std::printf("  %-8s layer=%-5s trust=%.2f ready=%d\n",
                record.node_id.c_str(), record.layer.c_str(),
                kb::TrustAt(record, stats.mape_iterations),
                record.ready ? 1 : 0);
  }
  agent.Stop();
  std::printf("\nquickstart done.\n");
  return 0;
}
