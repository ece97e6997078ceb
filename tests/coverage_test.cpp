// Coverage for the smaller public surfaces: protocol metadata, SimTime
// rendering, engine counters, Json accessor fallbacks, cost-model math,
// infrastructure spec variants, CSAR edge cases, and name tables.
#include <gtest/gtest.h>

#include "continuum/infrastructure.hpp"
#include "mirto/managers.hpp"
#include "kb/raft.hpp"
#include "net/transport.hpp"
#include "sched/pod.hpp"
#include "security/cost_model.hpp"
#include "tosca/csar.hpp"

namespace myrtus {
namespace {

using sim::SimTime;

TEST(Protocol, NamesAndOverheads) {
  EXPECT_EQ(net::ProtocolName(net::Protocol::kHttp), "http");
  EXPECT_EQ(net::ProtocolName(net::Protocol::kMqtt), "mqtt");
  EXPECT_EQ(net::ProtocolName(net::Protocol::kCoap), "coap");
  // HTTP's verbose headers dominate; MQTT is the leanest (paper's gateway
  // prefers it for constrained sensors).
  EXPECT_GT(net::ProtocolOverheadBytes(net::Protocol::kHttp),
            net::ProtocolOverheadBytes(net::Protocol::kCoap));
  EXPECT_GT(net::ProtocolOverheadBytes(net::Protocol::kCoap),
            net::ProtocolOverheadBytes(net::Protocol::kMqtt));
}

TEST(SimTime, HumanRendering) {
  EXPECT_EQ(SimTime::Nanos(500).ToString(), "500ns");
  EXPECT_EQ(SimTime::Micros(12).ToString(), "12.000us");
  EXPECT_EQ(SimTime::Millis(3).ToString(), "3.000ms");
  EXPECT_EQ(SimTime::Seconds(2).ToString(), "2.000s");
}

TEST(Engine, CountersTrackExecution) {
  sim::Engine e;
  for (int i = 0; i < 5; ++i) e.ScheduleAfter(SimTime::Millis(i), [] {});
  EXPECT_EQ(e.pending_events(), 5u);
  EXPECT_FALSE(e.empty());
  e.Run();
  EXPECT_EQ(e.executed_events(), 5u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, StepExecutesExactlyOne) {
  sim::Engine e;
  int fired = 0;
  e.ScheduleAfter(SimTime::Millis(1), [&] { ++fired; });
  e.ScheduleAfter(SimTime::Millis(2), [&] { ++fired; });
  EXPECT_TRUE(e.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.Step());
  EXPECT_FALSE(e.Step());
}

TEST(Json, AccessorFallbacks) {
  const util::Json j("text");
  EXPECT_EQ(j.as_int(42), 42);
  EXPECT_DOUBLE_EQ(j.as_double(1.5), 1.5);
  EXPECT_FALSE(j.as_bool());
  EXPECT_TRUE(util::Json(7).as_string().empty());
  EXPECT_TRUE(util::Json(7).items().empty());
  EXPECT_TRUE(util::Json(7).fields().empty());
  // Numeric cross-coercion.
  EXPECT_EQ(util::Json(2.9).as_int(), 2);
  EXPECT_DOUBLE_EQ(util::Json(3).as_double(), 3.0);
}

TEST(Json, SetOnScalarConvertsToObject) {
  util::Json j(5);
  j.Set("k", 1);
  EXPECT_TRUE(j.is_object());
  util::Json a("x");
  a.Append(2);
  EXPECT_TRUE(a.is_array());
}

TEST(Json, IntegralDoubleRoundtripsAsDouble) {
  const util::Json j(-251.0);
  EXPECT_EQ(j.Dump(), "-251.0");
  auto back = util::Json::Parse(j.Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->is_double());
  EXPECT_EQ(*back, j);
}

TEST(CostModel, SymmetricLatencyLinearInBytes) {
  const double lat_1kb_us =
      security::SymLatencyUs(security::SymAlg::kAes128Gcm, 1024, 1.0);
  const double lat_2kb_us =
      security::SymLatencyUs(security::SymAlg::kAes128Gcm, 2048, 1.0);
  const double lat_zero_us =
      security::SymLatencyUs(security::SymAlg::kAes128Gcm, 0, 1.0);
  EXPECT_NEAR(lat_2kb_us - lat_1kb_us, lat_1kb_us - lat_zero_us, 1e-9);
  EXPECT_GT(lat_zero_us, 0.0) << "key schedule / init cost";
}

TEST(CostModel, AllSymAlgsNamed) {
  for (const auto alg :
       {security::SymAlg::kAes256Gcm, security::SymAlg::kAes128Gcm,
        security::SymAlg::kAscon128, security::SymAlg::kSha512,
        security::SymAlg::kSha256, security::SymAlg::kAsconHash}) {
    EXPECT_NE(security::SymAlgName(alg), "?");
    EXPECT_GT(security::CostOf(alg).cycles_per_byte, 0.0);
  }
}

TEST(Infrastructure, ScalesWithSpec) {
  sim::Engine engine;
  continuum::InfrastructureSpec spec;
  spec.edge_hmpsoc = 5;
  spec.edge_riscv = 3;
  spec.edge_multicore = 2;
  spec.gateways = 2;
  spec.fmdcs = 2;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, spec);
  EXPECT_EQ(infra.NodesInLayer(continuum::Layer::kEdge).size(), 10u);
  EXPECT_EQ(infra.NodesInLayer(continuum::Layer::kFog).size(), 4u);
  // Edge nodes round-robin across both gateways.
  int gw0 = 0;
  int gw1 = 0;
  for (continuum::ComputeNode* edge : infra.NodesInLayer(continuum::Layer::kEdge)) {
    auto route = infra.topology.FindRoute(edge->id(), "cloud-0");
    ASSERT_TRUE(route.ok());
    const std::string& first_hop = infra.topology.link((*route)->link_indices[0]).to;
    if (first_hop == "gw-0") ++gw0;
    if (first_hop == "gw-1") ++gw1;
  }
  EXPECT_EQ(gw0, 5);
  EXPECT_EQ(gw1, 5);
}

TEST(Csar, EntryTemplateRequiresMetaAndFile) {
  tosca::CsarPackage empty;
  EXPECT_FALSE(empty.EntryPath().ok());
  EXPECT_FALSE(empty.EntryTemplate().ok());
  // Meta pointing at a missing file is detected.
  tosca::CsarPackage broken;
  broken.AddFile(std::string(tosca::CsarPackage::kMetaPath),
                 "Entry-Definitions: missing.yaml\n");
  EXPECT_TRUE(broken.EntryPath().ok());
  EXPECT_FALSE(broken.EntryTemplate().ok());
}

TEST(Csar, PackIsDeterministic) {
  tosca::ServiceTemplate tpl;
  tpl.tosca_version = "tosca_2_0";
  tosca::NodeTemplate nt;
  nt.name = "w";
  nt.type = std::string(tosca::kTypeWorkload);
  nt.properties = util::Json::MakeObject().Set("cpu", 1);
  tpl.node_templates["w"] = nt;
  EXPECT_EQ(tosca::CsarPackage::Create(tpl).Pack(),
            tosca::CsarPackage::Create(tpl).Pack());
}

TEST(NameTables, StrategiesRolesPhasesLayers) {
  for (int s = 0; s <= 4; ++s) {
    EXPECT_NE(mirto::PlacementStrategyName(
                  static_cast<mirto::PlacementStrategy>(s)),
              "?");
  }
  EXPECT_EQ(kb::RaftRoleName(kb::RaftRole::kLeader), "leader");
  EXPECT_EQ(sched::PodPhaseName(sched::PodPhase::kRunning), "running");
  EXPECT_EQ(continuum::LayerName(continuum::Layer::kFog), "fog");
  for (int k = 0; k <= 4; ++k) {
    EXPECT_NE(continuum::DeviceKindName(static_cast<continuum::DeviceKind>(k)),
              "?");
  }
}

TEST(Network, BytesAccountingIncludesProtocolOverhead) {
  sim::Engine engine;
  net::Topology topo;
  topo.AddLink(net::Link{"a", "b", SimTime::Millis(1), 1e9, 0.0, {}});
  net::Network network(engine, std::move(topo), 3);
  network.Attach("b", [](const net::Message&) {});
  net::Message m;
  m.from = "a";
  m.to = "b";
  m.kind = "x";
  m.protocol = net::Protocol::kHttp;
  m.body_bytes = 100;
  ASSERT_TRUE(network.Send(std::move(m)).ok());
  engine.Run();
  EXPECT_EQ(network.bytes_sent(),
            100 + net::ProtocolOverheadBytes(net::Protocol::kHttp));
}

}  // namespace
}  // namespace myrtus
