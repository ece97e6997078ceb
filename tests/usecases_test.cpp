// Smart Mobility & Telerehabilitation scenarios: DPE-compatibility, pod
// deployment, and the end-to-end request pipeline KPIs.
#include <gtest/gtest.h>

#include "dpe/pipeline.hpp"
#include "usecases/scenario.hpp"

namespace myrtus::usecases {
namespace {

using continuum::BuildInfrastructure;
using continuum::Infrastructure;
using sim::SimTime;

struct Fixture {
  sim::Engine engine;
  Infrastructure infra;
  std::unique_ptr<net::Network> net;
  sched::Cluster cluster;

  Fixture() : infra(BuildInfrastructure(engine, {})),
              cluster(engine, sched::Scheduler::Default()) {
    net = std::make_unique<net::Network>(engine, infra.topology, 21);
    for (auto& n : infra.nodes) cluster.AddNode(n.get());
  }
};

class ScenarioTest : public ::testing::TestWithParam<bool> {
 protected:
  static Scenario Make() {
    return GetParam() ? SmartMobilityScenario() : TelerehabScenario();
  }
};

TEST_P(ScenarioTest, GraphIsValidSdfAndRunsThroughDpe) {
  Scenario s = Make();
  EXPECT_TRUE(s.dpe_input.graph.RepetitionVector().ok());
  EXPECT_TRUE(s.dpe_input.graph.IsAcyclic());
  dpe::DpePipeline pipeline(3);
  auto out = pipeline.Run(s.dpe_input);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_FALSE(out->pareto_front.empty());
  // Threat models raise the security floor above "low".
  EXPECT_NE(out->effective_security_level, "low");
}

TEST_P(ScenarioTest, DeploysOntoInfrastructure) {
  Fixture f;
  Scenario s = Make();
  ASSERT_TRUE(DeployScenario(s, f.cluster, 1).ok());
  EXPECT_EQ(f.cluster.RunningPods(), s.stages.size());
  // Layer-pinned stages respect their affinity.
  for (const Stage& stage : s.stages) {
    const sched::PodView pod = f.cluster.FindPod(s.name + "/" + stage.pod_name);
    ASSERT_TRUE(pod.valid());
    if (!stage.layer_affinity.empty()) {
      EXPECT_EQ(std::string(continuum::LayerName(
                    f.infra.FindNode(pod.node_id())->layer())),
                stage.layer_affinity)
          << stage.pod_name;
    }
  }
}

TEST_P(ScenarioTest, RequestsCompleteWithinReasonableLatency) {
  Fixture f;
  Scenario s = Make();
  ASSERT_TRUE(DeployScenario(s, f.cluster, 1).ok());
  RequestPipeline pipeline(*f.net, f.infra, f.cluster, s);
  for (int i = 0; i < 20; ++i) pipeline.LaunchRequest();
  f.engine.RunUntil(SimTime::Seconds(10));
  const ScenarioKpis& kpis = pipeline.kpis();
  EXPECT_EQ(kpis.completed, 20u);
  EXPECT_EQ(kpis.failed, 0u);
  EXPECT_GT(kpis.latency_ms.p50(), 0.0);
  EXPECT_GT(kpis.compute_energy_mj, 0.0);
}

TEST_P(ScenarioTest, PoissonStreamGeneratesLoad) {
  Fixture f;
  Scenario s = Make();
  ASSERT_TRUE(DeployScenario(s, f.cluster, 1).ok());
  RequestPipeline pipeline(*f.net, f.infra, f.cluster, s);
  pipeline.StartStream(SimTime::Seconds(2), 99);
  f.engine.RunUntil(SimTime::Seconds(12));
  const double expected = s.arrival_rate_hz * 2.0;
  EXPECT_NEAR(static_cast<double>(pipeline.kpis().completed +
                                  pipeline.kpis().failed),
              expected, expected * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Both, ScenarioTest, ::testing::Bool(),
                         [](const auto& suite_info) {
                           return suite_info.param ? std::string("SmartMobility")
                                             : std::string("Telerehab");
                         });

TEST(RequestPipeline, NodeFailureMidStreamCountsAsFailures) {
  Fixture f;
  Scenario s = SmartMobilityScenario();
  ASSERT_TRUE(DeployScenario(s, f.cluster, 1).ok());
  RequestPipeline pipeline(*f.net, f.infra, f.cluster, s);
  pipeline.LaunchRequest();
  f.engine.RunUntil(SimTime::Seconds(2));
  ASSERT_EQ(pipeline.kpis().completed, 1u);

  // Kill the node hosting the detect stage; new requests must fail (until an
  // orchestrator repairs the placement, which this test deliberately omits).
  const sched::PodView detect = f.cluster.FindPod("smart-mobility/detect");
  ASSERT_TRUE(detect.valid());
  f.infra.FindNode(detect.node_id())->SetUp(false);
  pipeline.LaunchRequest();
  f.engine.RunUntil(SimTime::Seconds(4));
  EXPECT_EQ(pipeline.kpis().failed, 1u);
}

// Regression: RunStage checked up() before shipping a stage's input, but not
// when the input arrived. A target that failed during the transfer dropped
// the task in Submit, and the request was counted neither completed nor
// failed.
TEST(RequestPipeline, TargetFailingWhileTheInputIsInFlightFailsTheRequest) {
  Fixture f;
  Scenario s = SmartMobilityScenario();
  ASSERT_TRUE(DeployScenario(s, f.cluster, 1).ok());
  const sched::PodView first =
      f.cluster.FindPod(s.name + "/" + s.stages.front().pod_name);
  ASSERT_TRUE(first.valid());
  ASSERT_NE(first.node_id(), s.source_host) << "the input must be shipped";
  RequestPipeline pipeline(*f.net, f.infra, f.cluster, s);
  const std::uint64_t launched = 1;
  pipeline.LaunchRequest();  // ships the first stage's input now
  f.infra.FindNode(first.node_id())->SetUp(false);  // before it arrives
  f.engine.RunUntil(SimTime::Seconds(2));
  const ScenarioKpis& kpis = pipeline.kpis();
  EXPECT_EQ(kpis.completed + kpis.failed, launched);
  EXPECT_EQ(kpis.failed, 1u);
}

TEST(RequestPipeline, DeadlineViolationsDetectedUnderOverload) {
  Fixture f;
  Scenario s = SmartMobilityScenario();
  s.deadline_ms = 0.001;  // impossible deadline: every completion violates
  ASSERT_TRUE(DeployScenario(s, f.cluster, 1).ok());
  RequestPipeline pipeline(*f.net, f.infra, f.cluster, s);
  for (int i = 0; i < 5; ++i) pipeline.LaunchRequest();
  f.engine.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(pipeline.kpis().completed, 5u);
  EXPECT_EQ(pipeline.kpis().violations, 5u);
  EXPECT_DOUBLE_EQ(pipeline.kpis().ViolationRate(), 1.0);
}

TEST(Scenarios, MobilityIsTighterThanTelerehab) {
  const Scenario mobility = SmartMobilityScenario();
  const Scenario rehab = TelerehabScenario();
  EXPECT_LT(mobility.deadline_ms, rehab.deadline_ms);
  EXPECT_GT(mobility.arrival_rate_hz, rehab.arrival_rate_hz);
  // Telerehab handles health data: its archive stage demands High security.
  bool high_found = false;
  for (const Stage& st : rehab.stages) {
    if (st.min_security == security::SecurityLevel::kHigh) high_found = true;
  }
  EXPECT_TRUE(high_found);
}

}  // namespace
}  // namespace myrtus::usecases
