// The paper's "ongoing/under consideration" mechanisms, implemented as
// extensions: FREVO→DynAA swarm-rule synthesis, FL-federated operating-point
// prediction, RL-based network-manager offload, and the container image
// registry.
#include <gtest/gtest.h>

#include "dpe/whatif.hpp"
#include "mirto/op_predictor.hpp"
#include "mirto/rl.hpp"
#include "sched/image_registry.hpp"

namespace myrtus {
namespace {

// --- FREVO / DynAA loop ------------------------------------------------------

TEST(WhatIf, DeterministicGivenSeed) {
  util::Rng rng(1);
  const swarm::RulePolicy policy = swarm::RulePolicy::Random(dpe::SwarmRuleSpec(), rng);
  const dpe::WhatIfOutcome a = dpe::EvaluateRules(policy, {}, 7);
  const dpe::WhatIfOutcome b = dpe::EvaluateRules(policy, {}, 7);
  EXPECT_DOUBLE_EQ(a.fitness, b.fitness);
  EXPECT_EQ(a.completed, b.completed);
}

TEST(WhatIf, AllLocalVsAllUpstreamTradeoff) {
  dpe::WhatIfConfig config;
  config.arrival_prob = 0.9;  // overload: local-only queues grow unboundedly
  const swarm::RuleSpec spec = dpe::SwarmRuleSpec();
  swarm::RulePolicy all_local(spec, std::vector<int>(spec.TableSize(), 0));
  swarm::RulePolicy all_up(spec, std::vector<int>(spec.TableSize(), 2));
  const auto local = dpe::EvaluateRules(all_local, config, 3);
  const auto up = dpe::EvaluateRules(all_up, config, 3);
  // Pushing everything upstream caps queueing (bounded latency) but pays
  // fixed distance; staying local queues up under this load.
  EXPECT_GT(local.mean_latency, up.mean_latency);
  EXPECT_GT(up.energy, 0.0);
  EXPECT_GT(local.completed, 0);
}

TEST(WhatIf, SynthesizedRulesBeatFixedPolicies) {
  dpe::WhatIfConfig config;
  swarm::GaConfig ga;
  ga.population = 24;
  ga.generations = 20;
  const dpe::SwarmRuleSynthesis synth = dpe::SynthesizeSwarmRules(config, 11, ga);

  const swarm::RuleSpec spec = dpe::SwarmRuleSpec();
  for (int fixed_action = 0; fixed_action < 3; ++fixed_action) {
    swarm::RulePolicy fixed(spec,
                            std::vector<int>(spec.TableSize(), fixed_action));
    const auto outcome = dpe::EvaluateRules(fixed, config, 11);
    EXPECT_GE(synth.outcome.fitness, outcome.fitness - 1e-9)
        << "fixed action " << fixed_action;
  }
  EXPECT_FALSE(synth.fitness_history.empty());
}

// --- FL operating-point predictor ---------------------------------------------

TEST(OpPredictor, LearnsFromObservations) {
  mirto::OperatingPointLearner learner(5);
  util::Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const double util = rng.NextDouble();
    const double slack = rng.NextDouble();
    learner.Observe(util, slack, util > 0.6 || slack < 0.15);
  }
  learner.TrainLocal(30);
  EXPECT_GT(learner.PredictFastNeeded(0.95, 0.5), 0.5);
  EXPECT_LT(learner.PredictFastNeeded(0.05, 0.9), 0.5);
}

TEST(OpPredictor, FederationSharesExperienceAcrossRegimes) {
  // Agent A only ever sees low load; agent B only high load. After FedAvg,
  // BOTH predict sensibly across the full range.
  mirto::OperatingPointLearner low_agent(1);
  mirto::OperatingPointLearner high_agent(2);
  util::Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    const double u_low = rng.Uniform(0.0, 0.4);
    low_agent.Observe(u_low, rng.NextDouble(), false);
    const double u_high = rng.Uniform(0.6, 1.0);
    high_agent.Observe(u_high, rng.NextDouble(), true);
  }
  const auto report =
      mirto::FederateLearners({&low_agent, &high_agent}, 25, 77);
  EXPECT_GT(report.bytes_exchanged, 0u);
  // The low-load agent now knows what high load means, and vice versa.
  EXPECT_GT(low_agent.PredictFastNeeded(0.9, 0.5), 0.5);
  EXPECT_LT(high_agent.PredictFastNeeded(0.1, 0.5), 0.5);
}

TEST(OpPredictor, LearnedManagerColdStartsWithHysteresis) {
  sim::Engine engine;
  continuum::ComputeNode node(engine, "n", continuum::Layer::kEdge, "multicore",
                              security::SecurityLevel::kLow, 512);
  node.AddDevice(continuum::MakeBigCore("n/big"));
  engine.RunUntil(sim::SimTime::Seconds(1));  // idle -> hysteresis demotes

  mirto::OperatingPointLearner learner(3);  // empty buffer
  mirto::LearnedNodeManager manager(learner, 60.0);
  const auto decision = manager.Plan(node, 0, 0.5);
  EXPECT_TRUE(decision.changed);
  EXPECT_EQ(decision.operating_point,
            node.devices()[0].operating_points().size() - 1);
}

TEST(OpPredictor, LearnedManagerFollowsModelWhenTrained) {
  sim::Engine engine;
  continuum::ComputeNode node(engine, "n", continuum::Layer::kEdge, "multicore",
                              security::SecurityLevel::kLow, 512);
  node.AddDevice(continuum::MakeBigCore("n/big"));
  ASSERT_TRUE(node.SetOperatingPoint(0, 2).ok());
  engine.RunUntil(sim::SimTime::Seconds(1));  // idle: util ~ 0

  // Train a model that says "fast needed whenever slack is tiny".
  mirto::OperatingPointLearner learner(4);
  util::Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    const double slack = rng.NextDouble();
    learner.Observe(rng.NextDouble(), slack, slack < 0.3);
  }
  learner.TrainLocal(40);
  mirto::LearnedNodeManager manager(learner, 60.0);
  // Even though the node is idle, near-zero slack demands the fast point —
  // something threshold hysteresis cannot express.
  const auto urgent = manager.Plan(node, 0, /*recent_slack=*/0.02);
  EXPECT_TRUE(urgent.changed);
  EXPECT_EQ(urgent.operating_point, 0u);
  const auto relaxed = manager.Plan(node, 0, /*recent_slack=*/0.95);
  EXPECT_EQ(relaxed.operating_point,
            node.devices()[0].operating_points().size() - 1);
}

// --- RL network manager ---------------------------------------------------------

TEST(QLearner, ConvergesOnBanditProblem) {
  mirto::QLearner q(1, 3, 0.3, 0.0, 0.2);
  util::Rng rng(8);
  // Arm rewards: 1.0, 2.0, 0.5 (+noise).
  for (int i = 0; i < 2000; ++i) {
    const std::size_t a = q.ChooseAction(0, rng);
    const double mean = a == 0 ? 1.0 : (a == 1 ? 2.0 : 0.5);
    q.UpdateTerminal(0, a, mean + rng.NextGaussian() * 0.1);
  }
  EXPECT_EQ(q.BestAction(0), 1u);
  EXPECT_NEAR(q.Q(0, 1), 2.0, 0.3);
}

TEST(QLearner, BootstrapsAcrossStates) {
  // Two-state chain: action 0 in state 0 leads to state 1; state 1's best
  // action pays 10. With gamma=0.9 the Q of (0,0) approaches 9.
  mirto::QLearner q(2, 2, 0.2, 0.9, 0.0);
  for (int i = 0; i < 500; ++i) {
    q.Update(0, 0, 0.0, 1);
    q.UpdateTerminal(1, 0, 10.0);
  }
  EXPECT_NEAR(q.Q(1, 0), 10.0, 0.2);
  EXPECT_NEAR(q.Q(0, 0), 9.0, 0.3);
}

TEST(RlOffload, LearnsCongestionDependentRouting) {
  mirto::RlOffloadSelector selector(9);
  util::Rng rng(9);
  // Ground truth: when the uplink is congested, cloud (2) is slow and the
  // gateway (0) is best; when clear, cloud is fastest.
  const auto latency = [&](double uplink, std::size_t target) {
    const double base = target == 0 ? 8.0 : (target == 1 ? 6.0 : 4.0);
    const double congestion_penalty = target == 2 ? uplink * 30.0
                                      : target == 1 ? uplink * 12.0 : 0.0;
    return base + congestion_penalty + rng.NextGaussian() * 0.3;
  };
  for (int i = 0; i < 4000; ++i) {
    const double uplink = rng.NextBool() ? 0.05 : 0.9;
    const std::size_t target = selector.ChooseTarget(0.2, uplink);
    selector.Reward(0.2, uplink, target, latency(uplink, target));
  }
  EXPECT_EQ(selector.ChooseTarget(0.2, 0.05, /*explore=*/false), 2u)
      << "clear uplink: go to the cloud";
  EXPECT_EQ(selector.ChooseTarget(0.2, 0.9, /*explore=*/false), 0u)
      << "congested uplink: stay at the gateway";
}

// --- Container image registry ------------------------------------------------------

using util::BytesOf;

TEST(ImageRegistry, PushPullDedup) {
  sched::ImageRegistry registry;
  const util::Bytes base = BytesOf(std::string(4096, 'B'));  // shared base layer
  ASSERT_TRUE(registry.Push("myrtus/pose", "v1", {base, BytesOf("pose-app-v1")}).ok());
  ASSERT_TRUE(registry.Push("myrtus/score", "v1", {base, BytesOf("score-app-v1")}).ok());
  EXPECT_EQ(registry.ListImages().size(), 2u);
  EXPECT_EQ(registry.unique_layers(), 3u) << "base layer stored once";
  EXPECT_LT(registry.StoredBytes(), registry.LogicalBytes());

  auto pull1 = registry.Pull("myrtus/pose:v1", "edge-0");
  ASSERT_TRUE(pull1.ok());
  EXPECT_EQ(pull1->layers_fetched, 2);
  EXPECT_EQ(pull1->bytes_deduplicated, 0u);

  // Second image reuses the cached base layer on the same node.
  auto pull2 = registry.Pull("myrtus/score:v1", "edge-0");
  ASSERT_TRUE(pull2.ok());
  EXPECT_EQ(pull2->layers_fetched, 1);
  EXPECT_EQ(pull2->layers_cached, 1);
  EXPECT_EQ(pull2->bytes_deduplicated, base.size());
  EXPECT_TRUE(registry.NodeHasImage("myrtus/score:v1", "edge-0"));
  EXPECT_FALSE(registry.NodeHasImage("myrtus/score:v1", "edge-1"));
}

TEST(ImageRegistry, RepeatPullIsFullyCached) {
  sched::ImageRegistry registry;
  ASSERT_TRUE(registry.Push("app", "v1", {BytesOf("layer")}).ok());
  ASSERT_TRUE(registry.Pull("app:v1", "n0").ok());
  auto again = registry.Pull("app:v1", "n0");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->bytes_transferred, 0u);
  registry.EvictNodeCache("n0");
  auto after_evict = registry.Pull("app:v1", "n0");
  ASSERT_TRUE(after_evict.ok());
  EXPECT_GT(after_evict->bytes_transferred, 0u);
}

TEST(ImageRegistry, ScanHookQuarantinesBadLayers) {
  sched::ImageRegistry registry;
  registry.set_scan_hook([](const sched::ImageLayer&, const util::Bytes& content)
                             -> util::Status {
    if (util::StringOf(content).find("malware") != std::string::npos) {
      return util::Status::PermissionDenied("CVE detected");
    }
    return util::Status::Ok();
  });
  EXPECT_TRUE(registry.Push("clean", "v1", {BytesOf("fine")}).ok());
  EXPECT_FALSE(registry.Push("dirty", "v1", {BytesOf("fine"), BytesOf("malware!!")}).ok());
  EXPECT_FALSE(registry.Manifest("dirty:v1").ok()) << "atomic push: nothing stored";
}

TEST(ImageRegistry, DeleteGarbageCollectsUnreferencedLayers) {
  sched::ImageRegistry registry;
  const util::Bytes shared = BytesOf(std::string(1000, 'S'));
  ASSERT_TRUE(registry.Push("a", "v1", {shared, BytesOf("only-a")}).ok());
  ASSERT_TRUE(registry.Push("b", "v1", {shared, BytesOf("only-b")}).ok());
  auto reclaimed = registry.DeleteImage("a:v1");
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(*reclaimed, 6u) << "only 'only-a' reclaimed; shared layer survives";
  EXPECT_EQ(registry.unique_layers(), 2u);
  EXPECT_FALSE(registry.DeleteImage("a:v1").ok());
}

TEST(ImageRegistry, RejectsMalformedPushes) {
  sched::ImageRegistry registry;
  EXPECT_FALSE(registry.Push("", "v1", {BytesOf("x")}).ok());
  EXPECT_FALSE(registry.Push("a", "", {BytesOf("x")}).ok());
  EXPECT_FALSE(registry.Push("a", "v1", {}).ok());
  EXPECT_FALSE(registry.Pull("ghost:v1", "n0").ok());
}

}  // namespace
}  // namespace myrtus
