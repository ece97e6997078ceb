// PSO convergence, placement solver portfolio (greedy/random/exhaustive/
// PSO/ACO), and FREVO-style rule evolution.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "swarm/placement.hpp"
#include "swarm/pso.hpp"
#include "swarm/rules.hpp"

namespace myrtus::swarm {
namespace {

TEST(Pso, MinimizesSphereFunction) {
  util::Rng rng(1);
  const auto sphere = [](const std::vector<double>& x) {
    double s = 0;
    for (const double v : x) s += v * v;
    return s;
  };
  const PsoResult r = MinimizePso(sphere, {-5, -5, -5}, {5, 5, 5}, rng);
  EXPECT_LT(r.best_value, 1e-2);
  EXPECT_GT(r.evaluations, 100);
}

TEST(Pso, MinimizesShiftedRosenbrockIsh) {
  util::Rng rng(2);
  const auto f = [](const std::vector<double>& x) {
    return std::pow(x[0] - 2.0, 2) + 5.0 * std::pow(x[1] + 1.0, 2);
  };
  PsoConfig config;
  config.iterations = 120;
  const PsoResult r = MinimizePso(f, {-10, -10}, {10, 10}, rng, config);
  EXPECT_NEAR(r.best_position[0], 2.0, 0.05);
  EXPECT_NEAR(r.best_position[1], -1.0, 0.05);
}

TEST(Pso, RespectsBounds) {
  util::Rng rng(3);
  const auto f = [](const std::vector<double>& x) { return -x[0]; };  // wants +inf
  const PsoResult r = MinimizePso(f, {0}, {3}, rng);
  EXPECT_LE(r.best_position[0], 3.0);
  EXPECT_NEAR(r.best_position[0], 3.0, 1e-6);
}

TEST(Pso, EmptyProblemIsHarmless) {
  util::Rng rng(4);
  const PsoResult r = MinimizePso([](const std::vector<double>&) { return 0.0; },
                                  {}, {}, rng);
  EXPECT_TRUE(r.best_position.empty());
}

PlacementProblem SmallProblem() {
  PlacementProblem p;
  // Three tasks, one needs an accelerator, one needs security >= 1.
  p.tasks = {
      {1.0, 256, 0, false, 100.0},
      {2.0, 512, 0, true, 10.0},
      {0.5, 128, 1, false, 500.0},
  };
  p.nodes = {
      {"edge-fpga", 4.0, 2048, 0, true, 900.0, 2.0},
      {"fog", 8.0, 8192, 1, false, 400.0, 7.0},
      {"cloud", 64.0, 65536, 2, false, 150.0, 30.0},
  };
  return p;
}

TEST(Placement, GreedyProducesFeasibleSolution) {
  const PlacementProblem p = SmallProblem();
  const PlacementSolution s = SolveGreedy(p);
  EXPECT_TRUE(p.Feasible(s.assignment)) << "cost=" << s.cost;
  // Accelerator task must be on the FPGA node.
  EXPECT_EQ(s.assignment[1], 0);
  // Security-1 task cannot be on the level-0 edge node.
  EXPECT_NE(s.assignment[2], 0);
}

TEST(Placement, ExhaustiveMatchesOrBeatsGreedy) {
  const PlacementProblem p = SmallProblem();
  const PlacementSolution greedy = SolveGreedy(p);
  auto exact = SolveExhaustive(p);
  ASSERT_TRUE(exact.ok());
  EXPECT_LE(exact->cost, greedy.cost + 1e-9);
  EXPECT_TRUE(p.Feasible(exact->assignment));
}

TEST(Placement, ExhaustiveRefusesHugeSpaces) {
  PlacementProblem p;
  p.tasks.resize(30, {0.1, 1, 0, false, 0});
  p.nodes.resize(10, {"n", 100, 1e6, 2, true, 1, 1});
  EXPECT_FALSE(SolveExhaustive(p).ok());
}

TEST(Placement, PsoAndAcoBeatRandom) {
  PlacementProblem p;
  util::Rng setup(7);
  for (int i = 0; i < 12; ++i) {
    p.tasks.push_back({setup.Uniform(0.2, 2.0), setup.Uniform(64, 512),
                       static_cast<int>(setup.NextBounded(2)), setup.NextBool(0.25),
                       setup.Uniform(1, 300)});
  }
  p.nodes = {
      {"e0", 6.0, 4096, 0, true, 800, 2},   {"e1", 6.0, 4096, 1, true, 850, 2},
      {"f0", 16.0, 16384, 1, false, 400, 8}, {"f1", 16.0, 16384, 2, false, 420, 8},
      {"c0", 128.0, 262144, 2, false, 150, 30},
  };
  util::Rng r1(11), r2(12), r3(13);
  // Average several random draws for a fair baseline.
  double random_cost = 0.0;
  for (int i = 0; i < 20; ++i) random_cost += SolveRandom(p, r1).cost;
  random_cost /= 20;
  const PlacementSolution pso = SolvePso(p, r2);
  const PlacementSolution aco = SolveAco(p, r3);
  EXPECT_LT(pso.cost, random_cost);
  EXPECT_LT(aco.cost, random_cost);
  EXPECT_TRUE(p.Feasible(pso.assignment));
  EXPECT_TRUE(p.Feasible(aco.assignment));
}

/// The full-size 64-task x 24-node instance of bench_ablation_parallel (A7).
PlacementProblem A7Problem() {
  PlacementProblem p;
  for (std::size_t t = 0; t < 64; ++t) {
    PlacementTask task;
    task.cpu = 0.25 + 0.05 * static_cast<double>(t % 7);
    task.mem_mb = 64 + 16 * static_cast<double>(t % 5);
    task.traffic_kbps = 10.0 * static_cast<double>(1 + t % 9);
    task.min_security = static_cast<int>(t % 3);
    task.needs_accelerator = (t % 11) == 0;
    p.tasks.push_back(task);
  }
  for (std::size_t n = 0; n < 24; ++n) {
    PlacementNode node;
    node.cpu_capacity = 4.0 + static_cast<double>(n % 3);
    node.mem_capacity_mb = 2048;
    node.power_mw_per_cpu = 300.0 + 100.0 * static_cast<double>(n % 4);
    node.latency_to_consumer_ms = 1.0 + static_cast<double>(n % 6);
    node.security_level = static_cast<int>(n % 4);
    node.has_accelerator = (n % 5) == 0;
    p.nodes.push_back(node);
  }
  return p;
}

// Exact values pinned from the fork-join implementation: any change to a
// tie-break, the evaluation order or the RNG draw order moves at least one.
TEST(Placement, GreedyIsPinnedOnA7Instance) {
  const PlacementSolution s = SolveGreedy(A7Problem());
  const std::vector<int> expected = {
      20, 1,  6,  12, 1,  6,  12, 13, 19, 20, 13, 10, 12, 1,  7,  0,
      1,  18, 8,  13, 18, 0,  15, 7,  0,  6,  18, 0,  1,  2,  0,  13,
      18, 0,  6,  18, 8,  1,  18, 12, 13, 18, 12, 13, 15, 20, 1,  6,
      0,  6,  19, 12, 18, 6,  12, 5,  7,  12, 13, 6,  0,  18, 6,  8};
  EXPECT_EQ(s.assignment, expected);
  EXPECT_EQ(s.cost, 16.527373958333321);
  EXPECT_EQ(s.evaluations, 64 * 24);
}

TEST(Placement, SeededAcoIsPinnedOnA7Instance) {
  util::Rng rng(29, "bench.placement");
  const PlacementSolution s = SolveAco(A7Problem(), rng, 24, 20, 0.35);
  const std::vector<int> expected = {
      20, 11, 18, 8,  19, 6,  12, 9,  18, 4,  9,  10, 0,  1,  18, 14,
      18, 6,  16, 13, 23, 5,  15, 6,  12, 21, 19, 16, 1,  15, 13, 18,
      18, 10, 22, 6,  22, 6,  6,  18, 15, 7,  12, 7,  10, 13, 10, 14,
      14, 6,  14, 20, 15, 14, 2,  10, 7,  20, 6,  22, 0,  1,  18, 1};
  EXPECT_EQ(s.assignment, expected);
  EXPECT_EQ(s.cost, 20.211375694444442);
  EXPECT_EQ(s.evaluations, 24 * 20);
}

TEST(Placement, CostPenalizesOverCommit) {
  PlacementProblem p;
  p.tasks = {{4.0, 100, 0, false, 0}, {4.0, 100, 0, false, 0}};
  p.nodes = {{"tiny", 5.0, 1e6, 2, true, 100, 1},
             {"big", 50.0, 1e6, 2, true, 100, 1}};
  // Both on tiny: overcommitted -> must cost far more than split.
  EXPECT_GT(p.Cost({0, 0}), p.Cost({0, 1}) * 100);
  EXPECT_TRUE(p.Feasible({0, 1}));
  EXPECT_FALSE(p.Feasible({0, 0}));
}

TEST(Rules, TableSizeAndIndexing) {
  RuleSpec spec;
  spec.feature_levels = {3, 4, 2};
  spec.actions = 5;
  EXPECT_EQ(spec.TableSize(), 24u);
  EXPECT_EQ(spec.StateIndex({0, 0, 0}), 0u);
  EXPECT_EQ(spec.StateIndex({2, 3, 1}), 23u);
  EXPECT_EQ(spec.StateIndex({1, 0, 0}), 8u);
  // Out-of-range features clamp instead of overflowing.
  EXPECT_EQ(spec.StateIndex({99, 99, 99}), 23u);
}

TEST(Rules, RandomPolicyActsWithinRange) {
  RuleSpec spec;
  spec.feature_levels = {4, 4};
  spec.actions = 3;
  util::Rng rng(5);
  const RulePolicy p = RulePolicy::Random(spec, rng);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      const int act = p.Act({a, b});
      EXPECT_GE(act, 0);
      EXPECT_LT(act, 3);
    }
  }
}

TEST(Rules, EvolutionLearnsTargetPolicy) {
  // Fitness: match action = (f0 + f1) % actions for every state.
  RuleSpec spec;
  spec.feature_levels = {4, 4};
  spec.actions = 4;
  const auto fitness = [&](const RulePolicy& p) {
    int correct = 0;
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        if (p.Act({a, b}) == (a + b) % 4) ++correct;
      }
    }
    return static_cast<double>(correct);
  };
  util::Rng rng(6);
  GaConfig config;
  config.generations = 60;
  config.population = 40;
  const EvolutionResult r = EvolveRules(spec, fitness, rng, config);
  EXPECT_GE(r.best_fitness, 15.0) << "should learn nearly all 16 states";
  EXPECT_GE(r.fitness_history.size(), 10u);
  // Fitness is monotone non-decreasing over generations (elitism).
  for (std::size_t i = 1; i < r.fitness_history.size(); ++i) {
    EXPECT_GE(r.fitness_history[i] + 1e-9, r.fitness_history[i - 1]);
  }
}

TEST(Rules, EvolutionBeatsRandomBaseline) {
  RuleSpec spec;
  spec.feature_levels = {3, 3, 3};
  spec.actions = 3;
  const auto fitness = [&](const RulePolicy& p) {
    // Reward always choosing action 2 in "overloaded" states (f0 == 2).
    double score = 0;
    for (int a = 0; a < 3; ++a)
      for (int b = 0; b < 3; ++b)
        for (int c = 0; c < 3; ++c)
          if (a == 2 && p.Act({a, b, c}) == 2) score += 1;
    return score;
  };
  util::Rng rng(7);
  const EvolutionResult evolved = EvolveRules(spec, fitness, rng);
  util::Rng rng2(8);
  double random_best = 0;
  for (int i = 0; i < 10; ++i) {
    random_best = std::max(random_best, fitness(RulePolicy::Random(spec, rng2)));
  }
  EXPECT_GT(evolved.best_fitness, random_best);
  EXPECT_NEAR(evolved.best_fitness, 9.0, 1.0);
}

}  // namespace
}  // namespace myrtus::swarm
