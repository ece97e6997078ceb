#include "swarm/placement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "swarm/pso.hpp"
#include "util/parallel.hpp"

namespace myrtus::swarm {
namespace {

constexpr double kViolationPenalty = 1e6;

}  // namespace

double PlacementProblem::Cost(const std::vector<int>& assignment) const {
  if (assignment.size() != tasks.size()) return kViolationPenalty * 1e3;
  std::vector<double> cpu_used(nodes.size(), 0.0);
  std::vector<double> mem_used(nodes.size(), 0.0);
  double cost = 0.0;

  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const int ni = assignment[t];
    if (ni < 0 || static_cast<std::size_t>(ni) >= nodes.size()) {
      cost += kViolationPenalty;
      continue;
    }
    const PlacementTask& task = tasks[t];
    const PlacementNode& node = nodes[static_cast<std::size_t>(ni)];
    if (node.security_level < task.min_security) cost += kViolationPenalty;
    if (task.needs_accelerator && !node.has_accelerator) cost += kViolationPenalty;
    cpu_used[static_cast<std::size_t>(ni)] += task.cpu;
    mem_used[static_cast<std::size_t>(ni)] += task.mem_mb;
    // Energy: cpu demand * node power proxy. Latency: traffic-weighted
    // distance to the consumer.
    cost += energy_weight * task.cpu * node.power_mw_per_cpu * 1e-3;
    cost += latency_weight * task.traffic_kbps * node.latency_to_consumer_ms * 1e-3;
  }
  double imbalance = 0.0;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (cpu_used[n] > nodes[n].cpu_capacity) {
      cost += kViolationPenalty * (1.0 + cpu_used[n] - nodes[n].cpu_capacity);
    }
    if (mem_used[n] > nodes[n].mem_capacity_mb) cost += kViolationPenalty;
    const double util =
        nodes[n].cpu_capacity > 0 ? cpu_used[n] / nodes[n].cpu_capacity : 0.0;
    imbalance += util * util;
  }
  cost += balance_weight * imbalance;
  return cost;
}

bool PlacementProblem::Feasible(const std::vector<int>& assignment) const {
  return Cost(assignment) < kViolationPenalty;
}

PlacementSolution SolveGreedy(const PlacementProblem& problem) {
  PlacementSolution sol;
  sol.assignment.assign(problem.tasks.size(), -1);
  std::vector<std::size_t> order(problem.tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return problem.tasks[a].cpu > problem.tasks[b].cpu;
  });

  // Probe each candidate node in place on the partial assignment; strict <
  // keeps the first lowest-index node on ties.
  for (const std::size_t t : order) {
    double best_cost = std::numeric_limits<double>::infinity();
    int best_node = -1;
    for (std::size_t n = 0; n < problem.nodes.size(); ++n) {
      sol.assignment[t] = static_cast<int>(n);
      ++sol.evaluations;
      const double c = problem.Cost(sol.assignment);
      if (c < best_cost) {
        best_cost = c;
        best_node = static_cast<int>(n);
      }
    }
    sol.assignment[t] = best_node;
  }
  sol.cost = problem.Cost(sol.assignment);
  return sol;
}

PlacementSolution SolveRandom(const PlacementProblem& problem, util::Rng& rng) {
  PlacementSolution sol;
  sol.assignment.resize(problem.tasks.size());
  for (int& a : sol.assignment) {
    a = static_cast<int>(rng.NextBounded(problem.nodes.size()));
  }
  sol.cost = problem.Cost(sol.assignment);
  sol.evaluations = 1;
  return sol;
}

util::StatusOr<PlacementSolution> SolveExhaustive(const PlacementProblem& problem) {
  const std::size_t n = problem.nodes.size();
  const std::size_t t = problem.tasks.size();
  double states = 1.0;
  for (std::size_t i = 0; i < t; ++i) {
    states *= static_cast<double>(n);
    if (states > 2e6) {
      return util::Status::InvalidArgument(
          "exhaustive placement: state space too large");
    }
  }
  PlacementSolution best;
  best.cost = std::numeric_limits<double>::infinity();
  if (n == 0) {
    // Degenerate instance: the odometer loop still visited the all-zero
    // assignment exactly once, so keep doing that (it scores pure penalty).
    best.assignment.assign(t, 0);
    best.cost = problem.Cost(best.assignment);
    best.evaluations = 1;
    return best;
  }

  // The odometer visited assignments in base-n order with task 0 as the
  // least-significant digit; state index i decodes to assignment[k] =
  // (i / n^k) % n, the same sequence. Each shard tracks its first strict
  // minimum; folding shard minima in shard order with strict < reproduces
  // the sequential first-global-minimum winner.
  const std::size_t total = static_cast<std::size_t>(states);
  const std::size_t shards = util::ParallelShardCount(total);
  std::vector<double> shard_cost(shards,
                                 std::numeric_limits<double>::infinity());
  std::vector<std::vector<int>> shard_best(shards);
  util::ParallelFor(total, [&](const util::Shard& shard) {
    std::vector<int> assignment(t);
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      std::size_t rem = i;
      for (std::size_t k = 0; k < t; ++k) {
        assignment[k] = static_cast<int>(rem % n);
        rem /= n;
      }
      const double c = problem.Cost(assignment);
      if (c < shard_cost[shard.index]) {
        shard_cost[shard.index] = c;
        shard_best[shard.index] = assignment;
      }
    }
  });
  best.evaluations = static_cast<int>(total);
  for (std::size_t s = 0; s < shards; ++s) {
    if (shard_cost[s] < best.cost) {
      best.cost = shard_cost[s];
      best.assignment = std::move(shard_best[s]);
    }
  }
  return best;
}

PlacementSolution SolvePso(const PlacementProblem& problem, util::Rng& rng,
                           int particles, int iterations) {
  const std::size_t t = problem.tasks.size();
  const double n = static_cast<double>(problem.nodes.size());
  const auto decode = [&](const std::vector<double>& x) {
    std::vector<int> assignment(t);
    for (std::size_t i = 0; i < t; ++i) {
      assignment[i] = std::clamp(static_cast<int>(x[i]), 0,
                                 static_cast<int>(n) - 1);
    }
    return assignment;
  };
  PsoConfig config;
  config.particles = particles;
  config.iterations = iterations;
  // Memetic seeding: anchor one particle at the greedy solution so the swarm
  // explores from a feasible region even on large instances.
  const PlacementSolution greedy = SolveGreedy(problem);
  std::vector<double> seed(t);
  for (std::size_t i = 0; i < t; ++i) {
    seed[i] = static_cast<double>(greedy.assignment[i]) + 0.5;
  }
  const PsoResult r = MinimizePso(
      [&](const std::vector<double>& x) { return problem.Cost(decode(x)); },
      std::vector<double>(t, 0.0), std::vector<double>(t, n - 1e-9), rng,
      config, seed);
  PlacementSolution sol;
  sol.assignment = decode(r.best_position);
  sol.cost = problem.Cost(sol.assignment);
  sol.evaluations = r.evaluations;
  return sol;
}

PlacementSolution SolveAco(const PlacementProblem& problem, util::Rng& rng,
                           int ants, int iterations, double evaporation) {
  const std::size_t t = problem.tasks.size();
  const std::size_t n = problem.nodes.size();
  std::vector<std::vector<double>> pheromone(t, std::vector<double>(n, 1.0));

  // Heuristic desirability: inverse of single-task marginal cost.
  std::vector<std::vector<double>> heuristic(t, std::vector<double>(n, 1.0));
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double c = 0.0;
      const PlacementTask& task = problem.tasks[i];
      const PlacementNode& node = problem.nodes[j];
      if (node.security_level < task.min_security) c += kViolationPenalty;
      if (task.needs_accelerator && !node.has_accelerator) c += kViolationPenalty;
      c += task.cpu * node.power_mw_per_cpu * 1e-3 +
           task.traffic_kbps * node.latency_to_consumer_ms * 1e-3;
      heuristic[i][j] = 1.0 / (1.0 + c);
    }
  }

  PlacementSolution best;
  best.cost = std::numeric_limits<double>::infinity();
  for (int it = 0; it < iterations; ++it) {
    // Roulette selection consumes `rng` in ant order; the best-so-far fold
    // uses strict <, so the first lowest-cost ant wins ties.
    std::vector<std::vector<int>> tours(static_cast<std::size_t>(ants));
    std::vector<double> costs(static_cast<std::size_t>(ants));
    for (int a = 0; a < ants; ++a) {
      std::vector<int>& tour = tours[static_cast<std::size_t>(a)];
      tour.resize(t);
      for (std::size_t i = 0; i < t; ++i) {
        // Roulette selection by pheromone * heuristic.
        double total = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          total += pheromone[i][j] * heuristic[i][j];
        }
        double pick = rng.NextDouble() * total;
        std::size_t chosen = n - 1;
        for (std::size_t j = 0; j < n; ++j) {
          pick -= pheromone[i][j] * heuristic[i][j];
          if (pick <= 0) {
            chosen = j;
            break;
          }
        }
        tour[i] = static_cast<int>(chosen);
      }
      const double cost = problem.Cost(tour);
      costs[static_cast<std::size_t>(a)] = cost;
      ++best.evaluations;
      if (cost < best.cost) {
        best.cost = cost;
        best.assignment = tour;
      }
    }
    // Evaporate and reinforce with each ant's tour (quality-weighted).
    for (std::size_t i = 0; i < t; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        pheromone[i][j] *= (1.0 - evaporation);
        pheromone[i][j] = std::max(pheromone[i][j], 1e-6);
      }
    }
    for (int a = 0; a < ants; ++a) {
      const double quality = 1.0 / (1.0 + costs[static_cast<std::size_t>(a)]);
      for (std::size_t i = 0; i < t; ++i) {
        pheromone[i][static_cast<std::size_t>(tours[static_cast<std::size_t>(a)][i])] +=
            quality;
      }
    }
  }
  return best;
}

}  // namespace myrtus::swarm
