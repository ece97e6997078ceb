#include "dpe/dse.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "util/parallel.hpp"

namespace myrtus::dpe {

KpiEstimator::KpiEstimator(const DataflowGraph& graph,
                           std::vector<TargetDevice> targets)
    : graph_(graph), targets_(std::move(targets)) {
  if (auto q = graph_.RepetitionVector(); q.ok()) {
    repetitions_ = std::move(q).value();
  } else {
    repetitions_.assign(graph_.actors().size(), 1);
  }

  // Precompute the per-(actor, device, operating point) execution estimates
  // the sweep's inner loop used to recompute for every configuration. Rows
  // are laid out per device-point (point_offset_[d] + p), columns per actor.
  const auto& actors = graph_.actors();
  const std::size_t n_actors = actors.size();
  const std::size_t n_devices = targets_.size();
  point_offset_.resize(n_devices);
  std::size_t total_points = 0;
  for (std::size_t d = 0; d < n_devices; ++d) {
    point_offset_[d] = total_points;
    total_points += targets_[d].device.operating_points().size();
  }
  point_latency_s_.resize(total_points * n_actors);
  point_energy_mj_.resize(total_points * n_actors);
  infeasible_.assign(n_devices * n_actors, 0);
  for (std::size_t d = 0; d < n_devices; ++d) {
    const TargetDevice& target = targets_[d];
    const auto& points = target.device.operating_points();
    for (std::size_t a = 0; a < n_actors; ++a) {
      continuum::TaskDemand demand;
      demand.cycles = actors[a].cycles_per_firing * repetitions_[a];
      demand.parallel_fraction = actors[a].parallel_fraction;
      demand.accelerable = actors[a].accelerable;
      for (std::size_t p = 0; p < points.size(); ++p) {
        const continuum::ExecutionEstimate est =
            target.device.EstimateAt(demand, points[p]);
        const std::size_t row = (point_offset_[d] + p) * n_actors + a;
        point_latency_s_[row] = est.latency.ToSecondsF();
        point_energy_mj_[row] = est.energy_mj.value();
      }
      // Non-accelerable actors mapped to a pure fabric device are infeasible
      // in the MDC flow (the fabric runs only synthesized kernels).
      if (!actors[a].accelerable &&
          target.device.kind() == continuum::DeviceKind::kFpgaAccelerator) {
        infeasible_[d * n_actors + a] = 1;
      }
    }
  }

  // Channel endpoints resolve actor names once (ActorIndex is a string
  // lookup), and the producer-side transfer cost is precomputed per device.
  channel_spans_.reserve(graph_.channels().size());
  channel_xfer_s_.resize(graph_.channels().size() * n_devices);
  for (std::size_t c = 0; c < graph_.channels().size(); ++c) {
    const Channel& ch = graph_.channels()[c];
    ChannelSpan span;
    span.from = graph_.ActorIndex(ch.from);
    span.to = graph_.ActorIndex(ch.to);
    const std::uint64_t bytes = repetitions_[span.from] *
                                static_cast<std::uint64_t>(ch.produce) *
                                ch.token_bytes;
    // Interconnect energy at a flat 100 pJ/byte, expressed in mJ.
    span.energy_mj = static_cast<double>(bytes) * 100e-12 * 1e3;
    channel_spans_.push_back(span);
    for (std::size_t d = 0; d < n_devices; ++d) {
      channel_xfer_s_[c * n_devices + d] =
          targets_[d].interconnect_latency_s +
          static_cast<double>(bytes) / targets_[d].interconnect_bw_bps;
    }
  }
}

util::StatusOr<KpiEstimate> KpiEstimator::Estimate(
    const Configuration& config) const {
  const auto& actors = graph_.actors();
  if (config.actor_to_device.size() != actors.size()) {
    return util::Status::InvalidArgument("mapping size != actor count");
  }
  if (config.operating_point.size() != targets_.size()) {
    return util::Status::InvalidArgument("operating points size != device count");
  }
  for (std::size_t d = 0; d < targets_.size(); ++d) {
    const int pi = config.operating_point[d];
    if (pi < 0 || static_cast<std::size_t>(pi) >=
                      targets_[d].device.operating_points().size()) {
      return util::Status::InvalidArgument("operating point out of range");
    }
  }

  KpiEstimate kpi;
  const std::size_t n_actors = actors.size();
  const std::size_t n_devices = targets_.size();
  std::vector<double> device_busy_s(n_devices, 0.0);

  // Pure table walk: the estimates themselves were computed once in the
  // constructor. Accumulation order matches the unhoisted code (actors in
  // index order, then channels), so results are bit-identical.
  for (std::size_t a = 0; a < n_actors; ++a) {
    const int di = config.actor_to_device[a];
    if (di < 0 || static_cast<std::size_t>(di) >= n_devices) {
      return util::Status::InvalidArgument("device index out of range");
    }
    const std::size_t d = static_cast<std::size_t>(di);
    const std::size_t p =
        static_cast<std::size_t>(config.operating_point[d]);  // validated above
    const std::size_t row = (point_offset_[d] + p) * n_actors + a;
    device_busy_s[d] += point_latency_s_[row];
    kpi.energy_mj += point_energy_mj_[row];
    if (infeasible_[d * n_actors + a] != 0) kpi.feasible = false;
  }

  // Inter-device transfers serialize on the producing device's timeline
  // (DMA model) and cost flat interconnect energy.
  for (std::size_t c = 0; c < channel_spans_.size(); ++c) {
    const ChannelSpan& span = channel_spans_[c];
    const int da = config.actor_to_device[span.from];
    const int db = config.actor_to_device[span.to];
    if (da == db) continue;
    const std::size_t d = static_cast<std::size_t>(da);
    device_busy_s[d] += channel_xfer_s_[c * n_devices + d];
    kpi.energy_mj += span.energy_mj;
  }

  double makespan = 0.0;
  for (const double busy : device_busy_s) makespan = std::max(makespan, busy);
  kpi.latency_s = makespan;
  if (makespan > 0) kpi.max_device_utilization = 1.0;  // bottleneck device
  return kpi;
}

std::vector<ParetoPoint> ParetoFilter(std::vector<ParetoPoint> points) {
  std::sort(points.begin(), points.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.kpi.latency_s != b.kpi.latency_s) {
                return a.kpi.latency_s < b.kpi.latency_s;
              }
              return a.kpi.energy_mj < b.kpi.energy_mj;
            });
  std::vector<ParetoPoint> front;
  double best_energy = std::numeric_limits<double>::infinity();
  for (ParetoPoint& p : points) {
    if (!p.kpi.feasible) continue;
    if (p.kpi.energy_mj < best_energy - 1e-12) {
      best_energy = p.kpi.energy_mj;
      front.push_back(std::move(p));
    }
  }
  return front;
}

util::StatusOr<DseResult> ExploreExhaustive(const KpiEstimator& estimator,
                                            std::size_t max_states) {
  const std::size_t actors = estimator.graph().actors().size();
  const std::size_t devices = estimator.targets().size();
  double states = 1.0;
  for (std::size_t i = 0; i < actors; ++i) states *= static_cast<double>(devices);
  for (const TargetDevice& t : estimator.targets()) {
    states *= static_cast<double>(t.device.operating_points().size());
  }
  if (states > static_cast<double>(max_states)) {
    return util::Status::InvalidArgument("DSE space too large for exhaustive");
  }

  // Flattened mixed-radix enumeration replacing the old nested recursion:
  // state index i decodes to digits (a0 .. a_{n-1}, p0 .. p_{m-1}) with actor
  // 0 most significant and the last device's operating point fastest-varying
  // — exactly the order the recursive enumerator visited. A flat index space
  // shards trivially for ParallelFor, and commit in shard-index order keeps
  // the point list byte-identical to the serial sweep.
  std::vector<std::size_t> radix;
  radix.reserve(actors + devices);
  for (std::size_t a = 0; a < actors; ++a) radix.push_back(devices);
  for (const TargetDevice& t : estimator.targets()) {
    radix.push_back(t.device.operating_points().size());
  }
  std::size_t total = 1;
  for (const std::size_t r : radix) total *= r;  // <= max_states, no overflow

  const auto decode = [&](std::size_t idx, Configuration& config) {
    for (std::size_t pos = radix.size(); pos-- > 0;) {
      const std::size_t digit = idx % radix[pos];
      idx /= radix[pos];
      if (pos < actors) {
        config.actor_to_device[pos] = static_cast<int>(digit);
      } else {
        config.operating_point[pos - actors] = static_cast<int>(digit);
      }
    }
  };

  DseResult result;
  const std::size_t shards = util::ParallelShardCount(total);
  std::vector<std::vector<ParetoPoint>> shard_points(shards);
  std::vector<int> shard_evaluated(shards, 0);
  util::ParallelFor(total, [&](const util::Shard& shard) {
    Configuration config;
    config.actor_to_device.assign(actors, 0);
    config.operating_point.assign(devices, 0);
    std::vector<ParetoPoint>& out = shard_points[shard.index];
    out.reserve(shard.size());
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      decode(i, config);
      auto kpi = estimator.Estimate(config);
      ++shard_evaluated[shard.index];
      if (kpi.ok()) out.push_back(ParetoPoint{config, *kpi});
    }
  });

  std::vector<ParetoPoint> all;
  all.reserve(total);
  for (std::size_t s = 0; s < shards; ++s) {
    result.evaluated += shard_evaluated[s];
    for (ParetoPoint& p : shard_points[s]) all.push_back(std::move(p));
  }
  result.front = ParetoFilter(std::move(all));
  return result;
}

DseResult ExploreGenetic(const KpiEstimator& estimator, util::Rng& rng,
                         int population, int generations) {
  const std::size_t actors = estimator.graph().actors().size();
  const std::size_t devices = estimator.targets().size();

  const auto random_config = [&] {
    Configuration c;
    c.actor_to_device.resize(actors);
    for (int& d : c.actor_to_device) {
      d = static_cast<int>(rng.NextBounded(devices));
    }
    c.operating_point.resize(devices);
    for (std::size_t d = 0; d < devices; ++d) {
      c.operating_point[d] = static_cast<int>(rng.NextBounded(
          estimator.targets()[d].device.operating_points().size()));
    }
    return c;
  };

  // Parallel decomposition that preserves the serial RNG stream: all random
  // draws happen serially (config generation below consumes `rng` in exactly
  // the order the sequential algorithm did); only the RNG-free KPI
  // evaluations fan out, committed back in item order. Result: bit-identical
  // fronts at any worker count.
  struct Evaluated {
    KpiEstimate kpi;
    bool ok = false;
  };
  const auto evaluate_all = [&](const std::vector<Configuration>& configs) {
    return util::ParallelMap<Evaluated>(configs.size(), [&](std::size_t i) {
      auto kpi = estimator.Estimate(configs[i]);
      return kpi.ok() ? Evaluated{*kpi, true} : Evaluated{};
    });
  };

  DseResult result;
  std::vector<ParetoPoint> archive;
  std::vector<ParetoPoint> current;
  std::vector<Configuration> seeds;
  seeds.reserve(static_cast<std::size_t>(population));
  for (int i = 0; i < population; ++i) seeds.push_back(random_config());
  std::vector<Evaluated> evaluated = evaluate_all(seeds);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ++result.evaluated;
    if (evaluated[i].ok) {
      current.push_back(ParetoPoint{std::move(seeds[i]), evaluated[i].kpi});
    }
  }

  // Scalarized tournament with rotating weights drives diversity along the
  // front; the archive keeps every non-dominated point seen.
  for (int gen = 0; gen < generations; ++gen) {
    archive.insert(archive.end(), current.begin(), current.end());
    archive = ParetoFilter(std::move(archive));

    const double w = (gen % 5) / 4.0;  // 0..1 sweep latency<->energy emphasis
    const auto scalar = [&](const ParetoPoint& p) {
      return w * p.kpi.latency_s * 1e3 + (1 - w) * p.kpi.energy_mj +
             (p.kpi.feasible ? 0.0 : 1e9);
    };
    const auto pick = [&]() -> const ParetoPoint& {
      const ParetoPoint* best = nullptr;
      for (int i = 0; i < 3; ++i) {
        const ParetoPoint& cand = current[rng.NextBounded(current.size())];
        if (best == nullptr || scalar(cand) < scalar(*best)) best = &cand;
      }
      return *best;
    };

    // Children are bred serially (every rng draw in sequential order), then
    // evaluated as one parallel batch. Breeding always yields structurally
    // valid configs, so every child evaluates ok and one batch fills the
    // generation — the rng never needs the "retry on invalid" draws the
    // serial loop allowed for.
    std::vector<Configuration> children;
    children.reserve(static_cast<std::size_t>(population));
    while (children.size() < static_cast<std::size_t>(population)) {
      const ParetoPoint& a = pick();
      const ParetoPoint& b = pick();
      Configuration child;
      child.actor_to_device.resize(actors);
      for (std::size_t i = 0; i < actors; ++i) {
        child.actor_to_device[i] = rng.NextBool()
                                       ? a.config.actor_to_device[i]
                                       : b.config.actor_to_device[i];
        if (rng.NextBool(0.08)) {
          child.actor_to_device[i] = static_cast<int>(rng.NextBounded(devices));
        }
      }
      child.operating_point.resize(devices);
      for (std::size_t d = 0; d < devices; ++d) {
        child.operating_point[d] = rng.NextBool()
                                       ? a.config.operating_point[d]
                                       : b.config.operating_point[d];
        if (rng.NextBool(0.08)) {
          child.operating_point[d] = static_cast<int>(rng.NextBounded(
              estimator.targets()[d].device.operating_points().size()));
        }
      }
      children.push_back(std::move(child));
    }
    evaluated = evaluate_all(children);
    std::vector<ParetoPoint> next;
    next.reserve(children.size());
    for (std::size_t i = 0; i < children.size(); ++i) {
      ++result.evaluated;
      if (evaluated[i].ok) {
        next.push_back(ParetoPoint{std::move(children[i]), evaluated[i].kpi});
      }
    }
    current = std::move(next);
  }
  archive.insert(archive.end(), current.begin(), current.end());
  result.front = ParetoFilter(std::move(archive));
  return result;
}

std::vector<TargetDevice> HmpsocTargets() {
  std::vector<TargetDevice> targets;
  targets.push_back(TargetDevice{"big", continuum::MakeBigCore("big"), 8e9, 5e-6});
  targets.push_back(
      TargetDevice{"little", continuum::MakeLittleCore("little"), 8e9, 5e-6});
  targets.push_back(TargetDevice{"fpga", continuum::MakeFpgaAccelerator("fpga"),
                                 4e9, 20e-6});
  return targets;
}

}  // namespace myrtus::dpe
