#include "telemetry/slo.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace myrtus::telemetry {

namespace {
/// Buckets per window: coarse enough to stay O(1)-ish, fine enough that
/// eviction granularity doesn't distort the burn rate materially.
constexpr std::int64_t kBucketsPerWindow = 20;
}  // namespace

std::string_view SloStateName(SloState state) {
  return state == SloState::kBreach ? "breach" : "ok";
}

void SloEngine::Window::Observe(std::int64_t at_ns, bool good) {
  const std::int64_t index = at_ns / bucket_width_ns;
  if (buckets.empty() || buckets.back().index < index) {
    buckets.push_back({index, 0, 0});
  }
  // Observations arrive in sim-time order (the simulator is monotonic), so
  // the target bucket is always the newest.
  Bucket& b = buckets.back();
  ++b.total;
  if (good) ++b.good;
}

void SloEngine::Window::ObserveBulk(std::int64_t at_ns, std::uint64_t good,
                                    std::uint64_t total) {
  if (total == 0) return;
  const std::int64_t index = at_ns / bucket_width_ns;
  if (buckets.empty() || buckets.back().index < index) {
    buckets.push_back({index, 0, 0});
  }
  // All `total` observations share one timestamp, hence one bucket — folding
  // them into a single increment is exactly N calls to Observe(at_ns, ...).
  Bucket& b = buckets.back();
  b.total += total;
  b.good += good;
}

void SloEngine::Window::Evict(std::int64_t now_ns) {
  const std::int64_t horizon = (now_ns - span_ns) / bucket_width_ns;
  while (!buckets.empty() && buckets.front().index < horizon) {
    buckets.pop_front();
  }
}

double SloEngine::Window::BadFraction() const {
  std::uint64_t good = 0;
  std::uint64_t total = 0;
  for (const Bucket& b : buckets) {
    good += b.good;
    total += b.total;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(total - good) / static_cast<double>(total);
}

util::Status SloEngine::AddObjective(SloObjective objective) {
  if (objective.name.empty()) {
    return util::Status::InvalidArgument("SLO objective needs a name");
  }
  if (slos_.count(objective.name) > 0) {
    return util::Status::InvalidArgument("duplicate SLO objective '" +
                                         objective.name + "'");
  }
  if (objective.fast_window_ns <= 0 || objective.slow_window_ns <= 0) {
    return util::Status::InvalidArgument("SLO windows must be positive");
  }
  if (objective.fast_window_ns >= objective.slow_window_ns) {
    return util::Status::InvalidArgument(
        "fast window must be shorter than the slow window");
  }
  if (objective.target <= 0.0 || objective.target >= 1.0) {
    return util::Status::InvalidArgument(
        "SLO target must lie strictly between 0 and 1");
  }
  Tracked tracked;
  tracked.fast.span_ns = objective.fast_window_ns;
  tracked.fast.bucket_width_ns =
      std::max<std::int64_t>(1, objective.fast_window_ns / kBucketsPerWindow);
  tracked.slow.span_ns = objective.slow_window_ns;
  tracked.slow.bucket_width_ns =
      std::max<std::int64_t>(1, objective.slow_window_ns / kBucketsPerWindow);
  std::string key = objective.name;
  tracked.objective = std::move(objective);
  slos_.emplace(std::move(key), std::move(tracked));
  return util::Status::Ok();
}

void SloEngine::Observe(std::string_view name, SloObjective::Kind kind,
                        bool good, std::int64_t now_ns) {
  const auto it = slos_.find(name);
  if (it == slos_.end() || it->second.objective.kind != kind) return;
  Tracked& t = it->second;
  ++t.status.observations;
  if (!good) ++t.status.bad;
  t.fast.Observe(now_ns, good);
  t.slow.Observe(now_ns, good);
}

void SloEngine::ObserveBulk(std::string_view name, SloObjective::Kind kind,
                            std::uint64_t good, std::uint64_t bad,
                            std::int64_t now_ns) {
  const std::uint64_t total = good + bad;
  if (total == 0) return;
  const auto it = slos_.find(name);
  if (it == slos_.end() || it->second.objective.kind != kind) return;
  Tracked& t = it->second;
  t.status.observations += total;
  t.status.bad += bad;
  t.fast.ObserveBulk(now_ns, good, total);
  t.slow.ObserveBulk(now_ns, good, total);
}

void SloEngine::RecordLatencyMs(std::string_view name, double ms,
                                std::int64_t now_ns) {
  const auto it = slos_.find(name);
  if (it == slos_.end()) return;
  Observe(name, SloObjective::Kind::kLatency,
          ms <= it->second.objective.latency_threshold_ms, now_ns);
}

void SloEngine::RecordAvailability(std::string_view name, bool ok,
                                   std::int64_t now_ns) {
  Observe(name, SloObjective::Kind::kAvailability, ok, now_ns);
}

void SloEngine::RecordAvailabilityBulk(std::string_view name,
                                       std::uint64_t ok_count,
                                       std::uint64_t bad_count,
                                       std::int64_t now_ns) {
  ObserveBulk(name, SloObjective::Kind::kAvailability, ok_count, bad_count,
              now_ns);
}

void SloEngine::RecordLatencyOutcomes(std::string_view name,
                                      std::uint64_t good_count,
                                      std::uint64_t bad_count,
                                      std::int64_t now_ns) {
  ObserveBulk(name, SloObjective::Kind::kLatency, good_count, bad_count,
              now_ns);
}

void SloEngine::Evaluate(std::int64_t now_ns) {
  for (auto& [name, t] : slos_) {
    t.fast.Evict(now_ns);
    t.slow.Evict(now_ns);
    const double budget = 1.0 - t.objective.target;
    t.status.fast_burn_rate = budget > 0.0 ? t.fast.BadFraction() / budget : 0.0;
    t.status.slow_burn_rate = budget > 0.0 ? t.slow.BadFraction() / budget : 0.0;

    const double fire = t.objective.burn_rate_threshold;
    const double clear = fire * t.objective.clear_fraction;
    bool transitioned = false;
    bool breached = false;
    if (t.status.state == SloState::kOk) {
      // Multi-window agreement: the fast window proves it is happening NOW,
      // the slow window proves it is significant.
      if (t.status.fast_burn_rate >= fire && t.status.slow_burn_rate >= fire) {
        t.status.state = SloState::kBreach;
        ++t.status.breaches;
        t.status.last_transition_ns = now_ns;
        transitioned = true;
        breached = true;
      }
    } else if (t.status.fast_burn_rate < clear &&
               t.status.slow_burn_rate < clear) {
      t.status.state = SloState::kOk;
      t.status.last_transition_ns = now_ns;
      transitioned = true;
    }

    if (Enabled()) {
      auto& tel = Global();
      tel.metrics.Set("myrtus_slo_burn_rate", t.status.fast_burn_rate,
                      {{"slo", name}, {"window", "fast"}});
      tel.metrics.Set("myrtus_slo_burn_rate", t.status.slow_burn_rate,
                      {{"slo", name}, {"window", "slow"}});
      tel.metrics.Set("myrtus_slo_breached",
                      t.status.state == SloState::kBreach ? 1.0 : 0.0,
                      {{"slo", name}});
      if (transitioned && breached) {
        tel.metrics.Add("myrtus_slo_breaches_total", 1.0, {{"slo", name}});
        // The moment the loop noticed its objective failing is the moment to
        // dump the span ring (when armed).
        tel.tracer.Trigger("slo.breach:" + name);
      }
    }
    if (transitioned && handler_) handler_(name, t.status, breached);
  }
}

const SloStatus* SloEngine::Find(std::string_view name) const {
  const auto it = slos_.find(name);
  return it == slos_.end() ? nullptr : &it->second.status;
}

std::vector<std::string> SloEngine::Breached() const {
  std::vector<std::string> out;
  for (const auto& [name, t] : slos_) {
    if (t.status.state == SloState::kBreach) out.push_back(name);
  }
  return out;  // std::map iteration is already sorted
}

bool SloEngine::any_breached() const {
  return std::any_of(slos_.begin(), slos_.end(), [](const auto& kv) {
    return kv.second.status.state == SloState::kBreach;
  });
}

}  // namespace myrtus::telemetry
