// SLO self-monitoring: declarative latency/availability objectives evaluated
// with the multi-window burn-rate method (Google SRE workbook ch. 5). Each
// objective owns two rolling windows over (good, total) buckets — a fast
// window that reacts in seconds and a slow window that filters blips — and
// an alert fires only when BOTH windows burn error budget faster than the
// configured rate. Hysteresis on the clear side (burn must fall well below
// the threshold in both windows) keeps the alert from flapping at the
// boundary. All timestamps are simulation-clock nanoseconds, so burn-rate
// trajectories are byte-reproducible per seed.
//
// This is the closure of the MAPE-K Monitor phase: PR-1 telemetry *emits*
// observations, the SLO engine *consumes* them into alert state that the
// MIRTO Analyze step feeds back into the knowledge base — the loop observes
// itself.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace myrtus::telemetry {

struct SloObjective {
  enum class Kind : std::uint8_t { kLatency, kAvailability };

  std::string name;
  Kind kind = Kind::kAvailability;
  /// Latency objectives: an observation is good iff value <= threshold.
  double latency_threshold_ms = 100.0;
  /// Fraction of observations that must be good (error budget = 1 - target).
  double target = 0.99;
  /// Rolling windows (sim time). Defaults suit simulated worlds where whole
  /// experiments span seconds, not weeks.
  std::int64_t fast_window_ns = 2'000'000'000;   // 2 s
  std::int64_t slow_window_ns = 10'000'000'000;  // 10 s
  /// Breach when burn rate >= threshold in BOTH windows. Burn rate 1.0 =
  /// consuming exactly the error budget; the classic page threshold is high
  /// multiples of it.
  double burn_rate_threshold = 4.0;
  /// Hysteresis: a breached objective clears only once both burn rates drop
  /// below threshold * clear_fraction.
  double clear_fraction = 0.5;
};

enum class SloState : std::uint8_t { kOk, kBreach };
std::string_view SloStateName(SloState state);

/// Live evaluation result of one objective.
struct SloStatus {
  SloState state = SloState::kOk;
  double fast_burn_rate = 0.0;
  double slow_burn_rate = 0.0;
  std::uint64_t observations = 0;  // lifetime
  std::uint64_t bad = 0;           // lifetime
  std::uint64_t breaches = 0;      // Ok -> Breach transitions
  std::int64_t last_transition_ns = 0;
};

class SloEngine {
 public:
  /// Fired on every state transition (breached == entering kBreach).
  using TransitionHandler = std::function<void(
      const std::string& name, const SloStatus& status, bool breached)>;

  /// INVALID_ARGUMENT on duplicate names, non-positive windows, a fast
  /// window at least as long as the slow one, or target outside (0, 1).
  [[nodiscard]] util::Status AddObjective(SloObjective objective);
  void set_transition_handler(TransitionHandler handler) {
    handler_ = std::move(handler);
  }

  /// Feeds one latency observation to a kLatency objective.
  void RecordLatencyMs(std::string_view name, double ms, std::int64_t now_ns);
  /// Feeds one success/failure observation to a kAvailability objective.
  void RecordAvailability(std::string_view name, bool ok, std::int64_t now_ns);

  /// Bulk paths for event-driven monitors: exactly equivalent to `ok_count`
  /// RecordAvailability(ok=true) plus `bad_count` (ok=false) calls at the
  /// same now_ns — observations commute within a bucket, so an incremental
  /// Monitor can fold its "N unchanged-up nodes" into one call and keep the
  /// availability math byte-identical to the full walk.
  void RecordAvailabilityBulk(std::string_view name, std::uint64_t ok_count,
                              std::uint64_t bad_count, std::int64_t now_ns);
  /// Same for pre-classified latency outcomes (good iff value was within the
  /// objective threshold).
  void RecordLatencyOutcomes(std::string_view name, std::uint64_t good_count,
                             std::uint64_t bad_count, std::int64_t now_ns);

  /// Recomputes burn rates and applies breach/clear transitions. When
  /// telemetry is enabled, publishes myrtus_slo_* metrics and fires the
  /// tracer's fault trigger on every new breach.
  void Evaluate(std::int64_t now_ns);

  [[nodiscard]] const SloStatus* Find(std::string_view name) const;
  /// Names of currently-breached objectives, sorted.
  [[nodiscard]] std::vector<std::string> Breached() const;
  [[nodiscard]] std::size_t objective_count() const { return slos_.size(); }
  [[nodiscard]] bool any_breached() const;

  void Clear() { slos_.clear(); }

 private:
  /// One window = deque of fixed-width buckets, evicted as time advances.
  struct Bucket {
    std::int64_t index = 0;  // at_ns / width
    std::uint64_t good = 0;
    std::uint64_t total = 0;
  };
  struct Window {
    std::int64_t span_ns = 0;
    std::int64_t bucket_width_ns = 0;
    std::deque<Bucket> buckets;

    void Observe(std::int64_t at_ns, bool good);
    void ObserveBulk(std::int64_t at_ns, std::uint64_t good,
                     std::uint64_t total);
    void Evict(std::int64_t now_ns);
    /// Fraction of bad observations in the window (0 when empty).
    [[nodiscard]] double BadFraction() const;
  };
  struct Tracked {
    SloObjective objective;
    SloStatus status;
    Window fast;
    Window slow;
  };

  void Observe(std::string_view name, SloObjective::Kind kind, bool good,
               std::int64_t now_ns);
  void ObserveBulk(std::string_view name, SloObjective::Kind kind,
                   std::uint64_t good, std::uint64_t bad, std::int64_t now_ns);

  std::map<std::string, Tracked, std::less<>> slos_;
  TransitionHandler handler_;
};

}  // namespace myrtus::telemetry
