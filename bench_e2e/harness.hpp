// Shared machinery of the end-to-end benchmark: the two clocks, the
// bench-side span log used for per-layer host-time attribution, the measured
// window loop, and the per-episode result every workload returns.
//
// Two clocks are named on every number. "sim" is simulated time — what the
// modelled continuum costs, a pure function of the seed. "host" is
// steady_clock time — what this C++ costs to simulate it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "continuum/infrastructure.hpp"
#include "mirto/agent.hpp"
#include "sched/controller.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace myrtus::e2e {

/// Length of one measured window. The measured phase of every workload is a
/// loop of sim::Engine::RunUntil calls this far apart, each timed on the host.
inline constexpr sim::SimTime kWindow = sim::SimTime::Millis(250);
/// Control-loop periods the benchmark drives itself (the program's defaults).
inline constexpr sim::SimTime kMapePeriod = sim::SimTime::Millis(250);
inline constexpr sim::SimTime kReconcilePeriod = sim::SimTime::Millis(500);
/// Seed of the program's own random streams (link jitter, Raft timeouts,
/// retry backoff). Fixed, so the workload seed varies only the inputs.
inline constexpr std::uint64_t kProgramSeed = 17;
/// Trace ids at and above this mark one operation (deployment, request);
/// below it they number the measured windows.
inline constexpr std::uint64_t kOpTraceBase = 1u << 20;

inline std::int64_t HostNowNs() {
  // LINT: allow(determinism, the host clock is what this benchmark measures)
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The continuum layers, one MirtoEngine agent and cluster each.
inline constexpr std::array<continuum::Layer, 3> kContinuumLayers = {
    continuum::Layer::kEdge, continuum::Layer::kFog, continuum::Layer::kCloud};

/// `prefix` followed by `index` zero-padded to six digits ("a000042").
inline std::string PaddedName(char prefix, std::size_t index) {
  const std::string digits = std::to_string(index);
  return prefix + std::string(digits.size() < 6 ? 6 - digits.size() : 0, '0') +
         digits;
}

/// Attribution layers, named after this repository's modules.
enum class Layer : std::uint8_t {
  kSim,
  kNet,
  kKb,
  kSched,
  kMirto,
  kContinuum,
  kUsecases,
};
inline constexpr std::size_t kLayerCount = 7;
std::string_view LayerName(Layer layer);

/// One bench-side span. Host spans wrap a call the benchmark makes into a
/// layer and carry both clocks; sim-only spans (host_start_ns == -1) mark an
/// asynchronous stretch of one deployment on the sim clock.
struct Span {
  const char* name = "";
  Layer layer = Layer::kSim;
  std::int32_t parent = -1;  // index into the log; -1 = root
  std::uint64_t trace_id = 0;  // window, deployment, or request
  std::int64_t host_start_ns = -1;
  std::int64_t host_end_ns = -1;
  std::int64_t sim_start_ns = 0;
  std::int64_t sim_end_ns = 0;
};

/// Spans of one traced episode's measured windows, in a vector reserved up
/// front. Disabled, it records nothing and every call is one branch, so
/// traced and untraced episodes execute the same simulation.
class SpanLog {
 public:
  explicit SpanLog(const sim::Engine& engine) : engine_(engine) {}

  void Enable(std::size_t reserve);
  void Disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a child of the innermost open span; returns its index.
  std::int32_t Begin(const char* name, Layer layer, std::uint64_t trace_id);
  void End(std::int32_t index);
  /// Records a finished sim-only span.
  void AddSimSpan(const char* name, Layer layer, std::uint64_t trace_id,
                  std::int64_t sim_start_ns, std::int64_t sim_end_ns);

  std::vector<Span> Take() { return std::move(spans_); }

 private:
  const sim::Engine& engine_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII host span; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, Layer layer,
             std::uint64_t trace_id = 0)
      : log_(log),
        index_(log.enabled() ? log.Begin(name, layer, trace_id) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) log_.End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

/// Per-layer totals of one traced episode.
struct LayerRow {
  std::uint64_t spans = 0;
  double host_self_ms = 0.0;  // span time minus its children's
  double sim_ms = 0.0;        // summed sim duration of the layer's spans
};
std::vector<LayerRow> AttributeLayers(const std::vector<Span>& spans);
/// Host durations (µs) of every span called `name`.
std::vector<double> HostDurationsUs(const std::vector<Span>& spans,
                                    std::string_view name);
/// Chrome trace_event JSON: host spans as complete events on the host
/// clock (pid 1), every span again on the sim clock (pid 2).
util::Status WriteChromeTrace(const std::vector<Span>& spans,
                              const std::string& path);

/// Growth of a monotone counter between two reads, as a metric value.
inline double Delta(std::uint64_t before, std::uint64_t after) {
  return static_cast<double>(util::SubSat(after, before));
}

/// A named number. `samples` > 0 marks a percentile and counts its inputs.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Appends `<prefix>_p50` and `<prefix>_p99` of `samples`.
void AddPercentiles(std::vector<Metric>& out, const std::string& prefix,
                    const util::Samples& samples, const std::string& unit);

/// Host cost of the measured windows.
struct WindowStats {
  std::vector<std::int64_t> host_ns;  // one entry per window
  std::vector<std::uint64_t> events;  // engine events per window
  std::size_t queue_depth_max = 0;    // pending events at window boundaries

  [[nodiscard]] double sim_s() const;
  [[nodiscard]] std::int64_t total_host_ns() const;
  [[nodiscard]] std::uint64_t total_events() const;
};

/// "edge×n": 2n HMPSoC, 2n RISC-V and 2n multicore edge nodes, n/2 smart
/// gateways, n/4 FMDCs and the cloud DC (n = 32 gives 217 nodes).
continuum::InfrastructureSpec EdgeScaled(int n);

/// The program's control loops, driven from bench events so their host time
/// can be measured from outside: one MAPE iteration per agent every
/// kMapePeriod and one reconcile per cluster every kReconcilePeriod — the
/// periods of the program's own timers, which the workloads stop.
class ControlLoops {
 public:
  ControlLoops(sim::Engine& engine, SpanLog& spans,
               std::vector<mirto::MirtoAgent*> agents,
               std::vector<sched::Cluster*> clusters);
  ~ControlLoops();
  ControlLoops(const ControlLoops&) = delete;
  ControlLoops& operator=(const ControlLoops&) = delete;

 private:
  sim::Engine& engine_;
  SpanLog& spans_;
  std::vector<mirto::MirtoAgent*> agents_;
  std::vector<sched::Cluster*> clusters_;
  sim::EventHandle mape_;
  sim::EventHandle reconcile_;
};

/// Runs `windows` consecutive windows of kWindow from the engine's current
/// time, recording spans when `traced`; each window is one root span
/// `sim.run_until`. `between` runs after every window, outside the timed
/// region (gauge sampling).
WindowStats RunWindows(sim::Engine& engine, SpanLog& spans, int windows,
                       bool traced, const std::function<void()>& between);

/// Runs the engine in kWindow steps until `done()` holds or `limit` of sim
/// time has passed; returns whether `done()` held. Unmeasured.
bool SettleUntil(sim::Engine& engine, sim::SimTime limit,
                 const std::function<bool()>& done);

/// Everything one episode yields: one world built, measured and checked.
struct EpisodeResult {
  double setup_s = 0.0;
  WindowStats windows;
  /// The workload's operation ("deploy", "request", "recovery"): its sim
  /// latency samples and the share of attempts that met its goal.
  std::string op;
  util::Samples op_sim_ms;
  double op_ok_ratio = 0.0;
  std::string miss_ratio_name;  // the workload's name for 1 - op_ok_ratio
  /// Deterministic per-layer results (sim clock and counts).
  std::vector<Metric> counts;
  /// Correctness-check failures; empty when every check passed.
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Span> spans;  // traced episodes only
};

/// Runs one episode; `traced` enables the span log. Inputs are generated
/// when the runner is made, before any clock starts.
using EpisodeRunner = std::function<EpisodeResult(bool traced)>;

EpisodeRunner PrepareDeployStorm(std::uint64_t seed, bool smoke);
EpisodeRunner PreparePilotTraffic(std::uint64_t seed, bool smoke);
EpisodeRunner PrepareChurnRecovery(std::uint64_t seed, bool smoke);

}  // namespace myrtus::e2e
