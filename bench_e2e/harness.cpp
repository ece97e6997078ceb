#include "harness.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>

namespace myrtus::e2e {

std::string_view LayerName(Layer layer) {
  static constexpr std::array<std::string_view, kLayerCount> kNames = {
      "sim", "net", "kb", "sched", "mirto", "continuum", "usecases"};
  return kNames[static_cast<std::size_t>(layer)];
}

void SpanLog::Enable(std::size_t reserve) {
  enabled_ = true;
  spans_.reserve(reserve);
}

std::int32_t SpanLog::Begin(const char* name, Layer layer,
                            std::uint64_t trace_id) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.trace_id = trace_id;
  span.sim_start_ns = engine_.Now().ns;
  span.host_start_ns = HostNowNs();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::End(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.host_end_ns = HostNowNs();
  span.sim_end_ns = engine_.Now().ns;
  open_.pop_back();
}

void SpanLog::AddSimSpan(const char* name, Layer layer, std::uint64_t trace_id,
                         std::int64_t sim_start_ns, std::int64_t sim_end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.trace_id = trace_id;
  span.sim_start_ns = sim_start_ns;
  span.sim_end_ns = sim_end_ns;
  spans_.push_back(span);
}

std::vector<LayerRow> AttributeLayers(const std::vector<Span>& spans) {
  std::vector<LayerRow> rows(kLayerCount);
  std::vector<std::int64_t> child_host_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0 && span.host_start_ns >= 0) {
      child_host_ns[static_cast<std::size_t>(span.parent)] +=
          span.host_end_ns - span.host_start_ns;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    LayerRow& row = rows[static_cast<std::size_t>(span.layer)];
    ++row.spans;
    row.sim_ms += static_cast<double>(span.sim_end_ns - span.sim_start_ns) / 1e6;
    if (span.host_start_ns >= 0) {
      row.host_self_ms += static_cast<double>(span.host_end_ns -
                                              span.host_start_ns -
                                              child_host_ns[i]) /
                          1e6;
    }
  }
  return rows;
}

std::vector<double> HostDurationsUs(const std::vector<Span>& spans,
                                    std::string_view name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.host_start_ns >= 0 && name == span.name) {
      out.push_back(static_cast<double>(span.host_end_ns - span.host_start_ns) /
                    1e3);
    }
  }
  return out;
}

util::Status WriteChromeTrace(const std::vector<Span>& spans,
                              const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return util::Status::Unavailable("cannot open " + path);
  std::FILE* f = file.get();
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  std::fputs(
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"host clock\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
      "\"args\":{\"name\":\"sim clock\"}}",
      f);
  const std::int64_t host_origin =
      spans.empty() || spans.front().host_start_ns < 0
          ? 0
          : spans.front().host_start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view layer = LayerName(s.layer);
    const auto trace = static_cast<unsigned long long>(s.trace_id);
    if (s.host_start_ns >= 0) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                   "\"cat\":\"%.*s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"span\":%zu,\"parent\":%d,\"trace\":%llu,"
                   "\"sim_start_ns\":%lld,\"sim_end_ns\":%lld}}",
                   s.name, static_cast<int>(layer.size()), layer.data(),
                   static_cast<double>(s.host_start_ns - host_origin) / 1e3,
                   static_cast<double>(s.host_end_ns - s.host_start_ns) / 1e3,
                   i, s.parent, trace,
                   static_cast<long long>(s.sim_start_ns),
                   static_cast<long long>(s.sim_end_ns));
    }
    // Sim clock: async begin/end pairs keyed by trace id, so overlapping
    // stretches of one deployment stack under one row.
    std::fprintf(f,
                 ",\n{\"ph\":\"b\",\"pid\":2,\"tid\":%d,\"id\":%llu,"
                 "\"name\":\"%s\",\"cat\":\"%.*s\",\"ts\":%.3f}"
                 ",\n{\"ph\":\"e\",\"pid\":2,\"tid\":%d,\"id\":%llu,"
                 "\"name\":\"%s\",\"cat\":\"%.*s\",\"ts\":%.3f}",
                 static_cast<int>(s.layer), trace, s.name,
                 static_cast<int>(layer.size()), layer.data(),
                 static_cast<double>(s.sim_start_ns) / 1e3,
                 static_cast<int>(s.layer), trace, s.name,
                 static_cast<int>(layer.size()), layer.data(),
                 static_cast<double>(s.sim_end_ns) / 1e3);
  }
  std::fputs("\n]}\n", f);
  if (std::ferror(f) != 0) return util::Status::DataLoss("write failed: " + path);
  return util::Status::Ok();
}

void AddPercentiles(std::vector<Metric>& out, const std::string& prefix,
                    const util::Samples& samples, const std::string& unit) {
  out.push_back({prefix + "_p50", samples.p50(), unit, samples.count()});
  out.push_back({prefix + "_p99", samples.p99(), unit, samples.count()});
}

double WindowStats::sim_s() const {
  return static_cast<double>(host_ns.size()) * kWindow.ToSecondsF();
}

std::int64_t WindowStats::total_host_ns() const {
  std::int64_t total = 0;
  for (const std::int64_t ns : host_ns) total += ns;
  return total;
}

std::uint64_t WindowStats::total_events() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : events) total += n;
  return total;
}

continuum::InfrastructureSpec EdgeScaled(int n) {
  continuum::InfrastructureSpec spec;
  spec.edge_hmpsoc = 2 * n;
  spec.edge_riscv = 2 * n;
  spec.edge_multicore = 2 * n;
  spec.gateways = std::max(1, n / 2);
  spec.fmdcs = std::max(1, n / 4);
  return spec;
}

ControlLoops::ControlLoops(sim::Engine& engine, SpanLog& spans,
                           std::vector<mirto::MirtoAgent*> agents,
                           std::vector<sched::Cluster*> clusters)
    : engine_(engine),
      spans_(spans),
      agents_(std::move(agents)),
      clusters_(std::move(clusters)) {
  mape_ = engine_.SchedulePeriodic(kMapePeriod, [this] {
    for (mirto::MirtoAgent* agent : agents_) {
      ScopedSpan span(spans_, "mirto.mape", Layer::kMirto);
      agent->RunMapeIteration();
    }
  });
  reconcile_ = engine_.SchedulePeriodic(kReconcilePeriod, [this] {
    for (sched::Cluster* cluster : clusters_) {
      ScopedSpan span(spans_, "sched.reconcile", Layer::kSched);
      cluster->Reconcile();
    }
  });
}

ControlLoops::~ControlLoops() {
  engine_.Cancel(mape_);
  engine_.Cancel(reconcile_);
}

WindowStats RunWindows(sim::Engine& engine, SpanLog& spans, int windows,
                       bool traced, const std::function<void()>& between) {
  if (traced) spans.Enable(1u << 20);
  WindowStats stats;
  stats.host_ns.reserve(static_cast<std::size_t>(windows));
  stats.events.reserve(static_cast<std::size_t>(windows));
  for (int w = 0; w < windows; ++w) {
    const sim::SimTime deadline = engine.Now() + kWindow;
    const std::uint64_t events_before = engine.executed_events();
    const std::int64_t start = HostNowNs();
    {
      ScopedSpan root(spans, "sim.run_until", Layer::kSim,
                      static_cast<std::uint64_t>(w));
      engine.RunUntil(deadline);
    }
    stats.host_ns.push_back(HostNowNs() - start);
    stats.events.push_back(engine.executed_events() - events_before);
    stats.queue_depth_max =
        std::max(stats.queue_depth_max, engine.pending_events());
    if (between) between();
  }
  spans.Disable();
  return stats;
}

bool SettleUntil(sim::Engine& engine, sim::SimTime limit,
                 const std::function<bool()>& done) {
  const sim::SimTime end = engine.Now() + limit;
  while (!done()) {
    if (engine.Now() >= end) return false;
    engine.RunUntil(engine.Now() + kWindow);
  }
  return true;
}

}  // namespace myrtus::e2e
