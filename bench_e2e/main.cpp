// End-to-end benchmark of the MYRTUS continuum: one process per workload.
//
//   bench_e2e --workload=<deploy_storm|pilot_traffic|churn_recovery>
//             --seed=<n> [--seconds=<s>] [--trace=<file>] [--out=<file>]
//             [--smoke]
//
// Inputs are drawn from the seed before any clock starts. The process then
// runs episodes — build the world (timed as set-up), run a fixed number of
// 0.25 sim-s windows (timed on the host), settle, check — until --seconds of
// host time are used, with at least three episodes (two when tracing).
// Every episode of a seed simulates the same thing, and the run checks that
// their sim digests agree. With --trace, odd episodes record bench-side
// spans: the per-layer metrics come from them, the end-to-end metrics from
// the untraced episodes, and the first traced episode is written to <file>
// as Chrome trace_event JSON.
//
// Output: human-readable `name value unit` lines, then as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics, or with --trace the per-layer metrics. Exit status 1
// when a correctness check failed, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench/report.hpp"
#include "harness.hpp"
#include "util/json.hpp"

using namespace myrtus;
using namespace myrtus::e2e;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::string trace_path;
  std::string out_path;
  bool smoke = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The per-layer metrics, in report order. Names absent from a workload
/// (a layer it leaves idle) read 0.
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.host_ns_per_event_drift", "ratio"},
    {"sim.queue_depth_max", "count"},
    {"sim.self_host_ms", "ms"},
    {"net.messages", "count"},
    {"net.bytes", "bytes"},
    {"net.dropped", "count"},
    {"net.retries", "count"},
    {"net.rpc_sim_ms_p50", "ms"},
    {"net.rpc_sim_ms_p99", "ms"},
    {"net.self_host_ms", "ms"},
    {"security.auth_rejects", "count"},
    {"tosca.rejects", "count"},
    {"tosca.csar_bytes_mean", "bytes"},
    {"kb.writes", "count"},
    {"kb.commit_sim_ms_p50", "ms"},
    {"kb.commit_sim_ms_p99", "ms"},
    {"kb.client_retries", "count"},
    {"kb.raft_log_entries", "count"},
    {"kb.raft_term", "count"},
    {"kb.self_host_ms", "ms"},
    {"sched.running_pods", "count"},
    {"sched.pending_pods_max", "count"},
    {"sched.evictions", "count"},
    {"sched.reschedules", "count"},
    {"sched.reconcile_host_us_p50", "us"},
    {"sched.reconcile_host_us_p99", "us"},
    {"sched.delete_host_us_p50", "us"},
    {"sched.self_host_ms", "ms"},
    {"mirto.mape_iterations", "count"},
    {"mirto.mape_host_us_p50", "us"},
    {"mirto.mape_host_us_p99", "us"},
    {"mirto.nodes_observed_per_iter", "count"},
    {"mirto.slo_publishes", "count"},
    {"mirto.bids", "count"},
    {"mirto.awards", "count"},
    {"mirto.bid_useful_ratio", "ratio"},
    {"mirto.negotiate_sim_ms_p50", "ms"},
    {"mirto.negotiate_sim_ms_p99", "ms"},
    {"mirto.observe_sim_ms_p50", "ms"},
    {"mirto.deploy_call_host_us_p50", "us"},
    {"mirto.self_host_ms", "ms"},
    {"continuum.nodes", "count"},
    {"continuum.churn_toggles", "count"},
    {"continuum.energy_mj", "mJ"},
    {"continuum.set_up_host_us_p50", "us"},
    {"continuum.self_host_ms", "ms"},
    {"usecases.requests", "count"},
    {"usecases.launch_host_us_p50", "us"},
    {"usecases.self_host_ms", "ms"},
    {"telemetry.spans", "count"},
    {"telemetry.spans_dropped", "count"},
    {"bench.traced_host_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

/// Host-timed spans summarised as per-call percentiles: span name, metric.
struct HostCallDef {
  const char* span;
  const char* metric;
  bool p99;
};
constexpr HostCallDef kHostCalls[] = {
    {"sched.reconcile", "sched.reconcile_host_us", true},
    {"sched.delete_pod", "sched.delete_host_us", false},
    {"mirto.mape", "mirto.mape_host_us", true},
    {"mirto.deploy_negotiated", "mirto.deploy_call_host_us", false},
    {"continuum.set_up", "continuum.set_up_host_us", false},
    {"usecases.launch", "usecases.launch_host_us", false},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload=<deploy_storm|"
               "pilot_traffic|churn_recovery> --seed=<n> [--seconds=<s>] "
               "[--trace=<file>] [--out=<file>] [--smoke]\n",
               message);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("--seed needs a whole number");
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0.0)) {
        Usage("--seconds needs a positive number");
      }
    } else if (key == "--trace") {
      o.trace_path = value;
    } else if (key == "--out") {
      o.out_path = value;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  return o;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Peak resident set size of this process so far (Linux reports KiB), in MB.
double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// FNV-1a over the names and exact bits of every deterministic result.
std::uint64_t Digest(const std::vector<Metric>& metrics) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const Metric& m : metrics) {
    mix(m.name.data(), m.name.size());
    mix(&m.value, sizeof m.value);
    mix(&m.samples, sizeof m.samples);
  }
  return h;
}

/// The deterministic results of one episode: the sim-clock end-to-end
/// metrics and the per-layer counts, under the workload's own names.
std::vector<Metric> SimResults(const EpisodeResult& r) {
  std::vector<Metric> out;
  AddPercentiles(out, r.op + "_sim_ms", r.op_sim_ms, "ms");
  out.push_back({r.miss_ratio_name, 1.0 - r.op_ok_ratio, "ratio"});
  out.push_back({"attempted", static_cast<double>(r.attempted), "count"});
  out.push_back({"failed", static_cast<double>(r.failed), "count"});
  out.push_back({"sim.events", static_cast<double>(r.windows.total_events()), "count"});
  out.push_back({"sim.queue_depth_max", static_cast<double>(r.windows.queue_depth_max),
                 "count"});
  out.insert(out.end(), r.counts.begin(), r.counts.end());
  return out;
}

void Print(const Metric& m) {
  if (m.samples > 0) {
    std::printf("%-34s %.6g %s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  } else {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

util::Json ToJsonMetrics(const std::vector<Metric>& metrics) {
  util::Json out = util::Json::MakeObject();
  for (const Metric& m : metrics) {
    out.Set(m.name, util::Json::MakeObject().Set("value", m.value).Set("unit", m.unit));
  }
  return out;
}

/// Host time of each measured window, in ns: the least over `episodes`.
/// Every episode of a seed simulates the same windows, so time beyond the
/// least is time the machine spent on something else.
std::vector<double> WindowMinNs(const std::vector<EpisodeResult>& episodes) {
  const std::size_t n = episodes.front().windows.host_ns.size();
  std::vector<double> out(n, std::numeric_limits<double>::infinity());
  for (const EpisodeResult& r : episodes) {
    for (std::size_t w = 0; w < n; ++w) {
      out[w] = std::min(out[w], static_cast<double>(r.windows.host_ns[w]));
    }
  }
  return out;
}

/// Host cost of the sim engine per event over windows [from, to).
double NsPerEvent(const std::vector<double>& host_ns,
                  const std::vector<std::uint64_t>& events, std::size_t from,
                  std::size_t to) {
  double ns = 0.0;
  std::uint64_t count = 0;
  for (std::size_t i = from; i < to; ++i) {
    ns += host_ns[i];
    count += events[i];
  }
  return count == 0 ? 0.0 : ns / static_cast<double>(count);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Parse(argc, argv);
  EpisodeRunner runner;
  if (opts.workload == "deploy_storm") {
    runner = PrepareDeployStorm(opts.seed, opts.smoke);
  } else if (opts.workload == "pilot_traffic") {
    runner = PreparePilotTraffic(opts.seed, opts.smoke);
  } else if (opts.workload == "churn_recovery") {
    runner = PrepareChurnRecovery(opts.seed, opts.smoke);
  } else {
    Usage("--workload must be deploy_storm, pilot_traffic or churn_recovery");
  }
  const bool tracing = !opts.trace_path.empty();
  bench::Report report("E2E_" + opts.workload, "e2e_" + opts.workload);
  const std::size_t min_episodes = tracing ? 2 : 3;
  constexpr std::size_t kMaxEpisodes = 64;

  std::vector<EpisodeResult> untraced;
  std::vector<EpisodeResult> traced;
  std::vector<Metric> sim_results;
  std::uint64_t digest = 0;
  double peak_rss_mb = 0.0;
  std::vector<std::string> failures;
  const std::int64_t run_start = HostNowNs();
  for (std::size_t i = 0; i < kMaxEpisodes; ++i) {
    const bool trace_this = tracing && i % 2 == 1;
    EpisodeResult r = runner(trace_this);
    for (const std::string& f : r.failures) {
      failures.push_back("episode " + std::to_string(i) + ": " + f);
    }
    const std::vector<Metric> results = SimResults(r);
    if (i == 0) {
      sim_results = results;
      digest = Digest(results);
      // Later episodes only reuse freed memory, so the first one's peak is
      // the workload's and does not depend on how many episodes fit.
      peak_rss_mb = PeakRssMb();
    } else if (Digest(results) != digest) {
      failures.push_back("episode " + std::to_string(i) + (trace_this ? " (traced)" : "") +
                         " simulated differently from episode 0");
    }
    if (trace_this && traced.empty() && !opts.trace_path.empty()) {
      if (const util::Status written = WriteChromeTrace(r.spans, opts.trace_path);
          !written.ok()) {
        failures.push_back(written.ToString());
      }
    }
    std::printf("episode %zu%s: setup %.3f host-s, windows %.3f host-s\n", i,
                trace_this ? " (traced)" : "", r.setup_s,
                static_cast<double>(r.windows.total_host_ns()) / 1e9);
    (trace_this ? traced : untraced).push_back(std::move(r));
    const double elapsed = static_cast<double>(HostNowNs() - run_start) / 1e9;
    const double per_episode = elapsed / static_cast<double>(i + 1);
    if (i + 1 >= min_episodes && elapsed + per_episode > opts.seconds) break;
  }
  const EpisodeResult& first = untraced.front();

  // --- End-to-end metrics (untraced episodes) -----------------------------
  const std::vector<double> window_ns = WindowMinNs(untraced);
  double host_ns = 0.0;
  util::Samples window_ms;
  for (const double ns : window_ns) {
    host_ns += ns;
    window_ms.Add(ns / 1e6 / kWindow.ToSecondsF());
  }
  std::vector<double> setups;
  for (const EpisodeResult& r : untraced) setups.push_back(r.setup_s);
  std::vector<Metric> e2e;
  e2e.push_back({"sim_s_per_host_s", first.windows.sim_s() / (host_ns / 1e9), "s/s"});
  AddPercentiles(e2e, "host_ms_per_sim_s", window_ms, "ms");
  e2e.push_back({"setup_s", Median(setups), "s", untraced.size()});
  e2e.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  AddPercentiles(e2e, "op_sim_ms", first.op_sim_ms, "ms");
  e2e.push_back({"op_ok_ratio", first.op_ok_ratio, "ratio"});

  // --- Per-layer metrics ----------------------------------------------------
  std::map<std::string, Metric> layer;
  for (const Metric& m : sim_results) layer[m.name] = m;
  // Host cost per engine event, and its growth from the first tenth of the
  // windows to the last (state that accumulates over the run).
  const std::vector<std::uint64_t>& events = first.windows.events;
  const std::size_t n = window_ns.size();
  const std::size_t tenth = std::max<std::size_t>(1, n / 10);
  const double early = NsPerEvent(window_ns, events, 0, tenth);
  layer["sim.host_ns_per_event"] = {"sim.host_ns_per_event",
                                    NsPerEvent(window_ns, events, 0, n), "ns"};
  layer["sim.host_ns_per_event_drift"] = {
      "sim.host_ns_per_event_drift",
      early > 0.0 ? NsPerEvent(window_ns, events, n - tenth, n) / early : 0.0, "ratio"};
  std::vector<double> untraced_ms;
  for (const EpisodeResult& r : untraced) {
    untraced_ms.push_back(static_cast<double>(r.windows.total_host_ns()) / 1e6);
  }
  std::vector<LayerRow> rows;
  double traced_ms = 0.0;
  if (!traced.empty()) {
    for (const HostCallDef& call : kHostCalls) {
      util::Samples us;
      for (const EpisodeResult& r : traced) {
        for (const double d : HostDurationsUs(r.spans, call.span)) us.Add(d);
      }
      const std::string name = call.metric;
      layer[name + "_p50"] = {name + "_p50", us.p50(), "us", us.count()};
      if (call.p99) layer[name + "_p99"] = {name + "_p99", us.p99(), "us", us.count()};
    }
    // The layer table of the traced episode with the median host time, so
    // its self times add up to the traced total it reports.
    std::vector<const EpisodeResult*> by_time;
    for (const EpisodeResult& r : traced) by_time.push_back(&r);
    std::sort(by_time.begin(), by_time.end(), [](const auto* a, const auto* b) {
      return a->windows.total_host_ns() < b->windows.total_host_ns();
    });
    const EpisodeResult& median = *by_time[by_time.size() / 2];
    traced_ms = static_cast<double>(median.windows.total_host_ns()) / 1e6;
    rows = AttributeLayers(median.spans);
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      const std::string name =
          std::string(LayerName(static_cast<Layer>(l))) + ".self_host_ms";
      layer[name] = {name, rows[l].host_self_ms, "ms"};
    }
    layer["bench.traced_host_ms"] = {"bench.traced_host_ms", traced_ms, "ms"};
    std::vector<double> traced_totals;
    for (const EpisodeResult& r : traced) {
      traced_totals.push_back(static_cast<double>(r.windows.total_host_ns()) / 1e6);
    }
    layer["bench.trace_overhead_pct"] = {
        "bench.trace_overhead_pct",
        (Median(traced_totals) / Median(untraced_ms) - 1.0) * 100.0, "%"};
  }
  std::vector<Metric> per_layer;
  for (const MetricDef& def : kPerLayer) {
    const auto it = layer.find(def.name);
    per_layer.push_back(it != layer.end() ? it->second : Metric{def.name, 0.0, def.unit});
  }

  // --- Human-readable report -------------------------------------------------
  std::printf("workload %s seed %llu: %zu untraced + %zu traced episodes of %.2f sim-s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              untraced.size(), traced.size(), first.windows.sim_s());
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  std::printf("sim_digest %s\n", digest_hex);
  std::printf("-- end-to-end (host clock: untraced episodes; sim clock: deterministic)\n");
  for (const Metric& m : e2e) Print(m);
  std::printf("-- the same sim results under the workload's names\n");
  for (std::size_t i = 0; i < 3; ++i) Print(sim_results[i]);
  std::printf("-- per-layer\n");
  for (const Metric& m : per_layer) Print(m);
  if (!rows.empty()) {
    std::printf("-- layer attribution of the median traced episode (%.1f host-ms)\n",
                traced_ms);
    std::printf("%-10s %8s %14s %8s %14s\n", "layer", "spans", "host self-ms",
                "share", "sim-ms");
    double self_sum = 0.0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      self_sum += rows[l].host_self_ms;
      std::printf("%-10s %8llu %14.3f %7.2f%% %14.1f\n",
                  std::string(LayerName(static_cast<Layer>(l))).c_str(),
                  static_cast<unsigned long long>(rows[l].spans), rows[l].host_self_ms,
                  traced_ms > 0 ? 100.0 * rows[l].host_self_ms / traced_ms : 0.0,
                  rows[l].sim_ms);
    }
    std::printf("%-10s %8s %14.3f %7.2f%%\n", "sum", "", self_sum,
                traced_ms > 0 ? 100.0 * self_sum / traced_ms : 0.0);
  }
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  if (!opts.out_path.empty()) {
    report.set_mode(opts.smoke ? "quick" : "full");
    report.set_seed(opts.seed);
    report.set_sim_ms(first.windows.sim_s() * 1e3);
    for (const Metric& m : sim_results) {
      report.AddMetric(m.name, m.value, m.unit,
                       m.name == "attempted" || m.name == "mirto.bid_useful_ratio",
                       /*gate=*/true);
    }
    for (const Metric& m : e2e) {
      if (m.name.rfind("op_", 0) == 0) continue;
      report.AddMetric(m.name, m.value, m.unit, m.name == "sim_s_per_host_s",
                       /*gate=*/false);
    }
    report.SetExtra("sim_digest", util::Json(std::string(digest_hex)));
    if (const util::Status written = report.Write(opts.out_path); !written.ok()) {
      failures.push_back(written.ToString());
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* set : {&untraced, &traced}) {
    for (const EpisodeResult& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  const util::Json line =
      util::Json::MakeObject()
          .Set("correct", failures.empty())
          .Set("attempted", attempted)
          .Set("failed", failed)
          .Set("metrics", ToJsonMetrics(tracing ? per_layer : e2e));
  std::printf("%s\n", line.Dump().c_str());
  return failures.empty() ? 0 : 1;
}
