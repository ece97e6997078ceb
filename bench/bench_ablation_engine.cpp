// Experiment A10: the discrete-event engine's own cost. Every simulated
// result rides on sim::Engine, so its events/s bounds how much continuum a
// host second can simulate. Four rows, each a shape the continuum produces:
//
//   schedule_pop     hold model: a steady queue where every fired event
//                    schedules its successor (link hops, compute stages);
//   schedule_cancel  RPC timeouts: every call arms a 10 s timeout that its
//                    reply cancels a few ms later, 99% of the time; the
//                    cancelled timeouts stay queued as dead entries;
//   periodic         periodic series re-arming (MAPE loops, heartbeats),
//                    half of them cancelled mid-run;
//   same_time_burst  fan-out: each source firing schedules a burst of events
//                    at Now() (a broadcast's local deliveries) plus one
//                    event 10 s out; the burst queues behind the running
//                    event, so it is the queue's same-time append path.
//
// Events/s is hardware-dependent and ungated. The gated values are
// deterministic: events executed, entries still queued at the deadline, and
// an FNV hash of the firing order. A change to the engine must leave all
// three bit-identical (bench/baselines/BENCH_engine.json).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "sim/engine.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

using namespace myrtus;

namespace {

bool g_quick = false;

/// FNV-1a over the ids of fired events, in firing order.
struct OrderHash {
  std::uint64_t h = 1469598103934665603ull;
  void Mix(std::uint64_t id) {
    for (int b = 0; b < 8; ++b) {
      h ^= (id >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

struct RowResult {
  std::uint64_t executed = 0;
  std::size_t pending = 0;
  std::uint64_t order_hash = 0;
  double host_s = 0.0;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

RowResult Finish(const sim::Engine& engine, const OrderHash& order,
                 std::chrono::steady_clock::time_point t0) {
  return RowResult{engine.executed_events(), engine.pending_events(), order.h,
                   SecondsSince(t0)};
}

/// 4096 events in flight; each fired event schedules one successor
/// U[0, 2) ms later.
RowResult RunSchedulePop(sim::SimTime horizon) {
  constexpr int kInFlight = 4096;
  sim::Engine engine;
  util::Rng rng(1, "bench.engine.hold");
  OrderHash order;
  std::uint64_t next_id = 0;
  std::function<void()> arm = [&] {
    const std::uint64_t id = next_id++;
    engine.ScheduleAfter(
        sim::SimTime::Nanos(static_cast<std::int64_t>(rng.NextBounded(2'000'000))),
        [&, id] {
          order.Mix(id);
          arm();
        });
  };
  for (int i = 0; i < kInFlight; ++i) arm();
  const auto t0 = std::chrono::steady_clock::now();
  engine.RunUntil(horizon);
  return Finish(engine, order, t0);
}

/// Closed-loop RPC clients: each call arms a 10 s timeout and gets its
/// reply U[0.5, 5) ms later, which issues the next call. Every 100th reply
/// is ignored, so its timeout survives and fires; the other 99% cancel it.
RowResult RunScheduleCancel(sim::SimTime horizon, int clients) {
  sim::Engine engine;
  util::Rng rng(1, "bench.engine.rpc");
  OrderHash order;
  std::uint64_t next_call = 0;
  std::function<void()> call = [&] {
    const std::uint64_t id = next_call++;
    const sim::EventHandle timeout = engine.ScheduleAfter(
        sim::SimTime::Seconds(10), [&, id] { order.Mix(id | (1ull << 63)); });
    engine.ScheduleAfter(
        sim::SimTime::Nanos(
            500'000 + static_cast<std::int64_t>(rng.NextBounded(4'500'000))),
        [&, id, timeout] {
          order.Mix(id);
          if (id % 100 != 99) engine.Cancel(timeout);
          call();
        });
  };
  for (int c = 0; c < clients; ++c) call();
  const auto t0 = std::chrono::steady_clock::now();
  engine.RunUntil(horizon);
  return Finish(engine, order, t0);
}

/// 1024 periodic series with periods of 1..10 ms; at half the horizon every
/// odd series is cancelled (its queued tick still fires, as a no-op).
RowResult RunPeriodic(sim::SimTime horizon) {
  constexpr std::uint64_t kSeries = 1024;
  sim::Engine engine;
  OrderHash order;
  std::vector<sim::EventHandle> series;
  series.reserve(kSeries);
  for (std::uint64_t s = 0; s < kSeries; ++s) {
    series.push_back(engine.SchedulePeriodic(
        sim::SimTime::Millis(1 + static_cast<std::int64_t>(s % 10)),
        [&order, s] { order.Mix(s); }));
  }
  engine.ScheduleAt(sim::SimTime::Nanos(horizon.ns / 2), [&] {
    for (std::uint64_t s = 1; s < kSeries; s += 2) engine.Cancel(series[s]);
  });
  const auto t0 = std::chrono::steady_clock::now();
  engine.RunUntil(horizon);
  return Finish(engine, order, t0);
}

/// 64 sources, each firing U[0, 1) ms after its last firing; a firing
/// schedules 32 events at Now() and one 10 s later.
RowResult RunSameTimeBurst(sim::SimTime horizon) {
  constexpr std::uint64_t kSources = 64;
  constexpr std::uint64_t kBurst = 32;
  sim::Engine engine;
  util::Rng rng(1, "bench.engine.burst");
  OrderHash order;
  std::uint64_t next_id = 0;
  std::function<void()> fire = [&] {
    engine.ScheduleAfter(
        sim::SimTime::Nanos(static_cast<std::int64_t>(rng.NextBounded(1'000'000))),
        [&] {
          const std::uint64_t id = next_id++;
          order.Mix(id);
          for (std::uint64_t b = 0; b < kBurst; ++b) {
            engine.ScheduleAt(engine.Now(),
                              [&, id, b] { order.Mix((id << 6) | b); });
          }
          engine.ScheduleAfter(sim::SimTime::Seconds(10),
                               [&, id] { order.Mix(id | (1ull << 63)); });
          fire();
        });
  };
  for (std::uint64_t i = 0; i < kSources; ++i) fire();
  const auto t0 = std::chrono::steady_clock::now();
  engine.RunUntil(horizon);
  return Finish(engine, order, t0);
}

struct Row {
  const char* name;
  RowResult result;
};

void RunAblation(const std::string& out_path) {
  bench::Report report("A10_engine_ablation", "engine");
  report.set_mode(g_quick ? "quick" : "full");
  report.set_seed(1);
  std::printf("=== A10: discrete-event engine cost (%s mode) ===\n",
              g_quick ? "quick" : "full");
  const Row rows[] = {
      {"schedule_pop",
       RunSchedulePop(sim::SimTime::Millis(g_quick ? 100 : 1000))},
      {"schedule_cancel",
       RunScheduleCancel(sim::SimTime::Seconds(g_quick ? 12 : 30),
                         g_quick ? 16 : 64)},
      {"periodic", RunPeriodic(sim::SimTime::Seconds(g_quick ? 1 : 10))},
      {"same_time_burst",
       RunSameTimeBurst(sim::SimTime::Millis(g_quick ? 100 : 1000))},
  };
  std::printf("%-16s | %10s | %9s | %-18s | %s\n", "row", "executed",
              "pending", "order hash", "events/s");
  util::Json table = util::Json::MakeArray();
  for (const Row& row : rows) {
    const RowResult& r = row.result;
    const double events_per_s =
        r.host_s > 0 ? static_cast<double>(r.executed) / r.host_s : 0.0;
    std::printf("%-16s | %10llu | %9zu | 0x%016llx | %.3g\n", row.name,
                static_cast<unsigned long long>(r.executed), r.pending,
                static_cast<unsigned long long>(r.order_hash), events_per_s);
    const std::string name(row.name);
    report.AddMetric(name + "_executed", static_cast<double>(r.executed),
                     "count");
    report.AddMetric(name + "_pending", static_cast<double>(r.pending),
                     "count");
    // The top 53 bits: exact in a double, and benchdiff compares a "hash"
    // metric for equality.
    report.AddMetric(name + "_order_hash",
                     static_cast<double>(r.order_hash >> 11), "hash");
    report.AddMetric(name + "_events_per_s", events_per_s, "events/s",
                     /*higher_is_better=*/true, /*gate=*/false);
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(r.order_hash));
    table.Append(util::Json::MakeObject()
                     .Set("row", name)
                     .Set("order_hash", std::string(hex))
                     .Set("host_s", r.host_s));
  }
  report.SetExtra("rows", std::move(table));
  util::MustOk(report.Write(out_path));
}

// --- Microbenchmarks ---------------------------------------------------------

void BM_SchedulePop(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    const RowResult r = RunSchedulePop(sim::SimTime::Millis(20));
    events += r.executed;
    benchmark::DoNotOptimize(r.order_hash);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SchedulePop)->Unit(benchmark::kMillisecond);

void BM_ScheduleCancel(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    const RowResult r = RunScheduleCancel(sim::SimTime::Seconds(12), 16);
    events += r.executed;
    benchmark::DoNotOptimize(r.order_hash);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ScheduleCancel)->Unit(benchmark::kMillisecond);

void BM_SameTimeBurst(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    const RowResult r = RunSameTimeBurst(sim::SimTime::Millis(20));
    events += r.executed;
    benchmark::DoNotOptimize(r.order_hash);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SameTimeBurst)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  g_quick = bench::StripFlag(argc, argv, "--quick");
  const std::string out_path =
      bench::StripValueFlag(argc, argv, "--out=", "BENCH_engine.json");
  RunAblation(out_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
