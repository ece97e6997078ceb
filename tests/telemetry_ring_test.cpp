// Span ring: wraparound accounting, end-order iteration, capacity restarts,
// the fault trigger and its armed Chrome-trace dump, and the determinism
// acceptance check — a dump of the same seeded world is byte-identical at any
// SetParallelWorkers count.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "mirto/agent.hpp"
#include "mirto/engine.hpp"
#include "sim/chaos.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace myrtus::telemetry {
namespace {

using sim::SimTime;

class SpanRingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResetGlobal();
    SetEnabled(true);
  }
  void TearDown() override {
    SetEnabled(false);
    ResetGlobal();
    util::SetParallelWorkers(0);
  }
};

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string content;
  char buf[4096];
  std::size_t n = 0;
  while (f != nullptr && (n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    content.append(buf, n);
  }
  if (f != nullptr) std::fclose(f);
  return content;
}

TEST_F(SpanRingTest, RingWrapsAndAccountsOverwrites) {
  Tracer tracer;
  tracer.set_span_capacity(8);
  for (int i = 0; i < 20; ++i) {
    tracer.EndSpan(tracer.StartSpan(std::to_string(i), "test", {}, i), i * 10);
  }
  EXPECT_EQ(tracer.finished().size(), 8u);
  EXPECT_EQ(tracer.dropped_spans(), 12u);

  // Only the newest `capacity` spans survive, oldest first.
  std::vector<std::string> names;
  for (const SpanRecord& s : tracer.finished()) names.push_back(s.name);
  ASSERT_EQ(names.size(), 8u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i], std::to_string(12 + i));
    EXPECT_EQ(tracer.finished()[i].name, names[i]);
  }
}

TEST_F(SpanRingTest, IteratesInEndOrder) {
  Tracer tracer;
  // The root starts first but ends last: the ring holds spans as they end.
  const SpanContext root = tracer.StartSpan("root", "test", {}, 0);
  const SpanContext child = tracer.StartSpan("child", "test", root, 10);
  tracer.EndSpan(child, 20);
  tracer.EndSpan(root, 30);
  ASSERT_EQ(tracer.finished().size(), 2u);
  EXPECT_EQ(tracer.finished()[0].name, "child");
  EXPECT_EQ(tracer.finished()[1].name, "root");
}

TEST_F(SpanRingTest, SetCapacityRestartsRingButKeepsIds) {
  Tracer tracer;
  tracer.set_span_capacity(4);
  for (int i = 0; i < 6; ++i) tracer.EndSpan(tracer.StartSpan("e", "", {}, i), i);
  EXPECT_EQ(tracer.finished().size(), 4u);
  EXPECT_EQ(tracer.dropped_spans(), 2u);
  tracer.set_span_capacity(16);
  // The restart discards what the ring held; the count still adds up.
  EXPECT_EQ(tracer.finished().size(), 0u);
  EXPECT_EQ(tracer.dropped_spans(), 6u);
  EXPECT_EQ(tracer.finished().capacity(), 16u);
  tracer.EndSpan(tracer.StartSpan("after", "", {}, 100), 100);
  ASSERT_EQ(tracer.finished().size(), 1u);
  // Span ids survive the restart: spans before and after stay distinct.
  EXPECT_EQ(tracer.finished()[0].span_id, 7u);
}

TEST_F(SpanRingTest, TriggerCountsAndWritesWhenArmed) {
  Tracer tracer;
  tracer.EndSpan(tracer.StartSpan("before", "test", {}, 1), 2);
  // Disarmed: counted, no file, nothing added to the ring.
  EXPECT_EQ(tracer.Trigger("raft.leadership_lost:kb-1"), "");
  EXPECT_EQ(tracer.triggers(), 1u);
  EXPECT_EQ(tracer.last_trigger(), "raft.leadership_lost:kb-1");
  EXPECT_EQ(tracer.finished().size(), 1u);

  tracer.set_dump_prefix(::testing::TempDir() + "ring_");
  const std::string path = tracer.Trigger("chaos.inject:link");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("2_chaos.inject_link.json"), std::string::npos) << path;
  EXPECT_EQ(tracer.triggers(), 2u);
  EXPECT_EQ(tracer.last_trigger(), "chaos.inject:link");
  const std::string dump = ReadFile(path);
  EXPECT_EQ(dump, ChromeTraceJson(tracer));
  auto parsed = util::Json::Parse(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // process_name metadata + the one span; triggers are not ring records.
  EXPECT_EQ(parsed->at("traceEvents").items().size(), 2u);
  std::remove(path.c_str());

  // Clear() zeroes the trigger state and disarms.
  tracer.Clear();
  EXPECT_EQ(tracer.triggers(), 0u);
  EXPECT_EQ(tracer.last_trigger(), "");
  EXPECT_EQ(tracer.Trigger("after.clear"), "");
}

TEST_F(SpanRingTest, ChaosInjectionFiresTrigger) {
  sim::Engine engine;
  Global().tracer.set_clock([&engine] { return engine.Now().ns; });
  sim::ChaosController chaos(engine, 7);
  bool down = false;
  chaos.RegisterTarget("link-a", [&down] { down = true; },
                       [&down] { down = false; });
  chaos.ScheduleFault("link-a", SimTime::Millis(10), SimTime::Millis(5));
  engine.Run();
  EXPECT_FALSE(down);

  EXPECT_EQ(Global().tracer.triggers(), 1u);  // the restore fires nothing
  EXPECT_EQ(Global().tracer.last_trigger(), "chaos.inject:link-a");
  EXPECT_TRUE(Global().tracer.finished().empty());
}

// The acceptance check: one seeded MIRTO world, telemetry on, dumped through
// an armed trigger after a few MAPE iterations — the dump must not depend on
// the worker count.
std::string DumpAfterMapeIterations(int workers) {
  ResetGlobal();
  util::SetParallelWorkers(workers);
  SetEnabled(true);
  std::string dump;
  {
    sim::Engine engine;
    continuum::Infrastructure infra =
        continuum::BuildInfrastructure(engine, {});
    net::Topology topo = infra.topology;
    topo.AddBidirectional("mirto-agent", "gw-0", SimTime::Micros(100), 1e9);
    net::Network network(engine, std::move(topo), 3);
    sched::Cluster cluster(engine, sched::Scheduler::Default());
    for (auto& n : infra.nodes) cluster.AddNode(n.get());
    kb::Store store;
    mirto::AgentConfig config;
    config.host = "mirto-agent";
    mirto::MirtoAgent agent(network, cluster, infra, store,
                            mirto::AuthModule(util::BytesOf("k")), config);
    Global().tracer.set_clock([&engine] { return engine.Now().ns; });
    for (int i = 0; i < 5; ++i) {
      engine.RunUntil(SimTime::Millis(250 * (i + 1)));
      agent.RunMapeIteration();
    }
    Global().tracer.set_dump_prefix(::testing::TempDir() + "ring_w" +
                                    std::to_string(workers) + "_");
    const std::string path = Global().tracer.Trigger("test.dump");
    EXPECT_FALSE(path.empty());
    dump = ReadFile(path);
    std::remove(path.c_str());
  }
  SetEnabled(false);
  ResetGlobal();
  util::SetParallelWorkers(0);
  return dump;
}

TEST_F(SpanRingTest, DumpIsByteIdenticalAcrossWorkerCounts) {
  const std::string serial = DumpAfterMapeIterations(1);
  const std::string parallel4 = DumpAfterMapeIterations(4);
  const std::string parallel8 = DumpAfterMapeIterations(8);
  ASSERT_FALSE(serial.empty());
  EXPECT_NE(serial.find("\"ph\":\"X\""), std::string::npos) << "no spans";
  EXPECT_EQ(serial, parallel4);
  EXPECT_EQ(serial, parallel8);
}

TEST_F(SpanRingTest, WrappedChromeTraceDumpIsValidJson) {
  Tracer& tracer = Global().tracer;
  tracer.set_span_capacity(2);
  std::int64_t now = 0;
  // LINT: deferred-capture-ok(now) -- clock only ticks inside this body;
  // TearDown's ResetGlobal() uninstalls it before anything else can call it
  tracer.set_clock([&now] { return now; });
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span("trace.me", "test");
    now += 1000;
  }
  auto parsed = util::Json::Parse(ChromeTraceJson(tracer));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // 1 metadata + the two newest spans.
  const auto& events = parsed->at("traceEvents").items();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].at("ts").as_double(), 1.0);  // µs: the second span
  EXPECT_EQ(events[2].at("ts").as_double(), 2.0);
}

}  // namespace
}  // namespace myrtus::telemetry
