// Telemetry layer: tracer causality, histogram quantiles, exporters, the
// scheduler's myrtus_sim_* series, and end-to-end span trees across the
// simulated continuum (pubsub hop, full contract-net negotiation).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "continuum/infrastructure.hpp"
#include "mirto/engine.hpp"
#include "net/pubsub.hpp"
#include "net/transport.hpp"
#include "sched/controller.hpp"
#include "sim/engine.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "tosca/csar.hpp"
#include "util/json.hpp"

namespace myrtus::telemetry {
namespace {

using sim::SimTime;

// Every test runs against a clean global sink with telemetry on, and leaves
// it off (the library default) so unrelated suites keep the free path.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResetGlobal();
    SetEnabled(true);
  }
  void TearDown() override {
    SetEnabled(false);
    ResetGlobal();
  }
};

const SpanRecord* FindSpan(const SpanRing& spans,
                           const std::string& name) {
  for (const SpanRecord& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST_F(TelemetryTest, SpansNestThroughImplicitContext) {
  Tracer& tracer = Global().tracer;
  std::int64_t now = 0;
  // LINT: deferred-capture-ok(now) -- clock only ticks inside this body;
  // TearDown's ResetGlobal() uninstalls it before anything else can call it
  tracer.set_clock([&now] { return now; });

  const SpanContext root = tracer.StartSpan("root", "test");
  tracer.PushContext(root);
  now = 100;
  const SpanContext child = tracer.StartSpan("child", "test");
  tracer.PushContext(child);
  now = 250;
  const SpanContext grandchild = tracer.StartSpan("leaf", "test");
  tracer.EndSpan(grandchild);
  tracer.PopContext();
  tracer.EndSpan(child);
  tracer.PopContext();
  now = 400;
  tracer.EndSpan(root);

  const auto& spans = tracer.finished();
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord* r = FindSpan(spans, "root");
  const SpanRecord* c = FindSpan(spans, "child");
  const SpanRecord* g = FindSpan(spans, "leaf");
  ASSERT_NE(r, nullptr);
  ASSERT_NE(c, nullptr);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(r->parent_id, 0u);
  EXPECT_EQ(c->parent_id, r->span_id);
  EXPECT_EQ(g->parent_id, c->span_id);
  // One trace; sim-time stamps.
  EXPECT_EQ(c->trace_id, r->trace_id);
  EXPECT_EQ(g->trace_id, r->trace_id);
  EXPECT_EQ(r->start_ns, 0);
  EXPECT_EQ(r->end_ns, 400);
  EXPECT_EQ(g->start_ns, 250);
}

TEST_F(TelemetryTest, SpanContextJsonHeader) {
  const SpanContext ctx{42, 7};
  EXPECT_TRUE(ctx.valid());
  EXPECT_FALSE(SpanContext{}.valid());
  EXPECT_EQ(ctx.ToJson().Dump(), R"({"s":7,"t":42})");
}

// bench_e2e's deploy_storm hashes `finished().size() + dropped_spans()` and
// `dropped_spans()` into its sim_digest: the retained count is the capacity,
// the dropped count everything the ring overwrote.
TEST_F(TelemetryTest, TracerCapsFinishedSpans) {
  Tracer& tracer = Global().tracer;
  EXPECT_EQ(tracer.finished().capacity(), std::size_t{1} << 18);
  tracer.set_span_capacity(4);
  for (int i = 0; i < 10; ++i) {
    tracer.EndSpan(tracer.StartSpan(std::to_string(i), "test"));
  }
  EXPECT_EQ(tracer.finished().size(), 4u);
  EXPECT_EQ(tracer.dropped_spans(), 6u);
  std::vector<std::string> kept;
  for (const SpanRecord& s : tracer.finished()) kept.push_back(s.name);
  EXPECT_EQ(kept, (std::vector<std::string>{"6", "7", "8", "9"}));

  tracer.Clear();
  EXPECT_EQ(tracer.finished().size(), 0u);
  EXPECT_EQ(tracer.dropped_spans(), 0u);
  EXPECT_EQ(tracer.finished().capacity(), std::size_t{1} << 18);

  tracer.set_span_capacity(4);
  for (int i = 0; i < 10; ++i) {
    tracer.EndSpan(tracer.StartSpan("s", "test"));
  }
  ResetGlobal();
  EXPECT_EQ(tracer.finished().size(), 0u);
  EXPECT_EQ(tracer.dropped_spans(), 0u);
  EXPECT_EQ(tracer.finished().capacity(), std::size_t{1} << 18);
}

TEST_F(TelemetryTest, HistogramQuantilesTrackExactValues) {
  // 1..1000 uniform into 10-wide buckets: the interpolation error is bounded
  // by one bucket width.
  Histogram h(Histogram::LinearBounds(0.0, 10.0, 100));
  for (int v = 1; v <= 1000; ++v) h.Observe(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), 1000.0 * 1001.0 / 2.0);
  EXPECT_NEAR(h.p50(), 500.0, 10.0);
  EXPECT_NEAR(h.p95(), 950.0, 10.0);
  EXPECT_NEAR(h.p99(), 990.0, 10.0);
  // Quantiles never escape the observed range.
  EXPECT_GE(h.Quantile(0.0), 1.0);
  EXPECT_LE(h.Quantile(1.0), 1000.0);
}

TEST_F(TelemetryTest, HistogramHandlesOverflowBucket) {
  Histogram h({1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(100.0);  // +Inf bucket
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_LE(h.p99(), 100.0);
  EXPECT_DOUBLE_EQ(h.observed_max(), 100.0);
}

TEST_F(TelemetryTest, ExponentialBoundsAreGeometric) {
  const auto bounds = Histogram::ExponentialBounds(0.001, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.001);
  EXPECT_DOUBLE_EQ(bounds[3], 0.008);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

TEST_F(TelemetryTest, RegistryKeysSeriesByLabelSetOrderIndependently) {
  MetricsRegistry reg;
  reg.Add("requests_total", 1.0, {{"method", "bid"}, {"layer", "edge"}});
  reg.Add("requests_total", 2.0, {{"layer", "edge"}, {"method", "bid"}});
  reg.Add("requests_total", 5.0, {{"layer", "fog"}, {"method", "bid"}});
  EXPECT_DOUBLE_EQ(
      reg.Value("requests_total", {{"method", "bid"}, {"layer", "edge"}}), 3.0);
  EXPECT_DOUBLE_EQ(
      reg.Value("requests_total", {{"method", "bid"}, {"layer", "fog"}}), 5.0);
  reg.Set("depth", 9.0);
  reg.Set("depth", 4.0);
  EXPECT_DOUBLE_EQ(reg.Value("depth"), 4.0);
}

TEST_F(TelemetryTest, PrometheusTextGolden) {
  MetricsRegistry reg;
  reg.Add("myrtus_demo_total", 3.0, {{"layer", "edge"}});
  reg.Set("myrtus_demo_depth", 2.0);
  reg.Observe("myrtus_demo_latency_ms", 0.5, {}, {1.0, 10.0});
  reg.Observe("myrtus_demo_latency_ms", 5.0, {}, {1.0, 10.0});
  reg.Observe("myrtus_demo_latency_ms", 50.0, {}, {1.0, 10.0});

  const std::string expected =
      "# TYPE myrtus_demo_depth gauge\n"
      "myrtus_demo_depth 2\n"
      "# TYPE myrtus_demo_latency_ms histogram\n"
      "myrtus_demo_latency_ms_bucket{le=\"1\"} 1\n"
      "myrtus_demo_latency_ms_bucket{le=\"10\"} 2\n"
      "myrtus_demo_latency_ms_bucket{le=\"+Inf\"} 3\n"
      "myrtus_demo_latency_ms_sum 55.5\n"
      "myrtus_demo_latency_ms_count 3\n"
      "# TYPE myrtus_demo_total counter\n"
      "myrtus_demo_total{layer=\"edge\"} 3\n";
  EXPECT_EQ(PrometheusText(reg), expected);
}

TEST_F(TelemetryTest, ChromeTraceJsonRoundtripsThroughParser) {
  Tracer& tracer = Global().tracer;
  std::int64_t now = 2'000;  // ns
  // LINT: deferred-capture-ok(now) -- clock only ticks inside this body;
  // TearDown's ResetGlobal() uninstalls it before anything else can call it
  tracer.set_clock([&now] { return now; });
  const SpanContext root = tracer.StartSpan("negotiate", "mirto");
  tracer.SetAttribute(root, "pod", "pose-0");
  now = 5'000;
  tracer.EndSpan(root);

  auto parsed = util::Json::Parse(ChromeTraceJson(tracer));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const auto& events = parsed->at("traceEvents").items();
  // Metadata (process_name) + one complete event.
  ASSERT_GE(events.size(), 2u);
  const util::Json* complete = nullptr;
  for (const util::Json& e : events) {
    if (e.at("ph").as_string() == "X") complete = &e;
  }
  ASSERT_NE(complete, nullptr);
  EXPECT_EQ(complete->at("name").as_string(), "negotiate");
  EXPECT_EQ(complete->at("cat").as_string(), "mirto");
  EXPECT_DOUBLE_EQ(complete->at("ts").as_double(), 2.0);   // µs
  EXPECT_DOUBLE_EQ(complete->at("dur").as_double(), 3.0);  // µs
  EXPECT_EQ(complete->at("args").at("pod").as_string(), "pose-0");
}

/// The cluster's own accounting after one scenario: pods bound, one pod
/// too large for any node (left pending), a loaded edge node killed, then a
/// reconcile that evicts and rebinds its pods.
struct ClusterCounts {
  double bound = 0.0;
  double evicted = 0.0;
  double running = 0.0;
  double pending = 0.0;
};

ClusterCounts RunClusterNodeFailure() {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  ClusterCounts counts;
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  // LINT: deferred-capture-ok(counts) -- declared before the cluster, so the
  // listener dies first
  cluster.AddPodEventListener({[&counts](const std::string&) { ++counts.bound; },
                               nullptr});

  sched::Deployment dep;
  dep.name = "svc";
  dep.pod_template.cpu_request = 0.25;
  dep.pod_template.layer_affinity = "edge";
  dep.replicas = 6;
  cluster.ApplyDeployment(dep);
  sched::PodSpec huge;
  huge.name = "huge";
  huge.cpu_request = 1e6;
  EXPECT_FALSE(cluster.BindPod(huge).ok());
  cluster.Reconcile();

  const sched::PodView victim = cluster.FindPod("svc-0");
  if (!victim || victim.node_id().empty()) {
    ADD_FAILURE() << "svc-0 was not bound";
    return counts;
  }
  infra.FindNode(victim.node_id())->SetUp(false);
  cluster.Reconcile();

  counts.evicted = static_cast<double>(cluster.evictions());
  counts.running = static_cast<double>(cluster.RunningPods());
  counts.pending = static_cast<double>(cluster.PendingPods());
  return counts;
}

TEST_F(TelemetryTest, ClusterCountersPublishAsSimSeries) {
  const ClusterCounts counts = RunClusterNodeFailure();
  EXPECT_GT(counts.evicted, 0.0);
  EXPECT_GT(counts.pending, 0.0);
  const MetricsRegistry& reg = Global().metrics;
  EXPECT_DOUBLE_EQ(reg.Value("myrtus_sim_pods_bound"), counts.bound);
  EXPECT_DOUBLE_EQ(reg.Value("myrtus_sim_pods_evicted_node_failure"),
                   counts.evicted);
  EXPECT_DOUBLE_EQ(reg.Value("myrtus_sim_running_pods"), counts.running);
  EXPECT_DOUBLE_EQ(reg.Value("myrtus_sim_pending_pods"), counts.pending);

  ResetGlobal();
  SetEnabled(false);
  const ClusterCounts quiet = RunClusterNodeFailure();
  EXPECT_DOUBLE_EQ(quiet.bound, counts.bound);
  EXPECT_TRUE(Global().metrics.families().empty());
}

TEST_F(TelemetryTest, DisabledPathRecordsNothing) {
  SetEnabled(false);
  {
    ScopedSpan span("ghost", "test");
    span.SetAttribute("k", "v");
  }
  EXPECT_TRUE(Global().tracer.finished().empty());
  EXPECT_TRUE(Global().metrics.families().empty());
  SetEnabled(true);
}

// --- End-to-end: causality across a pubsub network hop ---------------------

TEST_F(TelemetryTest, PubSubDeliveryLinksBackToPublisherSpan) {
  sim::Engine engine;
  net::Topology topo;
  topo.AddBidirectional("sensor", "gw", SimTime::Micros(200), 1e9);
  topo.AddBidirectional("gw", "app", SimTime::Micros(200), 1e9);
  net::Network network(engine, std::move(topo), 1);
  net::Broker broker(network, "gw");

  int received = 0;
  broker.Subscribe("app", "patients/+/pose", [&](const std::string&,
                                                 const util::Json&) {
    ++received;
  });

  Tracer& tracer = Global().tracer;
  const SpanContext root = tracer.StartSpan("sensor.sample", "app");
  {
    ContextGuard guard(tracer, root);
    broker.Publish("sensor", "patients/7/pose",
                   util::Json::MakeObject().Set("x", 1.0));
  }
  engine.RunUntil(SimTime::Seconds(1));
  tracer.EndSpan(root);
  ASSERT_EQ(received, 1);

  const auto& spans = tracer.finished();
  const SpanRecord* deliver_serve = FindSpan(spans, "rpc.serve pubsub.deliver");
  const SpanRecord* deliver_call = FindSpan(spans, "rpc.call pubsub.deliver");
  const SpanRecord* publish_serve = FindSpan(spans, "rpc.serve pubsub.publish");
  const SpanRecord* publish_call = FindSpan(spans, "rpc.call pubsub.publish");
  const SpanRecord* sample = FindSpan(spans, "sensor.sample");
  ASSERT_NE(deliver_serve, nullptr);
  ASSERT_NE(deliver_call, nullptr);
  ASSERT_NE(publish_serve, nullptr);
  ASSERT_NE(publish_call, nullptr);
  ASSERT_NE(sample, nullptr);

  // The causal chain survives two network hops: the subscriber-side serve
  // span walks parent-by-parent back to the publisher's root span.
  EXPECT_EQ(deliver_serve->parent_id, deliver_call->span_id);
  EXPECT_EQ(deliver_call->parent_id, publish_serve->span_id);
  EXPECT_EQ(publish_serve->parent_id, publish_call->span_id);
  EXPECT_EQ(publish_call->parent_id, sample->span_id);
  EXPECT_EQ(deliver_serve->trace_id, sample->trace_id);
  // The broker annotated its serve span with the fanout.
  bool saw_topic = false;
  for (const auto& [k, v] : publish_serve->attrs) {
    if (k == "topic") {
      saw_topic = true;
      EXPECT_EQ(v, "patients/7/pose");
    }
  }
  EXPECT_TRUE(saw_topic);
  // Counters moved too.
  EXPECT_DOUBLE_EQ(Global().metrics.Value("myrtus_pubsub_publishes_total"), 1.0);
  EXPECT_DOUBLE_EQ(Global().metrics.Value("myrtus_pubsub_deliveries_total"), 1.0);
}

// --- End-to-end: one placement = one connected span tree --------------------

tosca::CsarPackage TwoActorPackage() {
  tosca::ServiceTemplate tpl;
  tpl.tosca_version = "tosca_2_0";
  for (const char* name : {"pose", "score"}) {
    tosca::NodeTemplate nt;
    nt.name = name;
    nt.type = std::string(tosca::kTypeWorkload);
    nt.properties = util::Json::MakeObject().Set("cpu", 0.5).Set("memory_mb", 128);
    tpl.node_templates[name] = nt;
  }
  return tosca::CsarPackage::Create(tpl);
}

TEST_F(TelemetryTest, NegotiationProducesOneConnectedSpanTreePerPod) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  net::Topology topo = infra.topology;
  net::Network network(engine, std::move(topo), 5);
  mirto::MirtoEngine mirto(network, infra);
  mirto.Start();
  engine.RunUntil(SimTime::Millis(500));

  bool done = false;
  mirto.DeployNegotiated(TwoActorPackage(), [&](util::Status s) {
    EXPECT_TRUE(s.ok()) << s;
    done = true;
  });
  engine.RunUntil(engine.Now() + SimTime::Seconds(5));
  mirto.Stop();
  ASSERT_TRUE(done);

  const auto& spans = Global().tracer.finished();
  std::map<std::uint64_t, const SpanRecord*> by_id;
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& s : spans) {
    by_id[s.span_id] = &s;
    if (s.name == "negotiate.pod") roots.push_back(&s);
  }
  ASSERT_EQ(roots.size(), 2u);  // one negotiation root per pod

  for (const SpanRecord* root : roots) {
    EXPECT_EQ(root->parent_id, 0u);
    // Gather this trace and walk every span's parent chain to the root:
    // the acceptance criterion — announce→bid→award→schedule→start is one
    // connected tree.
    std::set<std::string> names;
    for (const SpanRecord& s : spans) {
      if (s.trace_id != root->trace_id) continue;
      names.insert(s.name);
      const SpanRecord* cursor = &s;
      int hops = 0;
      while (cursor->parent_id != 0) {
        ASSERT_LT(++hops, 32) << "parent cycle at " << s.name;
        const auto it = by_id.find(cursor->parent_id);
        ASSERT_NE(it, by_id.end())
            << s.name << " has a dangling parent " << cursor->parent_id;
        cursor = it->second;
      }
      EXPECT_EQ(cursor, root) << s.name << " is rooted outside its negotiation";
    }
    for (const char* expected :
         {"rpc.call mirto.bid", "rpc.serve mirto.bid", "mirto.compute_bid",
          "sched.schedule", "rpc.call mirto.award", "rpc.serve mirto.award",
          "sched.bind", "pod.start"}) {
      EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
    }
  }

  // The same tree is visible in the Chrome export: every non-root event
  // carries its parent id and the exporter groups a trace into one lane.
  auto parsed = util::Json::Parse(ChromeTraceJson(Global().tracer));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  std::map<std::uint64_t, std::uint64_t> exported_parent;  // span -> parent
  for (const util::Json& e : parsed->at("traceEvents").items()) {
    if (e.at("ph").as_string() != "X") continue;
    exported_parent[static_cast<std::uint64_t>(
        e.at("args").at("span_id").as_int())] =
        static_cast<std::uint64_t>(e.at("args").at("parent_id").as_int());
  }
  for (const SpanRecord& s : spans) {
    ASSERT_TRUE(exported_parent.count(s.span_id)) << s.name;
    EXPECT_EQ(exported_parent[s.span_id], s.parent_id) << s.name;
  }

  // Negotiation latency histogram got one observation per pod.
  const Histogram* latency =
      Global().metrics.FindHistogram("myrtus_mirto_negotiation_latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2u);
  EXPECT_GT(latency->p50(), 0.0);
  EXPECT_DOUBLE_EQ(
      Global().metrics.Value("myrtus_mirto_negotiations_total",
                             {{"result", "placed"}}),
      2.0);
}

}  // namespace
}  // namespace myrtus::telemetry
