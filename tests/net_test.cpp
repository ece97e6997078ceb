// Topology routing, transport timing/loss/queueing, RPC fabric, and the
// MQTT-style broker.
#include <gtest/gtest.h>

#include <memory>

#include "net/pubsub.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "telemetry/telemetry.hpp"

namespace myrtus::net {
namespace {

using sim::SimTime;

Topology LineTopology() {
  // edge -- fog -- cloud, 1ms and 10ms links, 1 Gb/s.
  Topology t;
  t.AddBidirectional("edge", "fog", SimTime::Millis(1), 1e9);
  t.AddBidirectional("fog", "cloud", SimTime::Millis(10), 1e9);
  return t;
}

TEST(Topology, RouteAlongLine) {
  Topology t = LineTopology();
  auto route = t.FindRoute("edge", "cloud");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->link_indices.size(), 2u);
  EXPECT_EQ(route->propagation, SimTime::Millis(11));
}

TEST(Topology, LoopbackIsEmptyRoute) {
  Topology t = LineTopology();
  auto route = t.FindRoute("fog", "fog");
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route->link_indices.empty());
  EXPECT_EQ(route->propagation, SimTime::Zero());
}

TEST(Topology, UnknownHostIsNotFound) {
  Topology t = LineTopology();
  EXPECT_FALSE(t.FindRoute("edge", "mars").ok());
}

TEST(Topology, PicksLowerLatencyPath) {
  Topology t;
  t.AddBidirectional("a", "b", SimTime::Millis(10), 1e9);
  t.AddBidirectional("a", "c", SimTime::Millis(1), 1e9);
  t.AddBidirectional("c", "b", SimTime::Millis(2), 1e9);
  auto route = t.FindRoute("a", "b");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->link_indices.size(), 2u);  // via c: 3ms < 10ms direct
  EXPECT_EQ(route->propagation, SimTime::Millis(3));
}

TEST(Topology, LinkFailureReroutes) {
  Topology t;
  t.AddBidirectional("a", "b", SimTime::Millis(10), 1e9);
  t.AddBidirectional("a", "c", SimTime::Millis(1), 1e9);
  t.AddBidirectional("c", "b", SimTime::Millis(2), 1e9);
  // Kill the a->c link; route must fall back to the direct 10ms path.
  for (std::size_t i = 0; i < t.link_count(); ++i) {
    if (t.link(i).from == "a" && t.link(i).to == "c") t.SetLinkUp(i, false);
  }
  auto route = t.FindRoute("a", "b");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->propagation, SimTime::Millis(10));
}

TEST(Topology, DisconnectedIsNotFound) {
  Topology t;
  t.AddHost("island");
  t.AddBidirectional("a", "b", SimTime::Millis(1), 1e9);
  EXPECT_FALSE(t.FindRoute("a", "island").ok());
}

TEST(Topology, MinBandwidthAlongRoute) {
  Topology t;
  t.AddBidirectional("a", "b", SimTime::Millis(1), 1e9);
  t.AddBidirectional("b", "c", SimTime::Millis(1), 1e6);
  auto route = t.FindRoute("a", "c");
  ASSERT_TRUE(route.ok());
  EXPECT_DOUBLE_EQ(route->min_bandwidth_bps, 1e6);
}

TEST(Network, DeliversWithExpectedLatency) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  SimTime arrival{-1};
  net.Attach("cloud", [&](const Message& m) {
    EXPECT_EQ(m.kind, "telemetry");
    arrival = engine.Now();
  });
  Message msg;
  msg.from = "edge";
  msg.to = "cloud";
  msg.kind = "telemetry";
  msg.protocol = Protocol::kCoap;
  msg.body_bytes = 1000;
  ASSERT_TRUE(net.Send(std::move(msg)).ok());
  engine.Run();
  // 11ms propagation + ~2 * (1012B * 8 / 1e9)s serialization ≈ 11.016ms.
  EXPECT_GT(arrival, SimTime::Millis(11));
  EXPECT_LT(arrival, SimTime::Millis(12));
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(Network, LoopbackDelivery) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  int got = 0;
  net.Attach("edge", [&](const Message&) { ++got; });
  Message msg;
  msg.from = "edge";
  msg.to = "edge";
  msg.kind = "self";
  ASSERT_TRUE(net.Send(std::move(msg)).ok());
  engine.Run();
  EXPECT_EQ(got, 1);
}

TEST(Network, NoRouteFailsFast) {
  sim::Engine engine;
  Topology t;
  t.AddHost("a");
  t.AddHost("b");
  Network net(engine, std::move(t), 1);
  Message msg;
  msg.from = "a";
  msg.to = "b";
  EXPECT_FALSE(net.Send(std::move(msg)).ok());
}

TEST(Network, LossyLinkDropsApproximatelyAtRate) {
  sim::Engine engine;
  Topology t;
  t.AddLink(Link{"a", "b", SimTime::Micros(10), 1e9, 0.3, {}});
  Network net(engine, std::move(t), 42);
  int delivered = 0;
  net.Attach("b", [&](const Message&) { ++delivered; });
  for (int i = 0; i < 2000; ++i) {
    Message m{.from = "a",
              .to = "b",
              .kind = "probe",
              .payload = {},
              .body_bytes = 10};
    ASSERT_TRUE(net.Send(std::move(m)).ok());
  }
  engine.Run();
  EXPECT_NEAR(static_cast<double>(delivered) / 2000.0, 0.7, 0.04);
  EXPECT_EQ(net.messages_dropped() + net.messages_delivered(), 2000u);
}

TEST(Network, QueueingDelaysBackToBackMessages) {
  sim::Engine engine;
  Topology t;
  // Slow 1 Mb/s link: 1250-byte frame takes 10ms to serialize.
  t.AddLink(Link{"a", "b", SimTime::Zero(), 1e6, 0.0, {}});
  Network net(engine, std::move(t), 7);
  std::vector<SimTime> arrivals;
  net.Attach("b", [&](const Message&) { arrivals.push_back(engine.Now()); });
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.from = "a";
    m.to = "b";
    m.kind = "bulk";
    m.protocol = Protocol::kMqtt;
    m.body_bytes = 1242;  // + 8B MQTT = 1250B = 10ms at 1 Mb/s
    ASSERT_TRUE(net.Send(std::move(m)).ok());
  }
  engine.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], SimTime::Millis(10));
  EXPECT_EQ(arrivals[1], SimTime::Millis(20));  // queued behind the first
  EXPECT_EQ(arrivals[2], SimTime::Millis(30));
}

TEST(Network, RpcRoundtrip) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  net.RegisterRpc("cloud", "echo",
                  [](const HostId& caller, const util::Json& req)
                      -> util::StatusOr<util::Json> {
                    return util::Json::MakeObject()
                        .Set("caller", caller)
                        .Set("echo", req);
                  });
  bool replied = false;
  net.Call("edge", "cloud", "echo", util::Json(42),
           [&](util::StatusOr<util::Json> reply) {
             ASSERT_TRUE(reply.ok());
             EXPECT_EQ(reply->at("caller").as_string(), "edge");
             EXPECT_EQ(reply->at("echo").as_int(), 42);
             replied = true;
           });
  engine.Run();
  EXPECT_TRUE(replied);
}

TEST(Network, RpcErrorPropagates) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  net.RegisterRpc("fog", "fail",
                  [](const HostId&, const util::Json&)
                      -> util::StatusOr<util::Json> {
                    return util::Status::ResourceExhausted("no capacity");
                  });
  bool replied = false;
  net.Call("edge", "fog", "fail", {}, [&](util::StatusOr<util::Json> reply) {
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), util::StatusCode::kResourceExhausted);
    EXPECT_EQ(reply.status().message(), "no capacity");
    replied = true;
  });
  engine.Run();
  EXPECT_TRUE(replied);
}

TEST(Network, RpcUnknownMethodIsUnimplemented) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  bool replied = false;
  net.Call("edge", "fog", "nope", {}, [&](util::StatusOr<util::Json> reply) {
    EXPECT_EQ(reply.status().code(), util::StatusCode::kUnimplemented);
    replied = true;
  });
  engine.Run();
  EXPECT_TRUE(replied);
}

TEST(Network, RpcTimesOutOnLostReply) {
  sim::Engine engine;
  Topology t;
  // Fully lossy link: requests never arrive.
  t.AddLink(Link{"a", "b", SimTime::Millis(1), 1e9, 1.0, {}});
  t.AddLink(Link{"b", "a", SimTime::Millis(1), 1e9, 1.0, {}});
  Network net(engine, std::move(t), 3);
  net.RegisterRpc("b", "m", [](const HostId&, const util::Json&)
                                -> util::StatusOr<util::Json> {
    return util::Json(1);
  });
  bool timed_out = false;
  net.Call("a", "b", "m", {}, [&](util::StatusOr<util::Json> reply) {
    EXPECT_EQ(reply.status().code(), util::StatusCode::kDeadlineExceeded);
    timed_out = true;
  }, SimTime::Millis(100));
  engine.Run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(engine.Now(), SimTime::Millis(100));
}

TEST(TopicMatch, ExactAndWildcards) {
  EXPECT_TRUE(TopicMatches("a/b", "a/b"));
  EXPECT_FALSE(TopicMatches("a/b", "a/c"));
  EXPECT_TRUE(TopicMatches("a/+", "a/b"));
  EXPECT_FALSE(TopicMatches("a/+", "a/b/c"));
  EXPECT_TRUE(TopicMatches("a/#", "a/b/c"));
  EXPECT_TRUE(TopicMatches("#", "anything/at/all"));
  EXPECT_FALSE(TopicMatches("a/b", "a"));
  EXPECT_FALSE(TopicMatches("a", "a/b"));
  EXPECT_TRUE(TopicMatches("+/b/#", "x/b/y/z"));
}

// Regression: `#` used to be honoured anywhere in the filter, so malformed
// filters like "a/#/b" silently matched everything under "a". Per MQTT, `#`
// is only valid as the final level; elsewhere it must match nothing.
TEST(TopicMatch, TableDrivenWildcardSemantics) {
  struct Case {
    const char* filter;
    const char* topic;
    bool match;
  };
  const Case kCases[] = {
      // Multi-level wildcard also matches the parent level itself.
      {"a/#", "a", true},
      {"a/#", "a/b", true},
      {"a/#", "a/b/c/d", true},
      {"#", "a", true},
      {"sport/tennis/#", "sport/tennis/player1/ranking", true},
      // Non-trailing `#` is malformed and must never match.
      {"a/#/b", "a/x/b", false},
      {"a/#/b", "a/b", false},
      {"a/#/b", "a/anything/at/all", false},
      {"#/b", "a/b", false},
      {"#/#", "a/b", false},
      // `+` is exactly one level, combinable with a trailing `#`.
      {"+", "a", true},
      {"+", "a/b", false},
      {"a/+/c", "a/b/c", true},
      {"a/+/c", "a/c", false},
      {"+/#", "a/b/c", true},
      // Exact matches are unchanged.
      {"a/b/c", "a/b/c", true},
      {"a/b/c", "a/b", false},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(TopicMatches(c.filter, c.topic), c.match)
        << "filter='" << c.filter << "' topic='" << c.topic << "'";
  }
}

TEST(Broker, PublishFansOutToMatchingSubscribers) {
  sim::Engine engine;
  Topology t;
  t.AddBidirectional("sensor", "gateway", SimTime::Millis(1), 1e8);
  t.AddBidirectional("gateway", "analytics", SimTime::Millis(2), 1e8);
  t.AddBidirectional("gateway", "dashboard", SimTime::Millis(5), 1e8);
  Network net(engine, std::move(t), 11);
  Broker broker(net, "gateway");

  std::vector<std::string> analytics_topics;
  int dashboard_events = 0;
  broker.Subscribe("analytics", "telemetry/#",
                   [&](const std::string& topic, const util::Json&) {
                     analytics_topics.push_back(topic);
                   });
  broker.Subscribe("dashboard", "telemetry/temp/+",
                   [&](const std::string&, const util::Json&) {
                     ++dashboard_events;
                   });

  broker.Publish("sensor", "telemetry/temp/room1",
                 util::Json::MakeObject().Set("c", 21.5));
  broker.Publish("sensor", "telemetry/humidity/room1",
                 util::Json::MakeObject().Set("rh", 0.4));
  engine.Run();

  EXPECT_EQ(broker.publishes(), 2u);
  ASSERT_EQ(analytics_topics.size(), 2u);
  EXPECT_EQ(dashboard_events, 1);
  EXPECT_EQ(broker.deliveries(), 3u);
}

TEST(Broker, UnsubscribeStopsDelivery) {
  sim::Engine engine;
  Topology t;
  t.AddBidirectional("pub", "gw", SimTime::Millis(1), 1e8);
  t.AddBidirectional("gw", "sub", SimTime::Millis(1), 1e8);
  Network net(engine, std::move(t), 11);
  Broker broker(net, "gw");
  int events = 0;
  broker.Subscribe("sub", "t/#", [&](const std::string&, const util::Json&) {
    ++events;
  });
  broker.Publish("pub", "t/1", util::Json(1));
  engine.Run();
  broker.Unsubscribe("sub", "t/#");
  broker.Publish("pub", "t/2", util::Json(2));
  engine.Run();
  EXPECT_EQ(events, 1);
}

TEST(Network, DestructionUninstallsTracerClock) {
  // Regression for the capture-lifetime fix: the constructor hands the global
  // tracer a closure over &engine_; the destructor must take it back, or the
  // tracer dereferences a destroyed network on the next NowNs().
  telemetry::ResetGlobal();
  {
    sim::Engine engine;
    Network net(engine, LineTopology(), 1);
    engine.RunUntil(SimTime::Millis(5));
    EXPECT_EQ(telemetry::Global().tracer.NowNs(), SimTime::Millis(5).ns);
  }
  EXPECT_EQ(telemetry::Global().tracer.NowNs(), 0)
      << "destroyed network left its clock installed";
  telemetry::ResetGlobal();
}

TEST(Network, StaleClockTokenDoesNotClobberNewerInstall) {
  // Last-constructed wins must survive out-of-order destruction: the first
  // network's (stale) token is a no-op against the second's installation.
  telemetry::ResetGlobal();
  sim::Engine engine_a;
  sim::Engine engine_b;
  auto net_a = std::make_unique<Network>(engine_a, LineTopology(), 1);
  Network net_b(engine_b, LineTopology(), 2);
  engine_b.RunUntil(SimTime::Millis(3));
  net_a.reset();
  EXPECT_EQ(telemetry::Global().tracer.NowNs(), SimTime::Millis(3).ns)
      << "stale uninstall token clobbered the newer clock";
  telemetry::ResetGlobal();
}

}  // namespace
}  // namespace myrtus::net
