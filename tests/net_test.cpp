// Topology routing, transport timing/loss/queueing, RPC fabric, and the
// MQTT-style broker.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

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
  EXPECT_EQ((*route)->link_indices.size(), 2u);
  EXPECT_EQ((*route)->propagation, SimTime::Millis(11));
}

TEST(Topology, LoopbackIsEmptyRoute) {
  Topology t = LineTopology();
  auto route = t.FindRoute("fog", "fog");
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE((*route)->link_indices.empty());
  EXPECT_EQ((*route)->propagation, SimTime::Zero());
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
  EXPECT_EQ((*route)->link_indices.size(), 2u);  // via c: 3ms < 10ms direct
  EXPECT_EQ((*route)->propagation, SimTime::Millis(3));
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
  EXPECT_EQ((*route)->propagation, SimTime::Millis(10));
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
  EXPECT_DOUBLE_EQ((*route)->min_bandwidth_bps, 1e6);
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

TEST(Network, CallByMethodIdMatchesCallByName) {
  // Same seed, same calls: one network names the method per call, the other
  // passes the id it interned once. Replies, timing and bytes must agree.
  struct Run {
    sim::Engine engine;
    std::unique_ptr<Network> net;
    std::vector<std::int64_t> reply_ns;
  };
  const auto run = [](bool by_id) {
    auto r = std::make_unique<Run>();
    r->net = std::make_unique<Network>(r->engine, LineTopology(), 7);
    r->net->RegisterRpc("cloud", "pipeline.continue/echo",
                        [](const HostId&, const util::Json& req)
                            -> util::StatusOr<util::Json> { return req; });
    const Network::MethodId id = r->net->InternMethod("pipeline.continue/echo");
    EXPECT_EQ(r->net->InternMethod("pipeline.continue/echo"), id);
    for (std::int64_t i = 0; i < 5; ++i) {
      const auto on_reply = [&r = *r, i](util::StatusOr<util::Json> reply) {
        ASSERT_TRUE(reply.ok());
        EXPECT_EQ(reply->as_int(), i);
        r.reply_ns.push_back(r.engine.Now().ns);
      };
      if (by_id) {
        r->net->Call("edge", "cloud", id, util::Json(i), on_reply);
      } else {
        r->net->Call("edge", "cloud", "pipeline.continue/echo", util::Json(i),
                     on_reply);
      }
    }
    r->engine.Run();
    return r;
  };
  const auto by_name = run(false);
  const auto by_id = run(true);
  EXPECT_EQ(by_id->reply_ns.size(), 5u);
  EXPECT_EQ(by_id->reply_ns, by_name->reply_ns);
  EXPECT_EQ(by_id->net->bytes_sent(), by_name->net->bytes_sent());
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

// The JSON documents an RPC envelope stands for. Their encoded size plus the
// protocol overhead is what a request (without a body_bytes override) or a
// reply costs on every link it crosses.
util::Json RequestEnvelope(std::int64_t call_id, const std::string& method,
                           const util::Json& request,
                           const telemetry::SpanContext* tctx = nullptr) {
  util::Json envelope = util::Json::MakeObject()
                            .Set("call_id", call_id)
                            .Set("method", method)
                            .Set("request", request);
  if (tctx != nullptr) envelope.Set("tctx", tctx->ToJson());
  return envelope;
}

util::Json ReplyEnvelope(std::int64_t call_id,
                         const util::StatusOr<util::Json>& result) {
  util::Json envelope = util::Json::MakeObject().Set("call_id", call_id);
  if (result.ok()) return envelope.Set("ok", true).Set("result", *result);
  return envelope.Set("ok", false)
      .Set("code", static_cast<std::int64_t>(result.status().code()))
      .Set("error", result.status().message());
}

// Strings that need escapes, an integral double, INT64_MIN, empty and
// nested containers.
util::Json AwkwardDocument() {
  return util::Json::MakeObject()
      .Set("text", std::string("a \"quoted\" \\path\n\x01\x1f\t"))
      .Set("whole", 2.0)
      .Set("min", std::numeric_limits<std::int64_t>::min())
      .Set("empty", util::Json::MakeArray())
      .Set("nested", util::Json::MakeObject().Set(
                         "list", util::Json::MakeArray().Append(nullptr).Append(
                                     util::Json::MakeObject())));
}

constexpr std::size_t kLineHops = 2;  // edge -> fog -> cloud

TEST(NetworkBytes, RpcRoundTripsCostTheirJsonEnvelopes) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  const util::Json result = AwkwardDocument().Set("served", true);
  net.RegisterRpc("cloud", "echo",
                  [&](const HostId&, const util::Json&)
                      -> util::StatusOr<util::Json> { return result; });
  const std::size_t overhead = ProtocolOverheadBytes(Protocol::kHttp);
  std::uint64_t want = 0;
  // Twelve calls: call ids of one and two digits.
  for (std::int64_t call_id = 1; call_id <= 12; ++call_id) {
    const util::Json request = AwkwardDocument().Set("seq", call_id);
    int replies = 0;
    net.Call("edge", "cloud", "echo", request,
             [&](util::StatusOr<util::Json> reply) {
               ASSERT_TRUE(reply.ok());
               EXPECT_EQ(*reply, result);
               ++replies;
             });
    engine.Run();
    ASSERT_EQ(replies, 1);
    want += kLineHops *
            (RequestEnvelope(call_id, "echo", request).Dump().size() + overhead);
    want += kLineHops * (ReplyEnvelope(call_id, result).Dump().size() + overhead);
    EXPECT_EQ(net.bytes_sent(), want) << "call " << call_id;
  }
}

TEST(NetworkBytes, BodyBytesOverrideOnlyTheRequest) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  const util::Json result = AwkwardDocument();
  net.RegisterRpc("cloud", "bulk",
                  [&](const HostId&, const util::Json&)
                      -> util::StatusOr<util::Json> { return result; });
  const std::size_t overhead = ProtocolOverheadBytes(Protocol::kCoap);
  net.Call("edge", "cloud", "bulk", AwkwardDocument(),
           [](util::StatusOr<util::Json> reply) { ASSERT_TRUE(reply.ok()); },
           SimTime::Seconds(5), Protocol::kCoap, /*body_bytes=*/4096);
  engine.Run();
  EXPECT_EQ(net.bytes_sent(),
            kLineHops * (4096 + overhead) +
                kLineHops * (ReplyEnvelope(1, result).Dump().size() + overhead));
}

TEST(NetworkBytes, ErrorRepliesCostTheirJsonEnvelopes) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  const util::Status refused =
      util::Status::ResourceExhausted("no \"capacity\"\tleft\x02");
  net.RegisterRpc("cloud", "fail",
                  [&](const HostId&, const util::Json&)
                      -> util::StatusOr<util::Json> { return refused; });
  const std::size_t overhead = ProtocolOverheadBytes(Protocol::kMqtt);
  const util::Json request = AwkwardDocument();
  net.Call("edge", "cloud", "fail", request,
           [&](util::StatusOr<util::Json> reply) {
             EXPECT_EQ(reply.status(), refused);
           },
           SimTime::Seconds(5), Protocol::kMqtt);
  // An unknown method is an error reply written by the network itself.
  net.Call("edge", "cloud", "nope", util::Json(),
           [](util::StatusOr<util::Json> reply) {
             EXPECT_EQ(reply.status().code(), util::StatusCode::kUnimplemented);
           },
           SimTime::Seconds(5), Protocol::kMqtt);
  engine.Run();
  const util::Status unimplemented =
      util::Status::Unimplemented("no handler for nope on cloud");
  EXPECT_EQ(net.bytes_sent(),
            kLineHops * (RequestEnvelope(1, "fail", request).Dump().size() +
                         ReplyEnvelope(1, refused).Dump().size() +
                         RequestEnvelope(2, "nope", util::Json()).Dump().size() +
                         ReplyEnvelope(2, unimplemented).Dump().size() +
                         4 * overhead));
}

TEST(NetworkBytes, TracedRequestsCarryTheSpanContext) {
  telemetry::ResetGlobal();
  telemetry::SetEnabled(true);
  {
    sim::Engine engine;
    Network net(engine, LineTopology(), 1);
    const util::Json result = util::Json(1.0);
    net.RegisterRpc("cloud", "echo",
                    [&](const HostId&, const util::Json&)
                        -> util::StatusOr<util::Json> { return result; });
    const util::Json request = AwkwardDocument();
    net.Call("edge", "cloud", "echo", request,
             [](util::StatusOr<util::Json> reply) { ASSERT_TRUE(reply.ok()); });
    engine.Run();

    telemetry::SpanContext client;
    std::uint64_t server_parent = 0;
    for (const telemetry::SpanRecord& span :
         telemetry::Global().tracer.finished()) {
      if (span.name == "rpc.call echo") client = {span.trace_id, span.span_id};
      if (span.name == "rpc.serve echo") server_parent = span.parent_id;
    }
    ASSERT_TRUE(client.valid());
    EXPECT_EQ(server_parent, client.span_id);
    const std::size_t overhead = ProtocolOverheadBytes(Protocol::kHttp);
    EXPECT_EQ(net.bytes_sent(),
              kLineHops *
                  (RequestEnvelope(1, "echo", request, &client).Dump().size() +
                   ReplyEnvelope(1, result).Dump().size() + 2 * overhead));
  }
  telemetry::SetEnabled(false);
  telemetry::ResetGlobal();
}

TEST(NetworkBytes, DatagramsCostTheirEncodedPayload) {
  sim::Engine engine;
  Network net(engine, LineTopology(), 1);
  int delivered = 0;
  net.Attach("cloud", [&](const Message& m) {
    EXPECT_EQ(m.payload, AwkwardDocument());
    EXPECT_EQ(m.body_bytes, AwkwardDocument().Dump().size());
    ++delivered;
  });
  Message msg;
  msg.from = "edge";
  msg.to = "cloud";
  msg.kind = "telemetry";
  msg.protocol = Protocol::kMqtt;
  msg.payload = AwkwardDocument();
  ASSERT_TRUE(net.Send(std::move(msg)).ok());
  engine.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.bytes_sent(),
            kLineHops * (AwkwardDocument().Dump().size() +
                         ProtocolOverheadBytes(Protocol::kMqtt)));
}

TEST(Network, InFlightFrameKeepsItsSendTimeRoute) {
  // a -> b -> d is 2 ms, a -> c -> d is 20 ms.
  sim::Engine engine;
  Topology t;
  t.AddBidirectional("a", "b", SimTime::Millis(1), 1e9);
  t.AddBidirectional("b", "d", SimTime::Millis(1), 1e9);
  t.AddBidirectional("a", "c", SimTime::Millis(10), 1e9);
  t.AddBidirectional("c", "d", SimTime::Millis(10), 1e9);
  Network net(engine, std::move(t), 1);
  std::size_t b_to_d = 0;
  for (std::size_t i = 0; i < net.topology().link_count(); ++i) {
    if (net.topology().link(i).from == "b" && net.topology().link(i).to == "d") {
      b_to_d = i;
    }
  }
  std::vector<std::pair<std::uint64_t, SimTime>> arrivals;
  net.Attach("d", [&](const Message& m) {
    arrivals.emplace_back(m.id, engine.Now());
  });
  const auto send = [&] {
    Message m;
    m.from = "a";
    m.to = "d";
    m.body_bytes = 1;
    auto id = net.Send(std::move(m));
    EXPECT_TRUE(id.ok());
    return id.ok() ? *id : 0;
  };
  const std::uint64_t first = send();
  // The first frame is on a -> b when b -> d goes down.
  engine.RunUntil(SimTime::Micros(500));
  net.topology().SetLinkUp(b_to_d, false);
  const std::uint64_t second = send();
  engine.Run();

  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].first, first);
  EXPECT_GT(arrivals[0].second, SimTime::Millis(2));
  EXPECT_LT(arrivals[0].second, SimTime::Millis(3));
  EXPECT_EQ(arrivals[1].first, second);
  EXPECT_GT(arrivals[1].second, SimTime::Micros(500) + SimTime::Millis(20));
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
