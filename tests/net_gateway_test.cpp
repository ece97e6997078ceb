// Network slicing (priority classes at links) and the smart-gateway protocol
// bridge / aggregator / adapters.
#include <gtest/gtest.h>

#include "net/gateway.hpp"
#include "net/transport.hpp"

namespace myrtus::net {
namespace {

using sim::SimTime;

TEST(NetworkSlicing, ControlTrafficPreemptsBulkQueue) {
  sim::Engine engine;
  Topology t;
  // 1 Mb/s link: a 1250-byte frame takes 10ms to serialize.
  t.AddLink(Link{"a", "b", SimTime::Zero(), 1e6, 0.0, {}});
  Network net(engine, std::move(t), 1);
  std::vector<std::string> arrivals;
  net.Attach("b", [&](const Message& m) { arrivals.push_back(m.kind); });

  // Flood five bulk frames, then one control frame while the first bulk
  // frame is still on the wire.
  for (int i = 0; i < 5; ++i) {
    Message bulk;
    bulk.from = "a";
    bulk.to = "b";
    bulk.kind = "bulk-" + std::to_string(i);
    bulk.protocol = Protocol::kMqtt;
    bulk.body_bytes = 1242;
    bulk.priority = 0;
    ASSERT_TRUE(net.Send(std::move(bulk)).ok());
  }
  Message control;
  control.from = "a";
  control.to = "b";
  control.kind = "control";
  control.protocol = Protocol::kMqtt;
  control.body_bytes = 42;
  control.priority = 2;
  ASSERT_TRUE(net.Send(std::move(control)).ok());

  engine.Run();
  ASSERT_EQ(arrivals.size(), 6u);
  // bulk-0 was already transmitting; control jumps the remaining queue.
  EXPECT_EQ(arrivals[0], "bulk-0");
  EXPECT_EQ(arrivals[1], "control");
  EXPECT_EQ(arrivals[2], "bulk-1");
  EXPECT_EQ(arrivals[5], "bulk-4");
}

TEST(NetworkSlicing, EqualPriorityKeepsFifo) {
  sim::Engine engine;
  Topology t;
  t.AddLink(Link{"a", "b", SimTime::Zero(), 1e6, 0.0, {}});
  Network net(engine, std::move(t), 1);
  std::vector<std::string> arrivals;
  net.Attach("b", [&](const Message& m) { arrivals.push_back(m.kind); });
  for (int i = 0; i < 4; ++i) {
    Message m;
    m.from = "a";
    m.to = "b";
    m.kind = std::to_string(i);
    m.body_bytes = 500;
    m.priority = 1;
    ASSERT_TRUE(net.Send(std::move(m)).ok());
  }
  engine.Run();
  EXPECT_EQ(arrivals, (std::vector<std::string>{"0", "1", "2", "3"}));
}

struct GatewayFixture {
  sim::Engine engine;
  std::unique_ptr<Network> net;
  std::unique_ptr<SmartGateway> gateway;
  std::vector<Message> cloud_inbox;

  GatewayFixture() {
    Topology t;
    t.AddBidirectional("sensor-1", "gw", SimTime::Millis(1), 1e8);
    t.AddBidirectional("sensor-2", "gw", SimTime::Millis(1), 1e8);
    t.AddBidirectional("gw", "cloud", SimTime::Millis(20), 1e9);
    net = std::make_unique<Network>(engine, std::move(t), 9);
    gateway = std::make_unique<SmartGateway>(*net, "gw");
    net->Attach("cloud", [this](const Message& m) { cloud_inbox.push_back(m); });
  }

  void SendReading(const std::string& sensor, const std::string& kind,
                   double value, Protocol protocol = Protocol::kCoap) {
    Message m;
    m.from = sensor;
    m.to = "gw";
    m.kind = kind;
    m.protocol = protocol;
    m.payload = util::Json::MakeObject().Set("v", value);
    m.body_bytes = 64;
    ASSERT_TRUE(net->Send(std::move(m)).ok());
  }
};

TEST(SmartGateway, BridgesCoapSensorToHttpCloud) {
  GatewayFixture f;
  f.gateway->AddBridgeRule("telemetry", "cloud", Protocol::kHttp);
  f.SendReading("sensor-1", "telemetry", 21.5);
  f.engine.Run();
  ASSERT_EQ(f.cloud_inbox.size(), 1u);
  EXPECT_EQ(f.cloud_inbox[0].protocol, Protocol::kHttp);
  EXPECT_EQ(f.cloud_inbox[0].from, "gw");
  EXPECT_EQ(f.cloud_inbox[0].payload.at("origin").as_string(), "sensor-1");
  EXPECT_DOUBLE_EQ(
      f.cloud_inbox[0].payload.at("payload").at("v").as_double(), 21.5);
  EXPECT_EQ(f.gateway->bridged(), 1u);
}

TEST(SmartGateway, RemovedBridgeStopsForwarding) {
  GatewayFixture f;
  const int rule = f.gateway->AddBridgeRule("telemetry", "cloud", Protocol::kHttp);
  f.SendReading("sensor-1", "telemetry", 1);
  f.engine.Run();
  f.gateway->RemoveBridgeRule(rule);
  f.SendReading("sensor-1", "telemetry", 2);
  f.engine.Run();
  EXPECT_EQ(f.cloud_inbox.size(), 1u);
}

TEST(SmartGateway, AggregationBatchesByWindow) {
  GatewayFixture f;
  f.gateway->EnableAggregation("telemetry", "cloud", SimTime::Millis(100), 64);
  for (int i = 0; i < 5; ++i) f.SendReading("sensor-1", "telemetry", i);
  f.engine.RunUntil(SimTime::Millis(500));
  ASSERT_EQ(f.cloud_inbox.size(), 1u) << "one batch, not five messages";
  const Message& batch = f.cloud_inbox[0];
  EXPECT_EQ(batch.kind, "gw.batch");
  EXPECT_EQ(batch.payload.at("count").as_int(), 5);
  EXPECT_EQ(batch.payload.at("items").items().size(), 5u);
  EXPECT_EQ(f.gateway->aggregated_in(), 5u);
  EXPECT_EQ(f.gateway->batches_out(), 1u);
}

TEST(SmartGateway, AggregationFlushesEarlyWhenFull) {
  GatewayFixture f;
  f.gateway->EnableAggregation("telemetry", "cloud", SimTime::Seconds(10), 3);
  for (int i = 0; i < 7; ++i) f.SendReading("sensor-2", "telemetry", i);
  f.engine.RunUntil(SimTime::Seconds(1));
  // 7 readings with max_batch 3: two full batches immediately; the remainder
  // waits for the (long) window.
  EXPECT_EQ(f.gateway->batches_out(), 2u);
  f.engine.RunUntil(SimTime::Seconds(12));
  EXPECT_EQ(f.gateway->batches_out(), 3u);
  std::size_t total = 0;
  for (const Message& m : f.cloud_inbox) {
    total += m.payload.at("items").items().size();
  }
  EXPECT_EQ(total, 7u);
}

TEST(SmartGateway, AggregationSavesUplinkBytes) {
  // Compare bytes on the gw->cloud link with and without aggregation.
  const auto run = [](bool aggregate) {
    GatewayFixture f;
    if (aggregate) {
      f.gateway->EnableAggregation("telemetry", "cloud", SimTime::Millis(50), 64);
    } else {
      f.gateway->AddBridgeRule("telemetry", "cloud", Protocol::kHttp);
    }
    for (int i = 0; i < 50; ++i) f.SendReading("sensor-1", "telemetry", i);
    f.engine.RunUntil(SimTime::Seconds(1));
    return f.net->bytes_sent();
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_LT(with, without)
      << "batching must amortize per-message protocol overhead";
}

TEST(SmartGateway, AdapterFiltersAndTransforms) {
  GatewayFixture f;
  f.gateway->AddBridgeRule("telemetry", "cloud", Protocol::kHttp);
  // Drop readings below zero; annotate the rest.
  f.gateway->AddAdapter("telemetry", [](Message& m) {
    if (m.payload.at("v").as_double() < 0) return false;
    m.payload.Set("validated", true);
    return true;
  });
  f.SendReading("sensor-1", "telemetry", -5);
  f.SendReading("sensor-1", "telemetry", 7);
  f.engine.Run();
  ASSERT_EQ(f.cloud_inbox.size(), 1u);
  EXPECT_TRUE(f.cloud_inbox[0].payload.at("payload").at("validated").as_bool());
  EXPECT_EQ(f.gateway->dropped_by_adapter(), 1u);
}

// Regression: bridged/batched traffic aimed at an unroutable upstream used to
// be dropped with a discarded Send status — no counter moved, so the loss was
// invisible. Failures must now be counted (and must not inflate the success
// counters).
TEST(SmartGateway, UnroutableBridgeTargetIsCountedNotSilent) {
  GatewayFixture f;
  f.gateway->AddBridgeRule("telemetry", "no-such-node", Protocol::kHttp);
  f.SendReading("sensor-1", "telemetry", 3.5);
  f.engine.Run();
  EXPECT_TRUE(f.cloud_inbox.empty());
  EXPECT_EQ(f.gateway->upstream_send_failures(), 1u);
  EXPECT_EQ(f.gateway->bridged(), 0u) << "a failed bridge is not a bridge";
}

TEST(SmartGateway, UnroutableAggregationTargetIsCountedNotSilent) {
  GatewayFixture f;
  f.gateway->EnableAggregation("telemetry", "no-such-node", SimTime::Millis(50), 64);
  for (int i = 0; i < 4; ++i) f.SendReading("sensor-2", "telemetry", i);
  f.engine.RunUntil(SimTime::Seconds(1));
  EXPECT_EQ(f.gateway->aggregated_in(), 4u);
  EXPECT_EQ(f.gateway->batches_out(), 0u) << "a dropped batch never went out";
  EXPECT_EQ(f.gateway->upstream_send_failures(), 1u);
}

}  // namespace
}  // namespace myrtus::net
