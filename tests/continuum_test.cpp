// Device execution/energy models, node queueing and PMCs, and the Fig. 2
// infrastructure builder.
#include <gtest/gtest.h>

#include "continuum/device.hpp"
#include "continuum/infrastructure.hpp"
#include "continuum/node.hpp"

namespace myrtus::continuum {
namespace {

using sim::SimTime;

TaskDemand SmallTask() {
  TaskDemand d;
  d.cycles = 1'000'000;  // 1 Mcycle
  d.bytes_in = 10'000;
  d.bytes_out = 1'000;
  d.parallel_fraction = 0.5;
  return d;
}

TEST(Device, EstimateScalesWithClock) {
  Device d = MakeBigCore("big");
  TaskDemand task = SmallTask();
  ASSERT_TRUE(d.SetOperatingPoint(0).ok());  // 1.8 GHz
  const auto fast = d.Estimate(task);
  ASSERT_TRUE(d.SetOperatingPoint(2).ok());  // 0.6 GHz
  const auto slow = d.Estimate(task);
  EXPECT_GT(slow.latency, fast.latency);
}

TEST(Device, LowerPointSavesEnergyOnComputeBoundWork) {
  Device d = MakeBigCore("big");
  TaskDemand task;
  task.cycles = 100'000'000;
  ASSERT_TRUE(d.SetOperatingPoint(0).ok());
  const auto fast = d.Estimate(task);
  ASSERT_TRUE(d.SetOperatingPoint(2).ok());
  const auto slow = d.Estimate(task);
  // 0.6GHz/420mW vs 1.8GHz/2200mW: energy/cycle favors the low point.
  EXPECT_LT(slow.energy_mj.value(), fast.energy_mj.value());
}

TEST(Device, AcceleratorOnlyHelpsAccelerableWork) {
  Device fpga = MakeFpgaAccelerator("fpga");
  Device cpu = MakeBigCore("cpu");
  TaskDemand plain = SmallTask();
  plain.cycles = 50'000'000;
  TaskDemand kernel = plain;
  kernel.accelerable = true;
  // FPGA dominates CPU for the accelerable kernel...
  EXPECT_LT(fpga.Estimate(kernel).latency, cpu.Estimate(kernel).latency);
  // ...but at its slow fabric clock it loses on non-accelerable code.
  EXPECT_GT(fpga.Estimate(plain).latency, cpu.Estimate(plain).latency);
}

TEST(Device, ParallelFractionFollowsAmdahl) {
  Device d = MakeServerCpu("srv", 16, 3.0);
  TaskDemand serial;
  serial.cycles = 1'000'000'000;
  serial.parallel_fraction = 0.0;
  TaskDemand parallel = serial;
  parallel.parallel_fraction = 1.0;
  const double ratio = d.Estimate(serial).latency.ToSecondsF() /
                       d.Estimate(parallel).latency.ToSecondsF();
  EXPECT_NEAR(ratio, 16.0, 0.01);
}

TEST(Device, OperatingPointSwitchCountsAsReconfiguration) {
  Device d = MakeFpgaAccelerator("fpga");
  EXPECT_EQ(d.reconfigurations(), 0u);
  ASSERT_TRUE(d.SetOperatingPoint(1).ok());
  ASSERT_TRUE(d.SetOperatingPoint(1).ok());  // no-op, same point
  ASSERT_TRUE(d.SetOperatingPoint(2).ok());
  EXPECT_EQ(d.reconfigurations(), 2u);
  EXPECT_FALSE(d.SetOperatingPoint(9).ok());
  EXPECT_GT(d.reconfigure_cost().ns, 0);
}

TEST(Node, ExecutesAndReports) {
  sim::Engine engine;
  ComputeNode node(engine, "edge-0", Layer::kEdge, "hmpsoc",
                   security::SecurityLevel::kLow, 2048);
  node.AddDevice(MakeBigCore("edge-0/big"));
  bool done = false;
  node.Submit(SmallTask(), [&](const TaskReport& r) {
    EXPECT_EQ(r.node_id, "edge-0");
    EXPECT_GT(r.service.ns, 0);
    EXPECT_GT(r.energy_mj.value(), 0.0);
    EXPECT_EQ(r.queued, SimTime::Zero());
    done = true;
  });
  engine.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(node.tasks_completed(), 1u);
  EXPECT_GT(node.total_energy_mj(), 0.0);
}

TEST(Node, FifoQueueingAddsWait) {
  sim::Engine engine;
  ComputeNode node(engine, "n", Layer::kEdge, "multicore",
                   security::SecurityLevel::kLow, 1024);
  node.AddDevice(MakeBigCore("n/big"));
  std::vector<SimTime> queue_times;
  for (int i = 0; i < 3; ++i) {
    node.Submit(SmallTask(), 0,
                [&](const TaskReport& r) { queue_times.push_back(r.queued); });
  }
  engine.Run();
  ASSERT_EQ(queue_times.size(), 3u);
  EXPECT_EQ(queue_times[0], SimTime::Zero());
  EXPECT_GT(queue_times[1], SimTime::Zero());
  EXPECT_GT(queue_times[2], queue_times[1]);
}

TEST(Node, BestDevicePrefersFabricForKernels) {
  sim::Engine engine;
  ComputeNode node(engine, "n", Layer::kEdge, "hmpsoc",
                   security::SecurityLevel::kLow, 1024);
  node.AddDevice(MakeBigCore("n/big"));        // 0
  node.AddDevice(MakeFpgaAccelerator("n/fpga"));  // 1
  TaskDemand kernel = SmallTask();
  kernel.cycles = 100'000'000;
  kernel.accelerable = true;
  EXPECT_EQ(node.BestDeviceFor(kernel), 1u);
  TaskDemand plain = kernel;
  plain.accelerable = false;
  EXPECT_EQ(node.BestDeviceFor(plain), 0u);
}

TEST(Node, MemoryReservationEnforced) {
  sim::Engine engine;
  ComputeNode node(engine, "n", Layer::kFog, "fmdc",
                   security::SecurityLevel::kHigh, 1000);
  EXPECT_TRUE(node.ReserveMemory(600).ok());
  EXPECT_TRUE(node.ReserveMemory(400).ok());
  EXPECT_FALSE(node.ReserveMemory(1).ok());
  node.ReleaseMemory(500);
  EXPECT_TRUE(node.ReserveMemory(500).ok());
  EXPECT_EQ(node.mem_allocated_mb(), 1000u);
}

TEST(Node, UtilizationTracksBusyTime) {
  sim::Engine engine;
  ComputeNode node(engine, "n", Layer::kEdge, "multicore",
                   security::SecurityLevel::kLow, 1024);
  node.AddDevice(MakeBigCore("n/big"));
  TaskDemand task;
  task.cycles = 288'000'000;  // 100ms at 1.8GHz*1.6
  node.Submit(task, 0, nullptr);
  engine.RunUntil(SimTime::Millis(200));
  const double u = node.Utilization(0);
  EXPECT_NEAR(u, 0.5, 0.05);
}

TEST(Infrastructure, BuildsAllLayers) {
  sim::Engine engine;
  InfrastructureSpec spec;
  Infrastructure infra = BuildInfrastructure(engine, spec);
  EXPECT_EQ(infra.NodesInLayer(Layer::kEdge).size(), 6u);
  EXPECT_EQ(infra.NodesInLayer(Layer::kFog).size(), 2u);  // gw + fmdc
  EXPECT_EQ(infra.NodesInLayer(Layer::kCloud).size(), 1u);
  EXPECT_NE(infra.FindNode("edge-0"), nullptr);
  EXPECT_EQ(infra.FindNode("nope"), nullptr);
  EXPECT_EQ(infra.DefaultGateway(), "gw-0");
}

TEST(Infrastructure, EveryEdgeNodeReachesCloud) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  for (ComputeNode* edge : infra.NodesInLayer(Layer::kEdge)) {
    auto route = infra.topology.FindRoute(edge->id(), "cloud-0");
    ASSERT_TRUE(route.ok()) << edge->id();
    // edge -> gw -> fmdc -> cloud: 2 + 5 + 25 ms.
    EXPECT_EQ((*route)->propagation, SimTime::Millis(32));
  }
}

TEST(Infrastructure, SecurityLevelsFollowLayers) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  for (ComputeNode* n : infra.NodesInLayer(Layer::kCloud)) {
    EXPECT_EQ(n->security_level(), security::SecurityLevel::kHigh);
  }
  for (ComputeNode* n : infra.NodesInLayer(Layer::kEdge)) {
    EXPECT_EQ(n->security_level(), security::SecurityLevel::kLow);
  }
}

TEST(Infrastructure, HmpsocNodesHaveFpga) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  int fpga_nodes = 0;
  for (ComputeNode* n : infra.NodesInLayer(Layer::kEdge)) {
    for (const Device& d : n->devices()) {
      if (d.kind() == DeviceKind::kFpgaAccelerator) {
        ++fpga_nodes;
        break;
      }
    }
  }
  EXPECT_EQ(fpga_nodes, 2);
}

TEST(Infrastructure, CloudOutcomputesEdge) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  double edge_cap = 0.0;
  for (ComputeNode* n : infra.NodesInLayer(Layer::kEdge)) {
    edge_cap += n->CpuCapacity();
  }
  const double cloud_cap = infra.FindNode("cloud-0")->CpuCapacity();
  EXPECT_GT(cloud_cap, 10 * edge_cap);
}

TEST(Infrastructure, NoGatewaysStillConnected) {
  sim::Engine engine;
  InfrastructureSpec spec;
  spec.gateways = 0;
  spec.fmdcs = 0;
  Infrastructure infra = BuildInfrastructure(engine, spec);
  for (ComputeNode* edge : infra.NodesInLayer(Layer::kEdge)) {
    EXPECT_TRUE(infra.topology.FindRoute(edge->id(), "cloud-0").ok());
  }
}

}  // namespace
}  // namespace myrtus::continuum
