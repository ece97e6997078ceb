// Regression tests for control-plane accounting bugs: unsigned underflow in
// the free-memory math, NodeState/ComputeNode memory-ledger drift, memory
// reflections below a node's reservation, and preemption stranding its
// victims when the post-eviction rebind fails. (The energy-unit bug shape no
// longer compiles; see util_units_test and mirto_agent_test.)
#include <gtest/gtest.h>

#include "continuum/infrastructure.hpp"
#include "oracle/sched_oracle.hpp"
#include "sched/controller.hpp"
#include "sched/scheduler.hpp"

namespace myrtus::sched {
namespace {

using continuum::BuildInfrastructure;
using continuum::Infrastructure;

struct Fixture {
  sim::Engine engine;
  Infrastructure infra;
  Cluster cluster;

  Fixture()
      : infra(BuildInfrastructure(engine, {})),
        cluster(engine, Scheduler::Default()) {
    for (auto& n : infra.nodes) cluster.AddNode(n.get());
  }
};

void ExpectLedgersEqual(Cluster& cluster) {
  for (NodeState* ns : cluster.NodeStates()) {
    EXPECT_EQ(ns->mem_allocated_mb(), ns->node->mem_allocated_mb())
        << ns->node->id();
  }
}

// A node whose allocation exceeds its capacity (reflected remote usage can do
// this) used to report ~2^64 MB free — `capacity - allocated` on unsigned
// integers wraps — so every pod "fit" on the fullest node in the fleet.
TEST(Regression, OverallocatedNodeReportsZeroFreeMemoryAndRejectsPods) {
  Fixture f;
  NodeState* edge = f.cluster.FindNodeState("edge-0");
  ASSERT_NE(edge, nullptr);
  ASSERT_TRUE(f.cluster.SetNodeLabel("edge-0", "pin", "1").ok());
  ASSERT_TRUE(
      f.cluster
          .SetReflectedMemAllocation("edge-0", edge->mem_capacity_mb() + 64)
          .ok());
  EXPECT_EQ(edge->MemFreeMb(), 0u);

  PodSpec pod;
  pod.name = "squeeze";
  pod.cpu_request = 0.1;
  pod.mem_request_mb = 1;
  pod.node_selector["pin"] = "1";

  // The indexed bind and the oracle's scan must refuse with the same status.
  auto scanned = oracle::ScanSchedule({}, pod, f.cluster.NodeStates());
  ASSERT_FALSE(scanned.ok());
  auto bound = f.cluster.BindPod(pod);
  ASSERT_FALSE(bound.ok());
  for (const util::Status& status : {scanned.status(), bound.status()}) {
    EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
    EXPECT_NE(status.message().find("insufficient memory"), std::string::npos)
        << status;
  }
  EXPECT_EQ(bound.status().message(), scanned.status().message());
  // LINT: discard(cleanup of the pod left pending by the failed bind)
  (void)f.cluster.DeletePod(pod.name);

  auto directed = f.cluster.BindPodToNode(pod, "edge-0");
  ASSERT_FALSE(directed.ok());
  EXPECT_EQ(directed.status().code(), util::StatusCode::kResourceExhausted);
}

// Releases used to debit the scheduler ledger and the ComputeNode ledger by
// independently clamped amounts; once the two disagreed (a reflected
// overwrite landing while pods were committed), the drift was permanent.
// Releases now refund exactly the amounts recorded at commit time on both.
TEST(Regression, LedgersStayEqualWhenReflectionLandsMidFlight) {
  Fixture f;
  NodeState* edge = f.cluster.FindNodeState("edge-0");
  ASSERT_NE(edge, nullptr);

  PodSpec pod;
  pod.name = "tenant";
  pod.cpu_request = 0.2;
  pod.mem_request_mb = 256;
  ASSERT_TRUE(f.cluster.BindPodToNode(pod, "edge-0").ok());
  ExpectLedgersEqual(f.cluster);

  // External reflection overwrites the scheduler ledger below the committed
  // amount, then the pod goes away.
  ASSERT_TRUE(f.cluster.SetReflectedMemAllocation("edge-0", 10).ok());
  ASSERT_TRUE(f.cluster.DeletePod("tenant").ok());

  // Both ledgers clamp to zero; neither strands the 256 MB.
  EXPECT_EQ(edge->mem_allocated_mb(), 0u);
  EXPECT_EQ(edge->node->mem_allocated_mb(), 0u);

  // The node is fully usable again: a pod sized to the whole node fits.
  PodSpec big;
  big.name = "big";
  big.cpu_request = 0.1;
  big.mem_request_mb = edge->mem_capacity_mb();
  auto rebound = f.cluster.BindPodToNode(big, "edge-0");
  ASSERT_TRUE(rebound.ok()) << rebound.status();
  ExpectLedgersEqual(f.cluster);
}

// A memory reflection below the node's own reservation used to lower the
// scheduler's column under what the ComputeNode had reserved: Schedule then
// admitted pods that CommitBind's ReserveMemory refused, so BindPod failed
// with a node chosen. The column is now clamped at the reservation, and
// every pod the scheduler places on the node commits there.
TEST(Regression, ReflectionBelowReservationNeverAdmitsAnUncommittableBind) {
  Fixture f;
  NodeState* edge = f.cluster.FindNodeState("edge-0");
  ASSERT_NE(edge, nullptr);
  ASSERT_TRUE(f.cluster.SetNodeLabel("edge-0", "pin", "1").ok());

  PodSpec tenant;
  tenant.name = "tenant";
  tenant.cpu_request = 0.2;
  tenant.mem_request_mb = 256;
  ASSERT_TRUE(f.cluster.BindPodToNode(tenant, "edge-0").ok());
  ASSERT_TRUE(f.cluster.SetReflectedMemAllocation("edge-0", 0).ok());
  ExpectLedgersEqual(f.cluster);

  // One pod that fits what the node has left, one that fits only a column
  // below the reservation.
  const std::uint64_t left = edge->mem_capacity_mb() - 256;
  for (const std::uint64_t mem : {left + 128, left}) {
    PodSpec pod;
    pod.name = "pod-" + std::to_string(mem);
    pod.cpu_request = 0.1;
    pod.mem_request_mb = mem;
    pod.node_selector["pin"] = "1";
    auto dry = f.cluster.DryRunSchedule(pod);
    if (!dry.ok()) {
      EXPECT_GT(mem, left);
      continue;
    }
    EXPECT_EQ(dry->node_id, "edge-0");
    auto bound = f.cluster.BindPod(pod);
    ASSERT_TRUE(bound.ok()) << pod.name << ": " << bound.status();
    EXPECT_EQ(*bound, "edge-0");
    ExpectLedgersEqual(f.cluster);
  }
  EXPECT_EQ(edge->MemFreeMb(), 0u);
}

// Preemption used to evict victims, fail the post-eviction rebind (a filter
// the planner cannot model rejected the preemptor), and walk away — the
// victims stayed evicted although nothing was gained. They are now rolled
// back onto their original nodes with resources re-committed.
TEST(Regression, PreemptionRollsBackVictimsWhenRebindFails) {
  sim::Engine engine;
  Infrastructure infra = BuildInfrastructure(engine, {});
  Scheduler sched = Scheduler::Default();
  // Opaque filter the preemption planner cannot reason about: it rejects the
  // preemptor by name, so the post-eviction rebind is guaranteed to fail.
  sched.AddFilter([](const PodSpec& pod,
                     const NodeState&) -> std::optional<std::string> {
    if (pod.name == "vip") return "vip quarantined";
    return std::nullopt;
  });
  Cluster cluster(engine, std::move(sched));
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  ASSERT_TRUE(cluster.SetNodeLabel("edge-0", "pin", "1").ok());
  NodeState* edge = cluster.FindNodeState("edge-0");
  ASSERT_NE(edge, nullptr);
  const double cap = edge->cpu_capacity();

  PodSpec filler;
  filler.cpu_request = cap / 2;
  filler.mem_request_mb = 8;
  filler.priority = 0;
  filler.node_selector["pin"] = "1";
  filler.name = "low-a";
  ASSERT_TRUE(cluster.BindPod(filler).ok());
  filler.name = "low-b";
  ASSERT_TRUE(cluster.BindPod(filler).ok());
  ASSERT_EQ(cluster.RunningPods(), 2u);

  PodSpec vip;
  vip.name = "vip";
  vip.cpu_request = cap / 2;
  vip.mem_request_mb = 8;
  vip.priority = 10;
  vip.node_selector["pin"] = "1";
  auto attempt = cluster.BindPodWithPreemption(vip);
  ASSERT_FALSE(attempt.ok());

  // Nothing was gained, so nothing may be lost: every victim is back on its
  // node with resources re-committed, and no eviction was counted.
  for (const char* name : {"low-a", "low-b"}) {
    const PodView p = cluster.FindPod(name);
    ASSERT_TRUE(p.valid()) << name;
    EXPECT_EQ(p.phase(), PodPhase::kRunning) << name;
    EXPECT_EQ(p.node_id(), "edge-0") << name;
  }
  EXPECT_EQ(cluster.evictions(), 0u);
  EXPECT_EQ(cluster.RunningPods(), 2u);
  EXPECT_NEAR(edge->cpu_allocated(), cap, 1e-9);
  EXPECT_EQ(edge->mem_allocated_mb(), edge->node->mem_allocated_mb());

  // The preemptor stays pending (a later Reconcile may retry it).
  const PodView vip_pod = cluster.FindPod("vip");
  ASSERT_TRUE(vip_pod.valid());
  EXPECT_EQ(vip_pod.phase(), PodPhase::kPending);
  EXPECT_EQ(cluster.PendingPods(), 1u);
}

}  // namespace
}  // namespace myrtus::sched
