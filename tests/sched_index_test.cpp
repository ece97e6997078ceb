// NodeIndex internals (bitmaps, inverted indexes, candidate cache) and the
// differential against the full-scan oracle: the indexed scheduler must
// produce the oracle's verdicts, scores and failure messages on randomized
// fleets, pods, and structural churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "continuum/infrastructure.hpp"
#include "oracle/sched_oracle.hpp"
#include "sched/controller.hpp"
#include "sched/node_index.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace myrtus::sched {
namespace {

using continuum::ComputeNode;
using continuum::Device;
using continuum::DeviceKind;
using continuum::Layer;
using continuum::OperatingPoint;

// --- Bitmap ------------------------------------------------------------------

TEST(Bitmap, SetTestResetCountAcrossWordBoundaries) {
  Bitmap b;
  b.Resize(130);
  EXPECT_EQ(b.Count(), 0u);
  const std::size_t set[] = {0, 63, 64, 127, 129};
  for (std::size_t bit : set) b.Set(bit);
  EXPECT_EQ(b.Count(), 5u);
  for (std::size_t bit : set) EXPECT_TRUE(b.Test(bit)) << bit;
  for (std::size_t bit : {std::size_t{1}, std::size_t{65}, std::size_t{128}}) {
    EXPECT_FALSE(b.Test(bit)) << bit;
  }
  EXPECT_FALSE(b.Test(100000));  // out of range reads as unset
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 4u);
  b.ClearAll();
  EXPECT_EQ(b.Count(), 0u);
}

TEST(Bitmap, AndWithIntersectsAndTreatsMissingWordsAsZero) {
  Bitmap a;
  a.Resize(130);
  a.Set(1);
  a.Set(70);
  a.Set(129);
  Bitmap b;
  b.Resize(130);
  b.Set(70);
  b.Set(129);
  b.Set(2);
  a.AndWith(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_TRUE(a.Test(70));
  EXPECT_TRUE(a.Test(129));
  EXPECT_FALSE(a.Test(1));

  // Intersecting with a shorter bitmap clears everything past its words.
  Bitmap c;
  c.Resize(10);
  c.Set(1);
  Bitmap d;
  d.Resize(130);
  d.Set(1);
  d.Set(129);
  d.AndWith(c);
  EXPECT_EQ(d.Count(), 1u);
  EXPECT_TRUE(d.Test(1));
}

TEST(Bitmap, ForEachSetVisitsAscendingSlots) {
  Bitmap b;
  b.Resize(200);
  b.Set(129);
  b.Set(2);
  b.Set(64);
  std::vector<std::size_t> seen;
  b.ForEachSet([&](std::size_t slot) { seen.push_back(slot); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 64, 129}));
}

// --- NodeIndex ---------------------------------------------------------------

struct IndexFixture {
  sim::Engine engine;
  std::vector<std::unique_ptr<ComputeNode>> nodes;
  NodeIndex index;

  ComputeNode* AddNode(const std::string& id, Layer layer,
                       security::SecurityLevel level, bool accel,
                       std::map<std::string, std::string> labels = {}) {
    auto node =
        std::make_unique<ComputeNode>(engine, id, layer, "test", level, 1024);
    node->AddDevice(Device(id + "/cpu", DeviceKind::kServerCpu, 4,
                           {OperatingPoint{"base"}}));
    if (accel) {
      node->AddDevice(Device(id + "/fpga", DeviceKind::kFpgaAccelerator, 1,
                             {OperatingPoint{"accel"}}));
    }
    ComputeNode* raw = node.get();
    nodes.push_back(std::move(node));
    index.Add(raw, std::move(labels));
    return raw;
  }
};

std::vector<std::string> Ids(const NodeIndex& index, const Bitmap& bits) {
  std::vector<std::string> out;
  bits.ForEachSet(
      [&](std::size_t slot) { out.push_back(index.at(slot).node->id()); });
  return out;
}

TEST(NodeIndex, CandidatesIntersectStructuralDimensions) {
  IndexFixture f;
  f.AddNode("e0", Layer::kEdge, security::SecurityLevel::kLow, true);
  f.AddNode("e1", Layer::kEdge, security::SecurityLevel::kLow, false,
            {{"zone", "a"}});
  f.AddNode("f0", Layer::kFog, security::SecurityLevel::kMedium, false,
            {{"zone", "a"}});
  f.AddNode("c0", Layer::kCloud, security::SecurityLevel::kHigh, true);

  CandidateQuery q;
  EXPECT_EQ(f.index.Candidates(q).Count(), 4u);  // unrestricted

  q.restrict_security = true;
  q.min_security = security::SecurityLevel::kMedium;
  EXPECT_EQ(Ids(f.index, f.index.Candidates(q)),
            (std::vector<std::string>{"f0", "c0"}));

  CandidateQuery accel;
  accel.restrict_accelerator = true;
  EXPECT_EQ(Ids(f.index, f.index.Candidates(accel)),
            (std::vector<std::string>{"e0", "c0"}));

  const std::string edge = "edge";
  CandidateQuery layer;
  layer.layer = &edge;
  EXPECT_EQ(Ids(f.index, f.index.Candidates(layer)),
            (std::vector<std::string>{"e0", "e1"}));

  const std::map<std::string, std::string> zone_a = {{"zone", "a"}};
  CandidateQuery selector;
  selector.selector = &zone_a;
  EXPECT_EQ(Ids(f.index, f.index.Candidates(selector)),
            (std::vector<std::string>{"e1", "f0"}));

  CandidateQuery combined;
  combined.restrict_security = true;
  combined.min_security = security::SecurityLevel::kMedium;
  combined.selector = &zone_a;
  EXPECT_EQ(Ids(f.index, f.index.Candidates(combined)),
            (std::vector<std::string>{"f0"}));

  const std::string moon = "moon";
  CandidateQuery unknown_layer;
  unknown_layer.layer = &moon;
  EXPECT_EQ(f.index.Candidates(unknown_layer).Count(), 0u);

  const std::map<std::string, std::string> nowhere = {{"zone", "zz"}};
  CandidateQuery unknown_label;
  unknown_label.selector = &nowhere;
  EXPECT_EQ(f.index.Candidates(unknown_label).Count(), 0u);
}

TEST(NodeIndex, StructuralMutationsMoveBitmapMembership) {
  IndexFixture f;
  f.AddNode("e0", Layer::kEdge, security::SecurityLevel::kLow, false,
            {{"zone", "a"}});
  f.AddNode("e1", Layer::kEdge, security::SecurityLevel::kLow, false,
            {{"zone", "a"}});

  CandidateQuery uncordoned;
  uncordoned.restrict_cordoned = true;
  EXPECT_EQ(f.index.Candidates(uncordoned).Count(), 2u);
  f.index.SetCordoned(0, true);
  EXPECT_EQ(Ids(f.index, f.index.Candidates(uncordoned)),
            (std::vector<std::string>{"e1"}));
  f.index.SetCordoned(0, false);
  EXPECT_EQ(f.index.Candidates(uncordoned).Count(), 2u);

  const std::map<std::string, std::string> zone_a = {{"zone", "a"}};
  const std::map<std::string, std::string> zone_b = {{"zone", "b"}};
  CandidateQuery in_a;
  in_a.selector = &zone_a;
  CandidateQuery in_b;
  in_b.selector = &zone_b;
  f.index.SetLabel(1, "zone", "b");
  EXPECT_EQ(Ids(f.index, f.index.Candidates(in_a)),
            (std::vector<std::string>{"e0"}));
  EXPECT_EQ(Ids(f.index, f.index.Candidates(in_b)),
            (std::vector<std::string>{"e1"}));
}

TEST(NodeIndex, CandidateCacheHitsUntilStructuralChange) {
  IndexFixture f;
  f.AddNode("e0", Layer::kEdge, security::SecurityLevel::kLow, false);
  f.AddNode("e1", Layer::kEdge, security::SecurityLevel::kLow, false);

  CandidateQuery q;
  q.restrict_cordoned = true;
  const NodeIndex::Stats start = f.index.stats();
  (void)f.index.Candidates(q);
  (void)f.index.Candidates(q);
  EXPECT_EQ(f.index.stats().cache_misses, start.cache_misses + 1);
  EXPECT_EQ(f.index.stats().cache_hits, start.cache_hits + 1);

  // Allocation churn is non-structural: the cache survives.
  f.index.AddAllocation(0, 1.0, 64);
  f.index.SubAllocation(0, 1.0, 64);
  (void)f.index.Candidates(q);
  EXPECT_EQ(f.index.stats().cache_misses, start.cache_misses + 1);
  EXPECT_EQ(f.index.stats().cache_hits, start.cache_hits + 2);

  // A structural mutation invalidates and forces a rebuild.
  const std::uint64_t invalidations = f.index.stats().invalidations;
  f.index.SetLabel(0, "zone", "a");
  EXPECT_EQ(f.index.stats().invalidations, invalidations + 1);
  (void)f.index.Candidates(q);
  EXPECT_EQ(f.index.stats().cache_misses, start.cache_misses + 2);
}

TEST(Cluster, BindBatchIsAdmittedThroughOneCandidateBuild) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  Cluster cluster(engine, Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());

  const NodeIndex::Stats start = cluster.index().stats();
  PodSpec pod;
  pod.cpu_request = 0.1;
  pod.mem_request_mb = 8;
  for (int i = 0; i < 8; ++i) {
    pod.name = "batch-" + std::to_string(i);
    ASSERT_TRUE(cluster.BindPod(pod).ok());
  }
  // Binds only touch the allocation ledger, so the whole same-shape batch
  // reuses one cached candidate set.
  EXPECT_EQ(cluster.index().stats().cache_misses, start.cache_misses + 1);
  EXPECT_GE(cluster.index().stats().cache_hits, start.cache_hits + 7);
}

// --- Indexed scheduler vs the full-scan oracle ------------------------------

class SchedDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SchedDifferential, VerdictsMatchUnderRandomFleetsAndChurn) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()), "sched-diff");
  sim::Engine engine;
  // An opaque filter that fences off every node for pods named "fenced-*".
  const std::vector<FilterFn> filters = {
      [](const PodSpec& pod, const NodeState&) -> std::optional<std::string> {
        if (pod.name.starts_with("fenced-")) return "fenced by opaque filter";
        return std::nullopt;
      }};
  Scheduler sched = Scheduler::Default();
  for (const FilterFn& f : filters) sched.AddFilter(f);
  Cluster cluster(engine, Scheduler::Default());
  std::vector<std::unique_ptr<ComputeNode>> nodes;
  std::vector<std::string> ids;
  static const char* kZones[] = {"a", "b", "c"};
  static const char* kLayers[] = {"edge", "fog", "cloud"};

  const std::size_t fleet = 24 + rng.NextBounded(24);
  for (std::size_t i = 0; i < fleet; ++i) {
    const std::string id = "n" + std::to_string(i);
    auto node = std::make_unique<ComputeNode>(
        engine, id, static_cast<Layer>(rng.NextBounded(3)), "test",
        static_cast<security::SecurityLevel>(rng.NextBounded(3)),
        256 + rng.NextBounded(2048));
    // Two operating points, so the churn below can move cpu capacity.
    node->AddDevice(Device(
        id + "/cpu", DeviceKind::kServerCpu,
        2 + static_cast<int>(rng.NextBounded(6)),
        {OperatingPoint{"base"},
         OperatingPoint{"boost", 1.5 + rng.Uniform(0.0, 1.0), 2000.0, 150.0,
                        1.0}}));
    if (rng.NextBool(0.3)) {
      node->AddDevice(Device(id + "/fpga", DeviceKind::kFpgaAccelerator, 1,
                             {OperatingPoint{"accel"}}));
    }
    cluster.AddNode(node.get(), {{"zone", kZones[rng.NextBounded(3)]}});
    nodes.push_back(std::move(node));
    ids.push_back(id);
  }

  int pod_tag = 0;
  auto compare = [&](const PodSpec& pod) {
    auto scan = oracle::ScanSchedule(filters, pod, cluster.NodeStates());
    auto indexed = sched.Schedule(pod, cluster.index());
    EXPECT_EQ(scan.ok(), indexed.ok()) << pod.name;
    if (scan.ok() && indexed.ok()) {
      EXPECT_EQ(scan->node_id, indexed->node_id) << pod.name;
      EXPECT_EQ(scan->score, indexed->score) << pod.name;
    } else if (!scan.ok() && !indexed.ok()) {
      // Same status, same per-node first-failing-filter reasons.
      EXPECT_EQ(scan.status().code(), indexed.status().code());
      EXPECT_EQ(scan.status().message(), indexed.status().message());
    }
    return scan.ok() ? std::string() : scan.status().message();
  };
  auto probe = [&]() {
    PodSpec pod;
    pod.name = "probe-" + std::to_string(pod_tag++);
    pod.cpu_request = rng.Uniform(0.1, 4.0);
    pod.mem_request_mb = 16 + rng.NextBounded(1024);
    if (rng.NextBool(0.3)) pod.needs_accelerator = true;
    if (rng.NextBool(0.4)) {
      pod.min_security =
          static_cast<security::SecurityLevel>(rng.NextBounded(3));
    }
    if (rng.NextBool(0.3)) pod.layer_affinity = kLayers[rng.NextBounded(3)];
    if (rng.NextBool(0.4)) pod.node_selector["zone"] = kZones[rng.NextBounded(3)];
    compare(pod);
  };

  // Probes no node admits, each built so that some node fails on one given
  // check; `target` is the text that check's reason must leave in the
  // oracle's message. Every probe but the opaque one carries a two-key
  // selector no node matches, so nodes passing the checks before it report
  // a selector mismatch, on the second key where the first matches.
  std::map<std::string, bool> hit;
  auto failing = [&](PodSpec pod, const std::string& target) {
    pod.name += "-" + std::to_string(pod_tag++);
    const std::string message = compare(pod);
    EXPECT_FALSE(message.empty()) << pod.name;
    hit[target] |= message.find(target) != std::string::npos;
  };
  auto failing_probes = [&]() {
    // One node down, one cordoned, one whose reflected memory exceeds its
    // capacity; the last two up, and the full one at its fastest operating
    // point so its cpu fits.
    const std::size_t k = rng.NextBounded(ids.size());
    const std::string& down = ids[k];
    const std::string& cordoned = ids[(k + 1) % ids.size()];
    const std::string& full = ids[(k + 2) % ids.size()];
    cluster.FindNodeState(down)->node->SetUp(false);
    cluster.FindNodeState(cordoned)->node->SetUp(true);
    cluster.Cordon(cordoned, true);
    NodeState* full_state = cluster.FindNodeState(full);
    full_state->node->SetUp(true);
    cluster.Cordon(full, false);
    ASSERT_TRUE(full_state->node->SetOperatingPoint(0, 1).ok());
    ASSERT_TRUE(cluster
                    .SetReflectedMemAllocation(
                        full, full_state->mem_capacity_mb() + 64)
                    .ok());

    PodSpec fenced;
    fenced.cpu_request = 0.0;
    fenced.mem_request_mb = 1;
    fenced.node_selector = {{"zone", kZones[rng.NextBounded(3)]},
                            {"zz", "none"}};
    PodSpec pod = fenced;
    pod.name = "fail-cpu";  // short on memory too: cpu is checked first
    pod.cpu_request = 1e6;
    pod.mem_request_mb = 1u << 30;
    failing(pod, ": insufficient cpu");
    pod = fenced;
    pod.name = "fail-memory";
    pod.mem_request_mb = 1u << 30;
    failing(pod, ": insufficient memory");
    pod = fenced;
    pod.name = "fail-overallocated";
    failing(pod, "; " + full + ": insufficient memory");
    pod = fenced;
    pod.name = "fail-security";  // no accelerator either on most nodes
    pod.min_security = security::SecurityLevel::kHigh;
    pod.needs_accelerator = true;
    failing(pod, ": security level too low");
    pod = fenced;
    pod.name = "fail-accelerator";
    pod.needs_accelerator = true;
    failing(pod, ": no accelerator");
    pod = fenced;
    pod.name = "fail-layer";
    pod.layer_affinity = kLayers[rng.NextBounded(3)];
    failing(pod, ": layer mismatch");
    pod = fenced;
    pod.name = "fail-down";
    failing(pod, "; " + down + ": node down");
    pod = fenced;
    pod.name = "fail-cordoned";
    failing(pod, "; " + cordoned + ": cordoned");
    pod = fenced;
    pod.name = "fail-selector";
    failing(pod, ": selector mismatch on zz");
    pod = fenced;
    pod.name = "fenced";
    pod.node_selector.clear();
    failing(pod, ": fenced by opaque filter");
  };

  for (int round = 0; round < 6; ++round) {
    for (int p = 0; p < 10; ++p) probe();
    failing_probes();
    for (int m = 0; m < 8; ++m) {
      const std::string& id = ids[rng.NextBounded(ids.size())];
      switch (rng.NextBounded(6)) {
        case 0: {  // real bind: allocation churn
          PodSpec pod;
          pod.name = "w-" + std::to_string(pod_tag++);
          pod.cpu_request = rng.Uniform(0.1, 2.0);
          pod.mem_request_mb = 16 + rng.NextBounded(256);
          // LINT: discard(churn bind; infeasible pods just stay pending)
          (void)cluster.BindPod(pod);
          break;
        }
        case 1:
          cluster.Cordon(id, rng.NextBool());
          break;
        case 2:
          ASSERT_TRUE(
              cluster.SetNodeLabel(id, "zone", kZones[rng.NextBounded(3)])
                  .ok());
          break;
        case 3:
          cluster.FindNodeState(id)->node->SetUp(rng.NextBool(0.8));
          break;
        case 4:  // capacity churn: the kernel must read it live
          ASSERT_TRUE(cluster.FindNodeState(id)
                          ->node->SetOperatingPoint(0, rng.NextBounded(2))
                          .ok());
          break;
        default:
          ASSERT_TRUE(cluster
                          .SetReflectedMemAllocation(
                              id, rng.NextBounded(4096))
                          .ok());
          break;
      }
    }
  }
  for (const auto& [target, seen] : hit) {
    EXPECT_TRUE(seen) << "no failing probe reported \"" << target << "\"";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedDifferential, ::testing::Range(1, 6));

TEST(SchedDifferential, OpaqueFiltersRunOnBothPaths) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  // Opaque filter: only node ids with an even digit sum pass. The indexed
  // path cannot prune on this; it must still apply it per candidate.
  const FilterFn even_digit_sum =
      [](const PodSpec&, const NodeState& n) -> std::optional<std::string> {
    int sum = 0;
    for (char c : n.node->id()) {
      if (c >= '0' && c <= '9') sum += c - '0';
    }
    if (sum % 2 != 0) return "odd digit sum";
    return std::nullopt;
  };
  Scheduler sched = Scheduler::Default();
  sched.AddFilter(even_digit_sum);
  Cluster cluster(engine, Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());

  util::Rng rng(7, "sched-diff-opaque");
  for (int i = 0; i < 30; ++i) {
    PodSpec pod;
    pod.name = "p" + std::to_string(i);
    pod.cpu_request = rng.Uniform(0.1, 2.0);
    pod.mem_request_mb = 16 + rng.NextBounded(512);
    if (rng.NextBool(0.3)) pod.needs_accelerator = true;
    auto scan =
        oracle::ScanSchedule({even_digit_sum}, pod, cluster.NodeStates());
    auto indexed = sched.Schedule(pod, cluster.index());
    ASSERT_EQ(scan.ok(), indexed.ok());
    if (scan.ok()) {
      EXPECT_EQ(scan->node_id, indexed->node_id);
      int sum = 0;
      for (char c : scan->node_id) {
        if (c >= '0' && c <= '9') sum += c - '0';
      }
      EXPECT_EQ(sum % 2, 0) << scan->node_id;
    } else {
      EXPECT_EQ(scan.status().message(), indexed.status().message());
    }
  }
}

TEST(SchedDifferential, ClusterPathsProduceIdenticalPlacements) {
  // Two identical worlds: one binds through the indexed BindPod, the other
  // through the oracle's scan (then BindPodToNode on its winner). Every pod
  // must land on the same node.
  sim::Engine engine_a;
  sim::Engine engine_b;
  continuum::Infrastructure infra_a =
      continuum::BuildInfrastructure(engine_a, {});
  continuum::Infrastructure infra_b =
      continuum::BuildInfrastructure(engine_b, {});
  Cluster indexed(engine_a, Scheduler::Default());
  Cluster scan(engine_b, Scheduler::Default());
  for (auto& n : infra_a.nodes) indexed.AddNode(n.get());
  for (auto& n : infra_b.nodes) scan.AddNode(n.get());

  util::Rng rng(11, "sched-diff-paths");
  for (int i = 0; i < 60; ++i) {
    PodSpec pod;
    pod.name = "p";
    pod.name += std::to_string(i);
    pod.cpu_request = rng.Uniform(0.1, 2.5);
    pod.mem_request_mb = 16 + rng.NextBounded(512);
    if (rng.NextBool(0.2)) pod.needs_accelerator = true;
    if (rng.NextBool(0.3)) {
      pod.min_security =
          static_cast<security::SecurityLevel>(rng.NextBounded(3));
    }
    auto a = indexed.BindPod(pod);
    auto b = oracle::ScanSchedule({}, pod, scan.NodeStates());
    ASSERT_EQ(a.ok(), b.ok()) << pod.name;
    if (a.ok()) {
      EXPECT_EQ(*a, b->node_id) << pod.name;
      auto placed = scan.BindPodToNode(pod, b->node_id);
      ASSERT_TRUE(placed.ok()) << placed.status();
    } else {
      EXPECT_EQ(a.status().message(), b.status().message()) << pod.name;
    }
  }
  EXPECT_EQ(indexed.RunningPods(), scan.RunningPods());
}

}  // namespace
}  // namespace myrtus::sched
