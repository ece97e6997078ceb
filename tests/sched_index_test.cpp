// NodeIndex internals (bitmaps, inverted indexes, ranked classes, the rank
// tree and its bounds) and the differential against the full-scan oracle: the
// indexed scheduler must produce the oracle's verdicts, scores and failure
// messages on randomized fleets, pods, same-shape batches, and churn.
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
#include "sched/rank_tree.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

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

// --- RankTree ----------------------------------------------------------------

TEST(RankTree, TopIsTheFirstGreatestKeyAndAbsentNeverWins) {
  RankTree tree;
  tree.Reset(5);
  EXPECT_FALSE(tree.Top().has_value());  // all absent
  for (std::size_t leaf = 0; leaf < 5; ++leaf) tree.SetKey(leaf, 0.25);
  tree.SetKey(3, 0.5);
  tree.Rebuild();
  EXPECT_EQ(tree.Top(), 3u);
  tree.Rekey(1, 0.5);  // tie with leaf 3: the lower leaf wins
  EXPECT_EQ(tree.Top(), 1u);
  tree.Rekey(1, RankTree::kAbsent);
  EXPECT_EQ(tree.Top(), 3u);
  tree.Rekey(4, 0.75);
  EXPECT_EQ(tree.Top(), 4u);
  for (std::size_t leaf = 0; leaf < 5; ++leaf) tree.Rekey(leaf, RankTree::kAbsent);
  EXPECT_FALSE(tree.Top().has_value());

  tree.Reset(1);
  EXPECT_FALSE(tree.Top().has_value());
  tree.Rekey(0, -0.5);
  EXPECT_EQ(tree.Top(), 0u);
  tree.Reset(0);
  EXPECT_FALSE(tree.Top().has_value());
}

TEST(RankTree, MatchesAnAscendingStrictScanUnderRandomRekeys) {
  util::Rng rng(3, "rank-tree");
  for (std::size_t n : {2u, 3u, 7u, 64u, 100u}) {
    RankTree tree;
    tree.Reset(n);
    std::vector<double> keys(n, RankTree::kAbsent);
    for (int step = 0; step < 400; ++step) {
      const std::size_t leaf = rng.NextBounded(n);
      // Few distinct keys, so ties are common.
      keys[leaf] = rng.NextBool(0.2)
                       ? RankTree::kAbsent
                       : 0.125 * static_cast<double>(rng.NextBounded(4));
      tree.Rekey(leaf, keys[leaf]);
      std::optional<std::uint32_t> best;
      double best_key = RankTree::kAbsent;
      for (std::size_t k = 0; k < n; ++k) {
        if (keys[k] > best_key) {
          best_key = keys[k];
          best = static_cast<std::uint32_t>(k);
        }
      }
      ASSERT_EQ(tree.Top(), best) << "n=" << n << " step=" << step;
    }
  }
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

TEST(NodeIndex, RankedClassSurvivesAllocationChurnUntilStructuralChange) {
  IndexFixture f;
  f.AddNode("e0", Layer::kEdge, security::SecurityLevel::kLow, false);
  f.AddNode("e1", Layer::kEdge, security::SecurityLevel::kLow, false);

  CandidateQuery q;
  q.restrict_cordoned = true;
  const NodeIndex::Stats start = f.index.stats();
  (void)f.index.Ranked(q, 1.0, 64);
  (void)f.index.Ranked(q, 1.0, 64);
  EXPECT_EQ(f.index.stats().rank_builds, start.rank_builds + 1);
  EXPECT_EQ(f.index.stats().rank_hits, start.rank_hits + 1);

  // Allocation churn is non-structural: the class survives.
  f.index.AddAllocation(0, 1.0, 64);
  f.index.SubAllocation(0, 1.0, 64);
  (void)f.index.Ranked(q, 1.0, 64);
  EXPECT_EQ(f.index.stats().rank_builds, start.rank_builds + 1);
  EXPECT_EQ(f.index.stats().rank_hits, start.rank_hits + 2);

  // A structural mutation drops the class and forces a rebuild.
  f.index.SetLabel(0, "zone", "a");
  EXPECT_EQ(f.index.ranked_classes(), 0u);
  (void)f.index.Ranked(q, 1.0, 64);
  EXPECT_EQ(f.index.stats().rank_builds, start.rank_builds + 2);
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
  // reuses one candidate set, ranked once and then kept current.
  EXPECT_EQ(cluster.index().stats().rank_builds, start.rank_builds + 1);
  EXPECT_EQ(cluster.index().stats().rank_hits, start.rank_hits + 7);
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
         OperatingPoint{"boost", 1.5 + rng.Uniform(0.0, 1.0),
                        util::MilliWatts(2000.0), util::MilliWatts(150.0),
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

// Same-shape batches: the ranked class of one pod shape stays cached across
// the batch's binds, so each placement replays only the slots that changed.
// Every kind of change that can move a score or a candidate set lands
// between the binds, most of them on the node the oracle would pick next,
// so a ranking that misses one picks a different node or reports a stale
// score. Twin nodes make exact score ties common; a zero-capacity node and
// zero-cpu pods cover the kernel's degenerate branch. A second and third
// Scheduler dry-run on the same index, so classes synced by one serve the
// others.
TEST_P(SchedDifferential, SameShapeBatchesMatchUnderInterleavedChurn) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()), "sched-diff-batch");
  sim::Engine engine;
  Cluster cluster(engine, Scheduler::Default());
  const Scheduler plain = Scheduler::Default();
  // Rejects nodes whose id ends in an even digit, for pods tagged "odd-".
  const std::vector<FilterFn> filters = {
      [](const PodSpec& pod, const NodeState& n) -> std::optional<std::string> {
        const char last = n.node->id().back();
        if (pod.name.starts_with("odd-") && last >= '0' && last <= '9' &&
            (last - '0') % 2 == 0) {
          return "even node";
        }
        return std::nullopt;
      }};
  Scheduler filtered = Scheduler::Default();
  for (const FilterFn& f : filters) filtered.AddFilter(f);

  std::vector<std::unique_ptr<ComputeNode>> nodes;
  std::vector<std::string> ids;
  static const char* kZones[] = {"a", "b"};
  auto add_node = [&](const std::string& id, Layer layer,
                      security::SecurityLevel level, std::uint64_t mem,
                      int units, double boost, const char* zone) {
    auto node = std::make_unique<ComputeNode>(engine, id, layer, "test", level,
                                              mem);
    node->AddDevice(Device(
        id + "/cpu", DeviceKind::kServerCpu, units,
        {OperatingPoint{"base"},
         OperatingPoint{"boost", boost, util::MilliWatts(2000.0),
                        util::MilliWatts(150.0), 1.0},
         OperatingPoint{"eco", 0.5, util::MilliWatts(500.0),
                        util::MilliWatts(50.0), 1.0}}));
    cluster.AddNode(node.get(), {{"zone", zone}});
    nodes.push_back(std::move(node));
    ids.push_back(id);
  };
  const std::size_t fleet = 12 + rng.NextBounded(12);
  for (std::size_t i = 0; i < fleet; ++i) {
    const auto layer = static_cast<Layer>(rng.NextBounded(3));
    const auto level = static_cast<security::SecurityLevel>(rng.NextBounded(3));
    const std::uint64_t mem = 512 + 256 * rng.NextBounded(4);
    const int units = 2 + static_cast<int>(rng.NextBounded(4));
    const double boost = 1.5 + 0.25 * static_cast<double>(rng.NextBounded(3));
    const char* zone = kZones[rng.NextBounded(2)];
    add_node("n" + std::to_string(i), layer, level, mem, units, boost, zone);
    if (rng.NextBool(0.4)) {  // an identical twin: exact score ties
      add_node("n" + std::to_string(i) + "t" + std::to_string(i % 10), layer,
               level, mem, units, boost, zone);
    }
  }
  {
    // No cpu at all: only zero-cpu pods fit, and its score is the balanced
    // term alone.
    auto zero = std::make_unique<ComputeNode>(engine, "z0", Layer::kEdge,
                                              "test",
                                              security::SecurityLevel::kHigh,
                                              1024);
    zero->AddDevice(Device("z0/cpu", DeviceKind::kServerCpu, 1,
                           {OperatingPoint{"off", 0.0, util::MilliWatts(),
                                           util::MilliWatts(), 1.0}}));
    cluster.AddNode(zero.get(), {{"zone", "a"}});
    nodes.push_back(std::move(zero));
    ids.push_back("z0");
  }

  const std::vector<FilterFn> none;
  auto compare = [&](const Scheduler& sched,
                     const std::vector<FilterFn>& chain, const PodSpec& pod) {
    auto scan = oracle::ScanSchedule(chain, pod, cluster.NodeStates());
    auto indexed = sched.Schedule(pod, cluster.index());
    EXPECT_EQ(scan.ok(), indexed.ok()) << pod.name;
    if (scan.ok() && indexed.ok()) {
      EXPECT_EQ(scan->node_id, indexed->node_id) << pod.name;
      EXPECT_EQ(scan->score, indexed->score) << pod.name;
    } else if (!scan.ok() && !indexed.ok()) {
      EXPECT_EQ(scan.status().message(), indexed.status().message())
          << pod.name;
    }
    return scan.ok() ? scan->node_id : std::string();
  };

  std::vector<std::string> bound;
  int tag = 0;
  std::size_t binds = 0;
  for (int batch = 0; batch < 8; ++batch) {
    PodSpec shape;
    shape.cpu_request = rng.NextBool(0.25) ? 0.0 : rng.Uniform(0.1, 1.0);
    shape.mem_request_mb = 16 + 16 * rng.NextBounded(8);
    if (rng.NextBool(0.3)) {
      shape.min_security =
          static_cast<security::SecurityLevel>(rng.NextBounded(3));
    }
    if (rng.NextBool(0.3)) shape.node_selector["zone"] = kZones[rng.NextBounded(2)];
    const std::size_t size = 20 + rng.NextBounded(31);
    for (std::size_t b = 0; b < size; ++b) {
      PodSpec pod = shape;
      pod.name = "b" + std::to_string(tag++);
      // The oracle's pick for this pod: most churn below lands on it.
      const std::string next = compare(plain, none, pod);
      const std::string& target =
          !next.empty() && rng.NextBool(0.7) ? next
                                             : ids[rng.NextBounded(ids.size())];
      NodeState* state = cluster.FindNodeState(target);
      switch (rng.NextBounded(12)) {
        case 0:
        case 1:
          ASSERT_TRUE(state->node
                          ->SetOperatingPoint(
                              0, rng.NextBounded(state->node->devices()[0]
                                                     .operating_points()
                                                     .size()))
                          .ok());
          break;
        case 2:
          state->node->SetUp(false);
          break;
        case 3:
          cluster.Cordon(target, true);
          break;
        case 4:
          ASSERT_TRUE(
              cluster.SetNodeLabel(target, "zone", kZones[rng.NextBounded(2)])
                  .ok());
          break;
        case 5:
          ASSERT_TRUE(cluster
                          .SetReflectedCpuAllocation(
                              target, rng.Uniform(0.0, state->cpu_capacity()))
                          .ok());
          break;
        case 6:
          // Anywhere up to capacity, also below what the node itself has
          // reserved: the cluster clamps the column at that reservation.
          ASSERT_TRUE(cluster
                          .SetReflectedMemAllocation(
                              target,
                              rng.NextBounded(state->mem_capacity_mb() + 1))
                          .ok());
          break;
        case 7:
          if (!bound.empty()) {
            const std::size_t k = rng.NextBounded(bound.size());
            ASSERT_TRUE(cluster.DeletePod(bound[k]).ok());
            bound.erase(bound.begin() + static_cast<std::ptrdiff_t>(k));
          }
          break;
        case 8: {  // what-if probes through the other schedulers
          PodSpec odd = pod;
          odd.name = "odd-" + pod.name;
          compare(filtered, filters, odd);
          auto dry = cluster.DryRunSchedule(pod);
          EXPECT_EQ(dry.ok() ? dry->node_id : std::string(), next) << pod.name;
          break;
        }
        default:  // a quiet gap, or a node coming back
          if (rng.NextBool(0.5)) {
            cluster.FindNodeState(ids[rng.NextBounded(ids.size())])
                ->node->SetUp(true);
            cluster.Cordon(ids[rng.NextBounded(ids.size())], false);
          }
          break;
      }
      const std::string expected = compare(plain, none, pod);
      auto placed = cluster.BindPod(pod);
      ASSERT_EQ(placed.ok(), !expected.empty()) << pod.name;
      if (placed.ok()) {
        EXPECT_EQ(*placed, expected) << pod.name;
        bound.push_back(pod.name);
        ++binds;
      }
    }
  }
  EXPECT_GE(binds, 100u);  // the batches did bind, not only fail
  EXPECT_LE(cluster.index().ranked_classes(), NodeIndex::kRankClasses);
}

TEST(SchedDifferential, ZeroCapacityNodeTakesOnlyZeroCpuPods) {
  sim::Engine engine;
  Cluster cluster(engine, Scheduler::Default());
  ComputeNode zero(engine, "z0", Layer::kEdge, "test",
                   security::SecurityLevel::kLow, 1024);
  zero.AddDevice(Device("z0/cpu", DeviceKind::kServerCpu, 1,
                        {OperatingPoint{"off", 0.0, util::MilliWatts(),
                                        util::MilliWatts(), 1.0},
                         OperatingPoint{"on"}}));
  cluster.AddNode(&zero);
  ASSERT_EQ(zero.CpuCapacity(), 0.0);
  const Scheduler sched = Scheduler::Default();
  auto compare = [&](const PodSpec& pod) {
    auto scan = oracle::ScanSchedule({}, pod, cluster.NodeStates());
    auto indexed = sched.Schedule(pod, cluster.index());
    EXPECT_EQ(scan.ok(), indexed.ok()) << pod.name;
    if (scan.ok() && indexed.ok()) {
      EXPECT_EQ(scan->score, indexed->score) << pod.name;
    } else if (!scan.ok() && !indexed.ok()) {
      EXPECT_EQ(scan.status().message(), indexed.status().message());
    }
    return scan.ok();
  };
  PodSpec idle;
  idle.name = "idle";
  idle.cpu_request = 0.0;
  idle.mem_request_mb = 256;
  PodSpec busy = idle;
  busy.name = "busy";
  busy.cpu_request = 0.5;
  for (int i = 0; i < 3; ++i) {
    idle.name = "idle-" + std::to_string(i);
    EXPECT_TRUE(compare(idle));
    EXPECT_FALSE(compare(busy));
    ASSERT_TRUE(cluster.BindPod(idle).ok());
  }
  // The node wakes up: now it has cpu, and the cached ranking must see it.
  ASSERT_TRUE(zero.SetOperatingPoint(0, 1).ok());
  EXPECT_TRUE(compare(busy));
  EXPECT_TRUE(compare(idle));
  ASSERT_TRUE(zero.SetOperatingPoint(0, 0).ok());
  EXPECT_FALSE(compare(busy));
  EXPECT_TRUE(compare(idle));
}

// The rank cache and its change log stay bounded however long the run: a
// long bind/delete churn over more pod shapes than the cache holds leaves at
// most kRankClasses classes and a log of at most twice the fleet (or 128).
TEST(SchedDifferential, RankCacheAndChangeLogStayBounded) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  Cluster cluster(engine, Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  const std::size_t log_cap = 2 * std::max<std::size_t>(64, infra.nodes.size());
  util::Rng rng(5, "sched-rank-bounded");
  for (int i = 0; i < 4000; ++i) {
    PodSpec pod;
    pod.name = "p" + std::to_string(i);
    pod.cpu_request = 0.01 * static_cast<double>(1 + rng.NextBounded(100));
    pod.mem_request_mb = 1 + rng.NextBounded(4);
    if (cluster.BindPod(pod).ok() && rng.NextBool(0.9)) {
      ASSERT_TRUE(cluster.DeletePod(pod.name).ok());
    }
    ASSERT_LE(cluster.index().ranked_classes(), NodeIndex::kRankClasses);
    ASSERT_LT(cluster.index().change_log_length(), log_cap);
  }
  EXPECT_EQ(cluster.index().ranked_classes(), NodeIndex::kRankClasses);
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
