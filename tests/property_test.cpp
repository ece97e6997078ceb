// Property-based and chaos tests: invariants that must hold under randomized
// inputs/schedules — Raft safety under crash churn, serialization
// roundtrips on random documents, scheduler resource-accounting invariants,
// deterministic simulation, and crypto roundtrips under random fragmentation.
#include <gtest/gtest.h>

#include "kb/cluster.hpp"
#include "oracle/sched_oracle.hpp"
#include "security/gcm.hpp"
#include "security/sha2.hpp"
#include "sched/controller.hpp"
#include "continuum/infrastructure.hpp"
#include "swarm/placement.hpp"
#include "telemetry/span.hpp"
#include "tosca/yaml.hpp"
#include "usecases/scenario.hpp"

#include <cmath>
#include <deque>

namespace myrtus {
namespace {

using sim::SimTime;

// --- Random document generators ---------------------------------------------

util::Json RandomJson(util::Rng& rng, int depth) {
  const std::uint64_t kind = rng.NextBounded(depth <= 0 ? 5 : 7);
  switch (kind) {
    case 0: return util::Json(nullptr);
    case 1: return util::Json(rng.NextBool());
    case 2: return util::Json(static_cast<std::int64_t>(rng.NextU64() >> 16) -
                              (std::int64_t{1} << 46));
    case 3: return util::Json(rng.Uniform(-1e6, 1e6));
    case 4: {
      std::string s;
      const std::uint64_t len = rng.NextBounded(12);
      for (std::uint64_t i = 0; i < len; ++i) {
        // Printable ASCII plus the escapes that matter.
        static const char kChars[] =
            "abcXYZ019 _-/.:#\"\\\n\t{}[],'";
        s.push_back(kChars[rng.NextBounded(sizeof(kChars) - 1)]);
      }
      return util::Json(std::move(s));
    }
    case 5: {
      util::Json arr = util::Json::MakeArray();
      const std::uint64_t n = rng.NextBounded(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        arr.Append(RandomJson(rng, depth - 1));
      }
      return arr;
    }
    default: {
      util::Json obj = util::Json::MakeObject();
      const std::uint64_t n = rng.NextBounded(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        obj.Set("k" + std::to_string(rng.NextBounded(8)), RandomJson(rng, depth - 1));
      }
      return obj;
    }
  }
}

class JsonRoundtripProperty : public ::testing::TestWithParam<int> {};

TEST_P(JsonRoundtripProperty, DumpParseIsIdentity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()), "json-prop");
  for (int i = 0; i < 50; ++i) {
    const util::Json doc = RandomJson(rng, 4);
    auto parsed = util::Json::Parse(doc.Dump());
    ASSERT_TRUE(parsed.ok()) << doc.Dump() << " -> " << parsed.status();
    EXPECT_EQ(*parsed, doc) << doc.Dump();
    auto pretty = util::Json::Parse(doc.Pretty());
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(*pretty, doc);
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundtripProperty, ::testing::Range(1, 6));

/// YAML cannot represent every JSON string scalar unambiguously, so the YAML
/// property uses a restricted generator (no exotic characters in keys).
util::Json RandomYamlFriendly(util::Rng& rng, int depth) {
  const std::uint64_t kind = rng.NextBounded(depth <= 0 ? 4 : 6);
  switch (kind) {
    case 0: return util::Json(rng.NextBool());
    case 1: return util::Json(static_cast<std::int64_t>(rng.NextBounded(100000)) - 50000);
    case 2: return util::Json(std::round(rng.Uniform(-1000, 1000) * 4.0) / 4.0);
    case 3: {
      static const char* kWords[] = {"edge", "fog node", "x:y", "42abc",
                                     "true-ish", "a#b", "", "hello world"};
      return util::Json(std::string(kWords[rng.NextBounded(8)]));
    }
    case 4: {
      util::Json arr = util::Json::MakeArray();
      const std::uint64_t n = 1 + rng.NextBounded(3);
      for (std::uint64_t i = 0; i < n; ++i) {
        arr.Append(RandomYamlFriendly(rng, depth - 1));
      }
      return arr;
    }
    default: {
      util::Json obj = util::Json::MakeObject();
      const std::uint64_t n = 1 + rng.NextBounded(3);
      for (std::uint64_t i = 0; i < n; ++i) {
        obj.Set("key" + std::to_string(rng.NextBounded(6)),
                RandomYamlFriendly(rng, depth - 1));
      }
      return obj;
    }
  }
}

class YamlRoundtripProperty : public ::testing::TestWithParam<int> {};

TEST_P(YamlRoundtripProperty, EmitParseIsIdentity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()), "yaml-prop");
  for (int i = 0; i < 40; ++i) {
    // Top level must be a mapping (like every TOSCA document).
    util::Json doc = util::Json::MakeObject();
    const std::uint64_t n = 1 + rng.NextBounded(4);
    for (std::uint64_t k = 0; k < n; ++k) {
      doc.Set("top" + std::to_string(k), RandomYamlFriendly(rng, 3));
    }
    const std::string yaml = tosca::EmitYaml(doc);
    auto parsed = tosca::ParseYaml(yaml);
    ASSERT_TRUE(parsed.ok()) << yaml << "\n" << parsed.status();
    EXPECT_EQ(*parsed, doc) << yaml;
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, YamlRoundtripProperty, ::testing::Range(1, 6));

// --- Crypto under random fragmentation ------------------------------------------

class CryptoFragmentProperty : public ::testing::TestWithParam<int> {};

TEST_P(CryptoFragmentProperty, ShaIncrementalEqualsOneShotAnySplit) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()), "sha-prop");
  for (int trial = 0; trial < 20; ++trial) {
    util::Bytes msg(rng.NextBounded(700));
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.NextU64());
    security::Sha256 inc;
    std::size_t pos = 0;
    while (pos < msg.size()) {
      const std::size_t chunk =
          1 + rng.NextBounded(std::min<std::uint64_t>(97, msg.size() - pos));
      inc.Update(msg.data() + pos, chunk);
      pos += chunk;
    }
    EXPECT_EQ(inc.Final(), security::Sha256::Digest(msg));
  }
}

TEST_P(CryptoFragmentProperty, GcmRoundtripRandomSizes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()), "gcm-prop");
  for (int trial = 0; trial < 15; ++trial) {
    util::Bytes key(rng.NextBool() ? 16 : 32);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.NextU64());
    util::Bytes nonce(12);
    for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.NextU64());
    util::Bytes aad(rng.NextBounded(40));
    for (auto& b : aad) b = static_cast<std::uint8_t>(rng.NextU64());
    util::Bytes pt(rng.NextBounded(500));
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.NextU64());

    auto sealed = security::AesGcmSeal(key, nonce, aad, pt);
    ASSERT_TRUE(sealed.ok());
    auto opened = security::AesGcmOpen(key, nonce, aad, *sealed);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, pt);
    // One random bit flip anywhere must break authentication.
    if (!sealed->empty()) {
      util::Bytes tampered = *sealed;
      tampered[rng.NextBounded(tampered.size())] ^=
          static_cast<std::uint8_t>(1u << rng.NextBounded(8));
      EXPECT_FALSE(security::AesGcmOpen(key, nonce, aad, tampered).ok());
    }
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, CryptoFragmentProperty, ::testing::Range(1, 5));

// --- Scheduler accounting invariants ----------------------------------------------

TEST(SchedulerProperty, NeverOvercommitsUnderRandomChurn) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());

  util::Rng rng(123, "sched-prop");
  std::vector<std::string> live;
  for (int op = 0; op < 800; ++op) {
    if (live.empty() || rng.NextBool(0.6)) {
      sched::PodSpec pod;
      pod.name = "p";
      pod.name += std::to_string(op);
      pod.cpu_request = rng.Uniform(0.1, 3.0);
      pod.mem_request_mb = 16 + rng.NextBounded(512);
      pod.priority = static_cast<int>(rng.NextBounded(5));
      if (rng.NextBool(0.2)) pod.needs_accelerator = true;
      if (rng.NextBool(0.3)) {
        pod.min_security = static_cast<security::SecurityLevel>(rng.NextBounded(3));
      }
      auto bound = rng.NextBool(0.3) ? cluster.BindPodWithPreemption(pod)
                                     : cluster.BindPod(pod);
      if (bound.ok()) {
        live.push_back(pod.name);
      } else {
        // LINT: discard(cleanup of a pod that may never have bound)
        (void)cluster.DeletePod(pod.name);
      }
    } else {
      const std::size_t victim = rng.NextBounded(live.size());
      EXPECT_TRUE(cluster.DeletePod(live[victim]).ok());
      live.erase(live.begin() + static_cast<long>(victim));
    }
    // Invariants after every operation.
    for (sched::NodeState* ns : cluster.NodeStates()) {
      EXPECT_LE(ns->cpu_allocated(), ns->cpu_capacity() + 1e-9)
          << ns->node->id();
      EXPECT_LE(ns->mem_allocated_mb(), ns->mem_capacity_mb())
          << ns->node->id();
      EXPECT_GE(ns->cpu_allocated(), -1e-9);
      // Cross-check allocation against the actual pod set.
      double cpu_sum = 0;
      for (const sched::PodView& p : cluster.PodsOnNode(ns->node->id())) {
        cpu_sum += p.spec().cpu_request;
        // Hard constraints hold for every running pod.
        EXPECT_TRUE(security::Satisfies(ns->node->security_level(),
                                        p.spec().min_security));
        if (p.spec().needs_accelerator) {
          EXPECT_TRUE(ns->HasAccelerator());
        }
      }
      EXPECT_NEAR(cpu_sum, ns->cpu_allocated(), 1e-6) << ns->node->id();
    }
  }
}

TEST(SchedulerProperty, ReconcileIsIdempotent) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  sched::Deployment dep;
  dep.name = "svc";
  dep.pod_template.cpu_request = 0.3;
  dep.replicas = 5;
  cluster.ApplyDeployment(dep);
  const std::size_t running = cluster.RunningPods();
  const auto evictions = cluster.evictions();
  for (int i = 0; i < 10; ++i) cluster.Reconcile();
  EXPECT_EQ(cluster.RunningPods(), running);
  EXPECT_EQ(cluster.evictions(), evictions);
}

class SchedLedgerProperty : public ::testing::TestWithParam<int> {};

// Random bind/evict/delete/preempt/cordon/fail/reconcile sequences: the
// scheduler ledger and the ComputeNode memory ledger must stay equal, free
// resources must never wrap negative, and the indexed scheduler must agree
// with the full-scan oracle on every probe verdict.
TEST_P(SchedLedgerProperty, LedgersAndVerdictsStayConsistentUnderChurn) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());

  util::Rng rng(static_cast<std::uint64_t>(GetParam()), "sched-ledger");
  std::vector<std::string> live;
  for (int op = 0; op < 300; ++op) {
    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
      case 2: {  // bind (sometimes with preemption)
        sched::PodSpec pod;
        pod.name = "p" + std::to_string(op);
        pod.cpu_request = rng.Uniform(0.1, 3.0);
        pod.mem_request_mb = 16 + rng.NextBounded(512);
        pod.priority = static_cast<int>(rng.NextBounded(5));
        if (rng.NextBool(0.2)) pod.needs_accelerator = true;
        auto bound = rng.NextBool(0.3) ? cluster.BindPodWithPreemption(pod)
                                       : cluster.BindPod(pod);
        if (bound.ok()) {
          live.push_back(pod.name);
        } else {
          // LINT: discard(cleanup of a pod that may never have bound)
          (void)cluster.DeletePod(pod.name);
        }
        break;
      }
      case 3: {  // delete — and the stale PodId must not resurrect
        if (live.empty()) break;
        const std::size_t victim = rng.NextBounded(live.size());
        const sched::PodView doomed = cluster.FindPod(live[victim]);
        ASSERT_TRUE(doomed.valid());
        const sched::PodId stale = doomed.id();
        EXPECT_TRUE(cluster.DeletePod(live[victim]).ok());
        EXPECT_FALSE(cluster.PodById(stale).valid())
            << "generation bump must invalidate " << live[victim];
        live.erase(live.begin() + static_cast<long>(victim));
        break;
      }
      case 4: {  // cordon toggle
        auto states = cluster.NodeStates();
        sched::NodeState* ns = states[rng.NextBounded(states.size())];
        cluster.Cordon(ns->node->id(), rng.NextBool());
        break;
      }
      case 5: {  // node failure / recovery + reconcile sweeps the fallout
        auto states = cluster.NodeStates();
        sched::NodeState* ns = states[rng.NextBounded(states.size())];
        ns->node->SetUp(rng.NextBool(0.7));
        cluster.Reconcile();
        // Reconcile may have rebound or evicted; rebuild the live list.
        std::vector<std::string> still;
        for (const std::string& name : live) {
          const sched::PodView p = cluster.FindPod(name);
          if (p && p.phase() == sched::PodPhase::kRunning) {
            still.push_back(name);
          } else if (p) {
            EXPECT_TRUE(cluster.DeletePod(name).ok());
          }
        }
        live = std::move(still);
        break;
      }
      case 6: {  // reflected allocation overwrite (peering)
        auto states = cluster.NodeStates();
        sched::NodeState* ns = states[rng.NextBounded(states.size())];
        // Reflection can legally exceed capacity; frees must clamp, not wrap.
        EXPECT_TRUE(cluster
                        .SetReflectedCpuAllocation(
                            ns->node->id(), rng.Uniform(0.0, 4.0))
                        .ok());
        break;
      }
      default:
        cluster.Reconcile();
        break;
    }

    // Invariant: ledger equality and clamped frees on every node.
    for (sched::NodeState* ns : cluster.NodeStates()) {
      EXPECT_EQ(ns->mem_allocated_mb(), ns->node->mem_allocated_mb())
          << ns->node->id() << " after op " << op;
      EXPECT_LE(ns->MemFreeMb(), ns->mem_capacity_mb()) << ns->node->id();
      EXPECT_GE(ns->cpu_allocated(), -1e-9) << ns->node->id();
    }

    // Invariant: pod-ledger counters are exact. Every pod this test created
    // is either in `live` (bound-failures are deleted on the spot), so the
    // running/pending tallies must reconcile against per-pod phases, and the
    // per-node rosters must cover exactly the running pods.
    std::size_t running = 0;
    std::size_t pending = 0;
    for (const std::string& name : live) {
      const sched::PodView p = cluster.FindPod(name);
      ASSERT_TRUE(p.valid()) << name << " after op " << op;
      EXPECT_EQ(cluster.PodById(p.id()).name(), name) << "handle round-trip";
      if (p.phase() == sched::PodPhase::kRunning) {
        ++running;
      } else {
        ++pending;
      }
    }
    EXPECT_EQ(cluster.RunningPods(), running) << "op " << op;
    EXPECT_EQ(cluster.PendingPods(), pending) << "op " << op;
    std::size_t on_nodes = 0;
    for (sched::NodeState* ns : cluster.NodeStates()) {
      on_nodes += cluster.PodsOnNode(ns->node->id()).size();
    }
    EXPECT_EQ(on_nodes, cluster.RunningPods()) << "op " << op;

    // Invariant: the scheduler and the oracle agree on a random probe.
    sched::PodSpec probe;
    probe.name = "probe";
    probe.cpu_request = rng.Uniform(0.1, 3.0);
    probe.mem_request_mb = 16 + rng.NextBounded(512);
    if (rng.NextBool(0.2)) probe.needs_accelerator = true;
    auto indexed = cluster.DryRunSchedule(probe);
    auto scanned = oracle::ScanSchedule({}, probe, cluster.NodeStates());
    ASSERT_EQ(indexed.ok(), scanned.ok()) << "op " << op;
    if (indexed.ok()) {
      EXPECT_EQ(indexed->node_id, scanned->node_id) << "op " << op;
    } else {
      EXPECT_EQ(indexed.status().message(), scanned.status().message());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedLedgerProperty, ::testing::Range(1, 5));

// --- Placement solver properties ----------------------------------------------------

class PlacementSolverProperty : public ::testing::TestWithParam<int> {};

TEST_P(PlacementSolverProperty, SolversRespectHardConstraintsWhenFeasible) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()), "place-prop");
  swarm::PlacementProblem p;
  const std::size_t tasks = 4 + rng.NextBounded(8);
  for (std::size_t i = 0; i < tasks; ++i) {
    p.tasks.push_back({rng.Uniform(0.1, 1.0), rng.Uniform(16, 128),
                       static_cast<int>(rng.NextBounded(3)), rng.NextBool(0.3),
                       rng.Uniform(0, 100)});
  }
  // Feasible by construction: a universal node always exists.
  p.nodes.push_back({"universal", 100.0, 1e6, 2, true, 500, 10});
  for (int i = 0; i < 4; ++i) {
    p.nodes.push_back({"n" + std::to_string(i), rng.Uniform(1, 8),
                       rng.Uniform(256, 4096), static_cast<int>(rng.NextBounded(3)),
                       rng.NextBool(0.5), rng.Uniform(100, 900),
                       rng.Uniform(1, 30)});
  }
  util::Rng r1(1), r2(2);
  for (const auto& solution :
       {swarm::SolveGreedy(p), swarm::SolvePso(p, r1, 24, 30),
        swarm::SolveAco(p, r2, 16, 20)}) {
    ASSERT_TRUE(p.Feasible(solution.assignment));
    for (std::size_t t = 0; t < p.tasks.size(); ++t) {
      const auto& node = p.nodes[static_cast<std::size_t>(solution.assignment[t])];
      EXPECT_GE(node.security_level, p.tasks[t].min_security);
      if (p.tasks[t].needs_accelerator) {
        EXPECT_TRUE(node.has_accelerator);
      }
    }
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, PlacementSolverProperty, ::testing::Range(1, 8));

// --- Deterministic simulation --------------------------------------------------------

TEST(DeterminismProperty, IdenticalSeedsGiveIdenticalTraces) {
  const auto run = [](std::uint64_t seed) {
    sim::Engine engine;
    continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
    net::Network network(engine, infra.topology, seed);
    sched::Cluster cluster(engine, sched::Scheduler::Default());
    for (auto& n : infra.nodes) cluster.AddNode(n.get());
    usecases::Scenario scenario = usecases::SmartMobilityScenario();
    util::MustOk(usecases::DeployScenario(scenario, cluster, seed));
    usecases::RequestPipeline pipeline(network, infra, cluster, scenario);
    pipeline.StartStream(SimTime::Seconds(2), seed);
    engine.RunUntil(SimTime::Seconds(5));
    return std::make_tuple(pipeline.kpis().completed,
                           pipeline.kpis().latency_ms.mean(),
                           pipeline.kpis().compute_energy_mj,
                           network.bytes_sent());
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(std::get<3>(run(99)), std::get<3>(run(100)));
}

// --- Raft chaos -----------------------------------------------------------------------

class RaftChaosProperty : public ::testing::TestWithParam<int> {};

TEST_P(RaftChaosProperty, AcknowledgedWritesSurviveCrashChurn) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  sim::Engine engine;
  net::Topology topo;
  std::vector<net::HostId> hosts = {"kb-0", "kb-1", "kb-2", "kb-3", "kb-4"};
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = i + 1; j < hosts.size(); ++j) {
      topo.AddBidirectional(hosts[i], hosts[j], SimTime::Millis(2), 1e9);
    }
  }
  for (const auto& h : hosts) {
    topo.AddBidirectional("client", h, SimTime::Millis(2), 1e9);
  }
  net::Network network(engine, std::move(topo), seed);
  kb::KbCluster cluster(network, hosts, seed);
  cluster.Start();
  engine.RunUntil(SimTime::Seconds(2));

  kb::KbClient client(network, cluster, "client");
  util::Rng chaos(seed, "chaos");
  std::set<std::string> acked;
  int issued = 0;

  // Random crash/recover churn, never exceeding a minority down.
  std::set<std::size_t> down;
  for (int round = 0; round < 12; ++round) {
    // Issue a few writes.
    for (int w = 0; w < 3; ++w) {
      const std::string key = "/chaos/" + std::to_string(issued++);
      client.Put(key, util::Json(round), [&acked, key](util::Status s) {
        if (s.ok()) acked.insert(key);
      });
    }
    // Maybe crash one (if minority stays), maybe recover one.
    if (down.size() < 2 && chaos.NextBool(0.5)) {
      std::size_t victim = chaos.NextBounded(hosts.size());
      if (down.count(victim) == 0) {
        cluster.Crash(victim);
        down.insert(victim);
      }
    }
    if (!down.empty() && chaos.NextBool(0.4)) {
      const std::size_t back = *down.begin();
      cluster.Recover(back);
      down.erase(down.begin());
    }
    engine.RunUntil(engine.Now() + SimTime::Millis(1500));
  }
  // Recover everyone and settle.
  for (const std::size_t i : down) cluster.Recover(i);
  engine.RunUntil(engine.Now() + SimTime::Seconds(10));

  EXPECT_GT(acked.size(), 0u) << "chaos schedule prevented every write";
  // Every acknowledged write is present on every replica, identically.
  for (const std::string& key : acked) {
    for (std::size_t r = 0; r < hosts.size(); ++r) {
      auto kv = cluster.replica(r).store->Get(key);
      EXPECT_TRUE(kv.ok()) << key << " missing on replica " << r;
    }
  }
  // All replicas converge to the same revision count for the chaos prefix.
  const std::size_t reference = cluster.replica(0).store->Range("/chaos/").size();
  for (std::size_t r = 1; r < hosts.size(); ++r) {
    EXPECT_EQ(cluster.replica(r).store->Range("/chaos/").size(), reference);
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, RaftChaosProperty, ::testing::Values(1, 2, 3, 7, 13));

// --- Span ring invariants ---------------------------------------------------

/// Under random interleavings of span starts and ends at random (monotone)
/// sim timestamps, with random capacity restarts, the tracer's span ring never
/// exceeds its capacity, retained + dropped == ended holds after every step,
/// and the ring iterates oldest first in end order: exactly the newest spans
/// ended since the last restart, as a bounded model queue keeps them.
class SpanRingProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpanRingProperty, BoundedAndInEndOrder) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()), "span-ring-prop");
  telemetry::Tracer tracer;
  tracer.set_span_capacity(1 + rng.NextBounded(64));
  std::vector<telemetry::SpanContext> open;
  std::deque<std::uint64_t> model;  // span ids the ring must hold, oldest first
  std::uint64_t ended = 0;
  std::int64_t now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += static_cast<std::int64_t>(rng.NextBounded(1000));  // may repeat
    if (open.empty() || rng.NextBool(0.5)) {
      const telemetry::SpanContext parent =
          open.empty() || rng.NextBool(0.3) ? telemetry::SpanContext{}
                                            : open[rng.NextBounded(open.size())];
      open.push_back(tracer.StartSpan("s" + std::to_string(rng.NextBounded(8)),
                                      "prop", parent, now));
    } else {
      const std::size_t k = rng.NextBounded(open.size());
      tracer.EndSpan(open[k], now);
      model.push_back(open[k].span_id);
      if (model.size() > tracer.finished().capacity()) model.pop_front();
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
      ++ended;
    }
    if (rng.NextBool(0.01)) {  // occasional live resize restarts the ring
      tracer.set_span_capacity(1 + rng.NextBounded(64));
      model.clear();
    }

    const telemetry::SpanRing& ring = tracer.finished();
    ASSERT_LE(ring.size(), ring.capacity());
    ASSERT_EQ(ring.size() + tracer.dropped_spans(), ended);
    ASSERT_EQ(ring.size(), model.size());
    std::size_t j = 0;
    std::int64_t last_end = 0;
    for (const telemetry::SpanRecord& span : ring) {
      ASSERT_EQ(span.span_id, model[j]) << "step " << i << ", slot " << j;
      ASSERT_GE(span.end_ns, last_end) << "end order violated at " << j;
      last_end = span.end_ns;
      ++j;
    }
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, SpanRingProperty,
                         ::testing::Values(1, 2, 3, 11, 29));

}  // namespace
}  // namespace myrtus
