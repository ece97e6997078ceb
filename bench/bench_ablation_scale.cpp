// Experiment A9: control-plane scale ablation. The indexed scheduler
// (NodeIndex bitmaps + candidate cache) exists so the MYRTUS control plane
// can admit continuum-scale pod fleets; this bench sweeps 1k -> 1M pods over
// up to 10k nodes and measures indexed admission throughput, the sampled
// full-scan throughput (the ablation baseline: the oracle's scan from
// tests/oracle/, every filter on every node), incremental-reconcile p99
// under node-failure churn, MAPE-iteration p99 on a loaded cluster, and RSS.
// Wall-clock numbers ride along ungated; the gates are the deterministic
// contracts: every pod places, the scan and the indexed scheduler return
// byte-identical verdicts (FNV witness), and indexed admission beats the
// scan by >= 10x at the reference scale point.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "continuum/infrastructure.hpp"
#include "kb/store.hpp"
#include "mirto/agent.hpp"
#include "net/transport.hpp"
#include "oracle/mape_oracle.hpp"
#include "oracle/sched_oracle.hpp"
#include "sched/controller.hpp"
#include "sched/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

using namespace myrtus;

namespace {

bool g_quick = false;

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double Percentile99(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      0.99 * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

/// "VmRSS:" / "VmHWM:" from /proc/self/status, in MB (0 when unavailable).
double ProcStatusMb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, std::strlen(key)) == 0) {
      kb = std::strtod(line + std::strlen(key), nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// --- Synthetic continuum fleet ----------------------------------------------
// Nodes are striped over zones (~100 nodes/zone) and every pod carries a zone
// selector: that is the realistic shape (placement is locality-scoped in the
// continuum) and what keeps indexed candidate sets small at 10k nodes.

struct World {
  sim::Engine engine;
  std::vector<std::unique_ptr<continuum::ComputeNode>> nodes;
  std::unique_ptr<sched::Cluster> cluster;
  std::size_t zones = 1;
};

World BuildWorld(std::size_t n_nodes) {
  World w;
  w.zones = std::max<std::size_t>(1, n_nodes / 100);
  w.cluster =
      std::make_unique<sched::Cluster>(w.engine, sched::Scheduler::Default());
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const std::string id = "n" + std::to_string(i);
    // Position *within the zone* drives layer/security/accelerator so every
    // zone contains the full mix (i % zones is the zone itself).
    const std::size_t pos = i / w.zones;
    auto node = std::make_unique<continuum::ComputeNode>(
        w.engine, id, static_cast<continuum::Layer>(pos % 3), "bench",
        static_cast<security::SecurityLevel>(pos % 3), 8192);
    node->AddDevice(continuum::Device(id + "/cpu",
                                      continuum::DeviceKind::kServerCpu, 32,
                                      {continuum::OperatingPoint{"base"}}));
    if (pos % 10 == 0) {
      node->AddDevice(
          continuum::Device(id + "/fpga",
                            continuum::DeviceKind::kFpgaAccelerator, 1,
                            {continuum::OperatingPoint{"accel"}}));
    }
    w.cluster->AddNode(node.get(),
                       {{"zone", "z" + std::to_string(i % w.zones)}});
    w.nodes.push_back(std::move(node));
  }
  return w;
}

sched::PodSpec MakePod(std::size_t i, std::size_t zones,
                       const std::string& name_prefix = "p") {
  sched::PodSpec pod;
  pod.name = name_prefix + std::to_string(i);
  pod.cpu_request = 0.2;
  pod.mem_request_mb = 24;
  pod.priority = static_cast<int>(i % 5);
  pod.node_selector["zone"] = "z" + std::to_string(i % zones);
  if (i % 7 == 0) pod.min_security = security::SecurityLevel::kMedium;
  if (i % 64 == 0) pod.needs_accelerator = true;
  return pod;
}

struct ScaleRow {
  std::size_t pods = 0;
  std::size_t nodes = 0;
  std::size_t failures = 0;
  double indexed_pods_per_s = 0.0;
  double scan_pods_per_s = 0.0;
  double speedup = 0.0;
  double reconcile_p99_ms = 0.0;
  double mape_p99_ms = 0.0;
  double rss_mb = 0.0;
  bool verdicts_match = true;
};

/// Differential witness: FNV checksum over the verdict (winner or failure
/// message) of `probes` dry-run pods, once per scheduler path.
bool VerdictsMatch(sched::Cluster& cluster, std::size_t zones,
                   std::size_t probes) {
  std::string indexed_buf;
  std::string scan_buf;
  for (std::size_t k = 0; k < probes; ++k) {
    // Vary the shape: reuse the pod generator plus an oversized outlier.
    sched::PodSpec pod = MakePod(k * 13 + 5, zones, "probe");
    if (k % 9 == 0) pod.cpu_request = 64.0;  // infeasible on purpose
    auto indexed = cluster.DryRunSchedule(pod);
    auto scanned = oracle::ScanSchedule({}, pod, cluster.NodeStates());
    indexed_buf += indexed.ok() ? indexed->node_id : indexed.status().message();
    indexed_buf.push_back('\n');
    scan_buf += scanned.ok() ? scanned->node_id : scanned.status().message();
    scan_buf.push_back('\n');
  }
  return util::Fnv1a64(indexed_buf) == util::Fnv1a64(scan_buf);
}

/// MAPE-iteration latency on a default infrastructure whose cluster carries
/// `n_pods` (tiny) pods — the monitoring/analysis side of the control plane.
double MapeP99Ms(std::size_t n_pods, std::size_t iterations) {
  sim::Engine engine;
  continuum::Infrastructure infra = continuum::BuildInfrastructure(engine, {});
  net::Topology topo = infra.topology;
  topo.AddBidirectional("mirto-agent", "gw-0", sim::SimTime::Micros(100), 1e9);
  net::Network net(engine, std::move(topo), 3);
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (auto& n : infra.nodes) cluster.AddNode(n.get());
  kb::Store store;
  mirto::AgentConfig config;
  config.host = "mirto-agent";
  mirto::MirtoAgent agent(net, cluster, infra, store,
                          mirto::AuthModule(util::BytesOf("bench")), config);
  for (std::size_t i = 0; i < n_pods; ++i) {
    sched::PodSpec pod;
    pod.name = "m" + std::to_string(i);
    pod.cpu_request = 0.01;
    pod.mem_request_mb = 1;
    if (!cluster.BindPod(pod).ok()) break;  // fleet is small; fill what fits
  }
  std::vector<double> samples;
  samples.reserve(iterations);
  for (std::size_t it = 0; it < iterations; ++it) {
    const auto t0 = std::chrono::steady_clock::now();
    agent.RunMapeIteration();
    samples.push_back(MillisSince(t0));
  }
  return Percentile99(samples);
}

// --- MAPE churn ablation -----------------------------------------------------
// Twin worlds replay the same scripted ~1%-of-fleet node churn. In the first,
// the full-walk MAPE oracle (tests/oracle/) recomputes each iteration's
// outcome from public state by walking every node before the MIRTO agent
// runs it; "full" times that walk, and the FNV witness compares the oracle's
// expected snapshot with the agent's outcome after every iteration (registry
// NodeRecords, SLO engine state, published /slo verdicts, trust scores,
// planned operating-point decisions). In the second world the agent runs
// alone and "incremental" times its event-driven iteration (change-epoch
// dirty sets): timed next to the oracle, the agent would pay for the cache
// the oracle's walk and snapshots evict. The worlds run sequentially, which
// halves peak RSS and cannot skew the comparison because the churn script is
// drawn once up front. Churn is bounces/wiggles/submissions rather than
// sustained outages: a down node with pods would trigger Reconcile in
// Execute, agent-side work that is already timed separately by
// reconcile_p99 and would only mask the Monitor/Analyze/Plan delta this
// ablation isolates.

struct ChurnOp {
  std::size_t node = 0;
  int action = 0;  // 0 up/down bounce, 1 memory wiggle, 2 task submission
  std::uint64_t cycles = 0;
};

std::vector<std::vector<ChurnOp>> MakeChurnScript(std::size_t n_nodes,
                                                  std::size_t iterations) {
  util::Rng rng(13, "mape-churn-ablation");
  std::vector<std::vector<ChurnOp>> script(iterations);
  const std::size_t per_iter = std::max<std::size_t>(1, n_nodes / 100);
  for (auto& ops : script) {
    ops.reserve(per_iter);
    for (std::size_t k = 0; k < per_iter; ++k) {
      ChurnOp op;
      op.node = static_cast<std::size_t>(rng.NextBounded(n_nodes));
      op.action = static_cast<int>(rng.NextBounded(3));
      op.cycles = 1'000'000 + rng.NextBounded(20'000'000);
      ops.push_back(op);
    }
  }
  return script;
}

struct MapeChurnResult {
  double p99_ms = 0.0;  // the oracle's walk, or the agent's iteration alone
  bool outcomes_match = false;
  bool agent_exercised = false;
};

MapeChurnResult RunMapeChurnWorld(
    std::size_t n_pods, std::size_t n_nodes, bool with_oracle,
    const std::vector<std::vector<ChurnOp>>& script) {
  MapeChurnResult result;
  sim::Engine engine;
  continuum::Infrastructure infra;
  const std::size_t zones = std::max<std::size_t>(1, n_nodes / 100);
  sched::Cluster cluster(engine, sched::Scheduler::Default());
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const std::string id = "n" + std::to_string(i);
    const std::size_t pos = i / zones;
    auto node = std::make_unique<continuum::ComputeNode>(
        engine, id, static_cast<continuum::Layer>(pos % 3), "bench",
        static_cast<security::SecurityLevel>(pos % 3), 8192);
    node->AddDevice(continuum::Device(id + "/cpu",
                                      continuum::DeviceKind::kServerCpu, 32,
                                      {continuum::OperatingPoint{"base"}}));
    cluster.AddNode(node.get(), {{"zone", "z" + std::to_string(i % zones)}});
    infra.nodes.push_back(std::move(node));
  }
  // The agent only uses the network for RPC registration and the sim clock;
  // a two-host topology is all the wiring it needs.
  net::Topology topo;
  topo.AddBidirectional("mirto-agent", "hub", sim::SimTime::Micros(100), 1e9);
  net::Network net(engine, std::move(topo), 3);
  kb::Store store;
  mirto::AgentConfig config;
  config.host = "mirto-agent";
  mirto::MirtoAgent agent(net, cluster, infra, store,
                          mirto::AuthModule(util::BytesOf("bench")), config);
  std::optional<oracle::MapeOracle> reference;
  if (with_oracle) reference.emplace(agent, cluster, infra, store, engine);
  for (std::size_t i = 0; i < n_pods; ++i) {
    sched::PodSpec pod = MakePod(i, zones, "m");
    if (!cluster.BindPod(pod).ok()) break;
  }

  std::vector<double> samples;
  samples.reserve(script.size());
  std::string expected_digests;
  std::string agent_digests;
  for (const auto& ops : script) {
    for (const ChurnOp& op : ops) {
      continuum::ComputeNode& node = *infra.nodes[op.node];
      if (op.action == 0) {
        node.SetUp(false);
        node.SetUp(true);
      } else if (op.action == 1) {
        if (node.ReserveMemory(8).ok()) node.ReleaseMemory(8);
      } else {
        continuum::TaskDemand demand;
        demand.cycles = op.cycles;
        node.Submit(demand, nullptr);
      }
    }
    engine.RunUntil(engine.Now() + sim::SimTime::Millis(100));
    const auto t0 = std::chrono::steady_clock::now();
    if (!reference) {
      agent.RunMapeIteration();
      samples.push_back(MillisSince(t0));
      continue;
    }
    reference->Expect();
    samples.push_back(MillisSince(t0));
    agent.RunMapeIteration();
    expected_digests +=
        std::to_string(util::Fnv1a64(reference->ExpectedSnapshot()));
    expected_digests.push_back('\n');
    agent_digests += std::to_string(util::Fnv1a64(reference->AgentSnapshot()));
    agent_digests.push_back('\n');
  }
  result.p99_ms = Percentile99(std::move(samples));
  if (reference) {
    result.outcomes_match =
        util::Fnv1a64(expected_digests) == util::Fnv1a64(agent_digests);
    // The witness must not be vacuous: the agent has to have observed
    // strictly fewer nodes than the oracle walked, or the equivalence never
    // covered the event-driven monitor path at all.
    result.agent_exercised =
        agent.stats().nodes_observed < reference->nodes_walked();
  }
  return result;
}

struct MapeAblation {
  std::size_t pods = 0;
  std::size_t nodes = 0;
  double full_p99_ms = 0.0;
  double incremental_p99_ms = 0.0;
  double speedup = 0.0;
  bool outcomes_match = false;
  bool incremental_exercised = false;
};

MapeAblation RunMapeChurnAblation(std::size_t n_pods, std::size_t n_nodes) {
  MapeAblation result;
  result.pods = n_pods;
  result.nodes = n_nodes;
  const auto script = MakeChurnScript(n_nodes, g_quick ? 12 : 40);
  const MapeChurnResult full =
      RunMapeChurnWorld(n_pods, n_nodes, /*with_oracle=*/true, script);
  const MapeChurnResult incremental =
      RunMapeChurnWorld(n_pods, n_nodes, /*with_oracle=*/false, script);
  result.full_p99_ms = full.p99_ms;
  result.incremental_p99_ms = incremental.p99_ms;
  result.speedup = incremental.p99_ms > 0
                       ? full.p99_ms / incremental.p99_ms
                       : 0.0;
  result.outcomes_match = full.outcomes_match;
  result.incremental_exercised = full.agent_exercised;
  return result;
}

ScaleRow RunScalePoint(std::size_t n_pods) {
  ScaleRow row;
  row.pods = n_pods;
  row.nodes = std::min<std::size_t>(
      10000, std::max<std::size_t>(100, n_pods / 100));
  World w = BuildWorld(row.nodes);

  // Indexed bulk admission.
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_pods; ++i) {
    if (!w.cluster->BindPod(MakePod(i, w.zones)).ok()) ++row.failures;
  }
  const double indexed_ms = MillisSince(t0);
  row.indexed_pods_per_s =
      indexed_ms > 0 ? 1000.0 * static_cast<double>(n_pods) / indexed_ms : 0.0;
  row.rss_mb = ProcStatusMb("VmRSS:");

  // Full-scan sample on the same loaded fleet (the ablation baseline): the
  // oracle's scan picks the node, BindPodToNode commits it.
  const std::size_t scan_n = std::min<std::size_t>(n_pods, 500);
  const auto t1 = std::chrono::steady_clock::now();
  for (std::size_t j = 0; j < scan_n; ++j) {
    const sched::PodSpec pod = MakePod(n_pods + j, w.zones, "s");
    auto chosen = oracle::ScanSchedule({}, pod, w.cluster->NodeStates());
    if (!chosen.ok() || !w.cluster->BindPodToNode(pod, chosen->node_id).ok()) {
      ++row.failures;
    }
  }
  const double scan_ms = MillisSince(t1);
  row.scan_pods_per_s =
      scan_ms > 0 ? 1000.0 * static_cast<double>(scan_n) / scan_ms : 0.0;
  row.speedup = row.scan_pods_per_s > 0
                    ? row.indexed_pods_per_s / row.scan_pods_per_s
                    : 0.0;

  // Verdict differential witness.
  row.verdicts_match =
      VerdictsMatch(*w.cluster, w.zones, g_quick ? 200 : 500);

  // Incremental reconcile under node-failure churn: each pass kills one node
  // (evicting ~100 pods that must rebind) and times the Reconcile sweep.
  std::vector<double> reconcile_ms;
  const std::size_t passes = g_quick ? 20 : 60;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    continuum::ComputeNode* victim = w.nodes[pass % w.nodes.size()].get();
    victim->SetUp(false);
    const auto tr = std::chrono::steady_clock::now();
    w.cluster->Reconcile();
    reconcile_ms.push_back(MillisSince(tr));
    victim->SetUp(true);
  }
  row.reconcile_p99_ms = Percentile99(reconcile_ms);

  row.mape_p99_ms =
      MapeP99Ms(std::min<std::size_t>(n_pods / 10, 1000), g_quick ? 10 : 40);
  return row;
}

bool RunAblation(const std::string& out_path) {
  bench::Report report("A9_scale_ablation", "scale");
  report.set_mode(g_quick ? "quick" : "full");
  report.set_seed(13);
  // Quick mode drops only the 1M point: the 100k point stays so the speedup
  // gate is evaluated at the same reference scale in both modes (the scan
  // path is only meaningfully slow on 1000+ node fleets).
  const std::vector<std::size_t> scales =
      g_quick ? std::vector<std::size_t>{1'000, 10'000, 100'000}
              : std::vector<std::size_t>{1'000, 10'000, 100'000, 1'000'000};
  const std::size_t gate_scale = 100'000;

  std::printf(
      "=== A9: control-plane scale — indexed vs scan admission (%s mode) "
      "===\n",
      g_quick ? "quick" : "full");
  std::printf("%-9s | %-6s | %-12s | %-12s | %-8s | %-12s | %-10s | %-8s | %s\n",
              "pods", "nodes", "indexed p/s", "scan p/s", "speedup",
              "reconcile99", "mape99", "rss MB", "verdicts");

  util::Json rows = util::Json::MakeArray();
  bool all_placed = true;
  bool all_verdicts_match = true;
  double gate_speedup = 0.0;
  double top_scale_rss_mb = 0.0;
  std::size_t top_scale_nodes = 0;
  for (const std::size_t n_pods : scales) {
    const ScaleRow row = RunScalePoint(n_pods);
    all_placed = all_placed && row.failures == 0;
    all_verdicts_match = all_verdicts_match && row.verdicts_match;
    if (n_pods == gate_scale) gate_speedup = row.speedup;
    if (n_pods == scales.back()) {
      top_scale_rss_mb = row.rss_mb;
      top_scale_nodes = row.nodes;
    }
    std::printf(
        "%-9zu | %-6zu | %-12.0f | %-12.0f | %-8.1f | %-9.3f ms | %-7.3f ms "
        "| %-8.1f | %s\n",
        row.pods, row.nodes, row.indexed_pods_per_s, row.scan_pods_per_s,
        row.speedup, row.reconcile_p99_ms, row.mape_p99_ms, row.rss_mb,
        row.verdicts_match ? "match" : "MISMATCH");
    rows.Append(util::Json::MakeObject()
                    .Set("pods", static_cast<std::int64_t>(row.pods))
                    .Set("nodes", static_cast<std::int64_t>(row.nodes))
                    .Set("failures", static_cast<std::int64_t>(row.failures))
                    .Set("indexed_pods_per_s", row.indexed_pods_per_s)
                    .Set("scan_pods_per_s", row.scan_pods_per_s)
                    .Set("speedup", row.speedup)
                    .Set("reconcile_p99_ms", row.reconcile_p99_ms)
                    .Set("mape_p99_ms", row.mape_p99_ms)
                    .Set("rss_mb", row.rss_mb));
    const std::string tag = std::to_string(n_pods);
    report.AddMetric("indexed_pods_per_s_" + tag, row.indexed_pods_per_s,
                     "pods/s", /*higher_is_better=*/true, /*gate=*/false);
    report.AddMetric("reconcile_p99_ms_" + tag, row.reconcile_p99_ms, "ms",
                     /*higher_is_better=*/false, /*gate=*/false);
    report.AddMetric("mape_p99_ms_" + tag, row.mape_p99_ms, "ms",
                     /*higher_is_better=*/false, /*gate=*/false);
  }

  // MAPE churn ablation at the largest scale of this run: the oracle's
  // full walk vs. the agent's event-driven Monitor/Analyze/Plan under ~1%
  // node churn per iteration.
  const MapeAblation mape =
      RunMapeChurnAblation(scales.back(), top_scale_nodes);
  std::printf(
      "--- MAPE churn ablation: %zu pods / %zu nodes, 1%% churn ---\n"
      "full (oracle) p99 %.3f ms | incremental (agent) p99 %.3f ms | "
      "speedup %.1fx | %s\n",
      mape.pods, mape.nodes, mape.full_p99_ms, mape.incremental_p99_ms,
      mape.speedup, mape.outcomes_match ? "outcomes match" : "MISMATCH");

  // Gates: deterministic contracts only (wall-clock rates ride along above),
  // plus the two scale regressions CI tracks against the committed baseline:
  // incremental MAPE p99 and RSS at the largest scale point.
  report.AddMetric("all_pods_placed", all_placed ? 1.0 : 0.0, "bool",
                   /*higher_is_better=*/true);
  report.AddMetric("verdict_equivalence", all_verdicts_match ? 1.0 : 0.0,
                   "bool", /*higher_is_better=*/true);
  const bool speedup_ok = gate_speedup >= 10.0;
  report.AddMetric("indexed_speedup_ge_10x", speedup_ok ? 1.0 : 0.0, "bool",
                   /*higher_is_better=*/true);
  report.AddMetric("indexed_speedup_at_gate_scale", gate_speedup, "x",
                   /*higher_is_better=*/true, /*gate=*/false);
  report.AddMetric("peak_rss_mb", ProcStatusMb("VmHWM:"), "MB",
                   /*higher_is_better=*/false, /*gate=*/false);
  const bool mape_speedup_ok = mape.speedup >= 10.0;
  const bool mape_equivalent =
      mape.outcomes_match && mape.incremental_exercised;
  report.AddMetric("mape_p99_full_ms", mape.full_p99_ms, "ms",
                   /*higher_is_better=*/false, /*gate=*/false);
  report.AddMetric("mape_p99_incremental_ms", mape.incremental_p99_ms, "ms",
                   /*higher_is_better=*/false);
  report.AddMetric("mape_churn_speedup", mape.speedup, "x",
                   /*higher_is_better=*/true, /*gate=*/false);
  report.AddMetric("mape_speedup_ge_10x", mape_speedup_ok ? 1.0 : 0.0, "bool",
                   /*higher_is_better=*/true);
  report.AddMetric("mape_outcome_equivalence", mape_equivalent ? 1.0 : 0.0,
                   "bool", /*higher_is_better=*/true);
  report.AddMetric("rss_mb", top_scale_rss_mb, "MB",
                   /*higher_is_better=*/false);
  report.SetExtra("rows", std::move(rows));
  report.SetExtra("gate_scale_pods",
                  util::Json(static_cast<std::int64_t>(gate_scale)));
  report.SetExtra("mape_churn_pods",
                  util::Json(static_cast<std::int64_t>(mape.pods)));
  report.SetExtra("mape_churn_nodes",
                  util::Json(static_cast<std::int64_t>(mape.nodes)));
  util::MustOk(report.Write(out_path));

  if (!all_placed) {
    std::printf("FATAL: some pods failed to place on a fleet sized to fit "
                "them — capacity accounting or candidate selection is off\n");
  }
  if (!all_verdicts_match) {
    std::printf("FATAL: indexed and scan verdicts diverged — the "
                "verdict-equivalence contract is broken\n");
  }
  if (!speedup_ok) {
    std::printf("FATAL: indexed admission is only %.1fx the scan at %zu pods "
                "(>= 10x required)\n",
                gate_speedup, gate_scale);
  }
  if (!mape_speedup_ok) {
    std::printf("FATAL: incremental MAPE is only %.1fx the oracle's full walk "
                "at %zu "
                "pods / %zu nodes (>= 10x required)\n",
                mape.speedup, mape.pods, mape.nodes);
  }
  if (!mape.outcomes_match) {
    std::printf("FATAL: the agent's MAPE outcome diverged from the full-walk "
                "oracle's expectation — the equivalence contract is broken\n");
  }
  if (!mape.incremental_exercised) {
    std::printf("FATAL: the MAPE equivalence witness is vacuous — the "
                "agent observed as many nodes as the oracle walked, so the "
                "event-driven monitor path was never covered\n");
  }
  return all_placed && all_verdicts_match && speedup_ok && mape_speedup_ok &&
         mape_equivalent;
}

// --- Microbenchmarks ---------------------------------------------------------

void BM_DryRunScheduleIndexed(benchmark::State& state) {
  World w = BuildWorld(static_cast<std::size_t>(state.range(0)));
  const sched::PodSpec pod = MakePod(1, w.zones);
  for (auto _ : state) {
    auto result = w.cluster->DryRunSchedule(pod);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DryRunScheduleIndexed)->Arg(100)->Arg(1000);

void BM_ScheduleScan(benchmark::State& state) {
  World w = BuildWorld(static_cast<std::size_t>(state.range(0)));
  const sched::PodSpec pod = MakePod(1, w.zones);
  const std::vector<sched::NodeState*> states = w.cluster->NodeStates();
  for (auto _ : state) {
    auto result = oracle::ScanSchedule({}, pod, states);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ScheduleScan)->Arg(100)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  g_quick = bench::StripFlag(argc, argv, "--quick");
  const std::string out_path =
      bench::StripValueFlag(argc, argv, "--out=", "BENCH_scale.json");
  const bool ok = RunAblation(out_path);
  if (!ok) return 1;  // CI gate: scale/equivalence contract violation
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
