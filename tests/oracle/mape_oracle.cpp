#include "oracle/mape_oracle.hpp"

#include <cmath>
#include <iterator>

#include "kb/registry.hpp"
#include "util/json.hpp"

namespace myrtus::oracle {

namespace {

std::string RenderSlo(const telemetry::SloStatus* s) {
  if (s == nullptr) return "absent";
  return util::Json::MakeObject()
      .Set("state", std::string(telemetry::SloStateName(s->state)))
      .Set("fast", s->fast_burn_rate)
      .Set("slow", s->slow_burn_rate)
      .Set("observations", s->observations)
      .Set("bad", s->bad)
      .Set("breaches", s->breaches)
      .Dump();
}

std::string RenderDecision(const mirto::NodeManager::Decision& d) {
  return "->" + std::to_string(d.operating_point);
}

std::string RenderOutcome(
    const std::map<std::pair<std::string, std::string>, std::string>& outcome) {
  std::string out;
  for (const auto& [key, value] : outcome) {
    out += key.first;
    out += '|';
    out += key.second;
    out += ' ';
    out += value;
    out += '\n';
  }
  return out;
}

}  // namespace

std::string FormatDivergences(const std::vector<Divergence>& divergences) {
  std::string out;
  for (const Divergence& d : divergences) {
    out += d.node_id.empty() ? "(fleet)" : d.node_id;
    out += ' ';
    out += d.aspect;
    out += "\n  expected: ";
    out += d.expected;
    out += "\n  actual:   ";
    out += d.actual;
    out += '\n';
  }
  return out;
}

MapeOracle::MapeOracle(mirto::MirtoAgent& agent, sched::Cluster& cluster,
                       continuum::Infrastructure& infra, kb::Store& kb_store,
                       sim::Engine& engine)
    : agent_(agent),
      cluster_(cluster),
      infra_(infra),
      kb_(kb_store),
      engine_(engine),
      objectives_(mirto::DefaultAgentSlos()) {
  for (const telemetry::SloObjective& objective : objectives_) {
    util::MustOk(slo_.AddObjective(objective));
  }
  // The agent writes one workload record per pod right after deploying it
  // and deletes it on undeploy; the store notifies synchronously, so the
  // sim clock at the event is the deployment time.
  const std::string prefix = kb::ResourceRegistry::WorkloadKey("");
  workload_watch_ = kb_.Watch(prefix, [this, prefix](const kb::WatchEvent& e) {
    const std::string pod = e.kv.key.substr(prefix.size());
    if (e.type == kb::WatchEvent::Type::kPut) {
      tracked_pods_[pod] = engine_.Now().ns;
    } else {
      tracked_pods_.erase(pod);
    }
  });
}

MapeOracle::~MapeOracle() { kb_.CancelWatch(workload_watch_); }

void MapeOracle::Expect() {
  const std::int64_t now_ns = engine_.Now().ns;
  const std::uint64_t iteration = agent_.stats().mape_iterations + 1;
  expected_.clear();
  // Monitor + Analyze trust + Plan, one pass over the whole fleet.
  for (const auto& node : infra_.nodes) {
    ++nodes_walked_;
    const std::string& id = node->id();
    const bool up = node->up();
    slo_.RecordAvailability("fleet.availability", up, now_ns);
    psm_.RecordOutcome(id, up, iteration);
    kb::NodeRecord record;
    record.node_id = id;
    record.layer = std::string(continuum::LayerName(node->layer()));
    record.kind = node->kind();
    record.ready = up;
    record.cpu_capacity = node->CpuCapacity();
    record.mem_capacity_mb = node->mem_capacity_mb();
    record.mem_allocated_mb = node->mem_allocated_mb();
    record.security_level = static_cast<int>(node->security_level());
    if (const sched::NodeState* state = cluster_.FindNodeState(id)) {
      record.cpu_allocated = state->cpu_allocated();
      record.has_accelerator = state->HasAccelerator();
    }
    record.energy_mj = node->total_energy();
    // Monitor writes the record before Analyze; Execute writes a transition
    // Analyze made, so the record ends the iteration with the new state.
    record.trust = psm_.StateOf(psm_.Slot(id));
    expected_[{id, "record"}] = record.ToJson().Dump();
    const std::string trust = util::Json(psm_.TrustOf(id)).Dump();
    expected_[{id, "trust"}] = trust;
    expected_[{id, "trust/memory"}] = trust;
    if (!up) continue;
    for (const mirto::NodeManager::Decision& d :
         node_manager_.PlanNode(*node)) {
      if (d.changed) {
        expected_[{id, "plan/" + std::to_string(d.device_index)}] =
            RenderDecision(d);
      }
    }
  }
  ObservePodStartWaits(now_ns);
  slo_.Evaluate(now_ns);
  ExpectSloVerdicts(now_ns);
}

void MapeOracle::ObservePodStartWaits(std::int64_t now_ns) {
  // A bound pod reports its deploy-to-bind wait once and is forgotten; a
  // pending pod reports its growing age every pass; a deleted pod is
  // dropped silently.
  for (auto it = tracked_pods_.begin(); it != tracked_pods_.end();) {
    const sched::PodView pod = cluster_.FindPod(it->first);
    if (!pod.valid()) {
      it = tracked_pods_.erase(it);
      continue;
    }
    const bool bound = pod.bound_at_ns() >= 0;
    const std::int64_t until_ns = bound ? pod.bound_at_ns() : now_ns;
    slo_.RecordLatencyMs("pod.start_wait",
                         static_cast<double>(until_ns - it->second) / 1e6,
                         now_ns);
    it = bound ? tracked_pods_.erase(it) : std::next(it);
  }
}

void MapeOracle::ExpectSloVerdicts(std::int64_t now_ns) {
  // The agent republishes a verdict only when the state or breach count
  // changes or a burn rate crosses a kSloPublishQuantum bucket.
  for (const telemetry::SloObjective& objective : objectives_) {
    const telemetry::SloStatus* s = slo_.Find(objective.name);
    expected_[{"", "slo/" + objective.name}] = RenderSlo(s);
    Published next;
    next.state = s->state;
    next.breaches = s->breaches;
    next.fast_bucket = static_cast<std::int64_t>(
        std::floor(s->fast_burn_rate / mirto::kSloPublishQuantum));
    next.slow_bucket = static_cast<std::int64_t>(
        std::floor(s->slow_burn_rate / mirto::kSloPublishQuantum));
    const auto last = published_.find(objective.name);
    if (last == published_.end() || last->second.state != next.state ||
        last->second.breaches != next.breaches ||
        last->second.fast_bucket != next.fast_bucket ||
        last->second.slow_bucket != next.slow_bucket) {
      next.verdict =
          util::Json::MakeObject()
              .Set("state", std::string(telemetry::SloStateName(s->state)))
              .Set("fast_burn_rate", s->fast_burn_rate)
              .Set("slow_burn_rate", s->slow_burn_rate)
              .Set("breaches", s->breaches)
              .Set("at_ns", now_ns)
              .Dump();
      published_[objective.name] = next;
    }
    expected_[{"", "verdict/" + objective.name}] =
        published_.at(objective.name).verdict;
  }
}

MapeOracle::Outcome MapeOracle::AgentOutcome() const {
  Outcome actual;
  for (const auto& node : infra_.nodes) {
    const std::string& id = node->id();
    auto record = agent_.registry().GetNode(id);
    actual[{id, "record"}] =
        record.ok() ? record->ToJson().Dump() : "absent";
    actual[{id, "trust"}] =
        record.ok()
            ? util::Json(kb::TrustAt(*record, agent_.stats().mape_iterations))
                  .Dump()
            : "absent";
    actual[{id, "trust/memory"}] =
        util::Json(agent_.security_manager().TrustOf(id)).Dump();
  }
  for (const mirto::NodeManager::Decision& d : agent_.planned_decisions()) {
    actual[{d.node_id, "plan/" + std::to_string(d.device_index)}] =
        RenderDecision(d);
  }
  for (const telemetry::SloObjective& objective : objectives_) {
    actual[{"", "slo/" + objective.name}] =
        RenderSlo(agent_.slo_engine().Find(objective.name));
    auto verdict = agent_.registry().GetSloState(agent_.host(), objective.name);
    actual[{"", "verdict/" + objective.name}] =
        verdict.ok() ? verdict->Dump() : "absent";
  }
  return actual;
}

std::vector<Divergence> MapeOracle::Compare() const {
  const Outcome actual = AgentOutcome();
  std::vector<Divergence> out;
  auto e = expected_.begin();
  auto a = actual.begin();
  while (e != expected_.end() || a != actual.end()) {
    if (a == actual.end() || (e != expected_.end() && e->first < a->first)) {
      out.push_back({e->first.first, e->first.second, e->second, "absent"});
      ++e;
    } else if (e == expected_.end() || a->first < e->first) {
      out.push_back({a->first.first, a->first.second, "absent", a->second});
      ++a;
    } else {
      if (e->second != a->second) {
        out.push_back({e->first.first, e->first.second, e->second, a->second});
      }
      ++e;
      ++a;
    }
  }
  return out;
}

std::string MapeOracle::ExpectedSnapshot() const {
  return RenderOutcome(expected_);
}

std::string MapeOracle::AgentSnapshot() const {
  return RenderOutcome(AgentOutcome());
}

}  // namespace myrtus::oracle
