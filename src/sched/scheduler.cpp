#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hpp"

namespace myrtus::sched {
namespace {

// Score weights: least-allocated counts double the balanced score.
constexpr double kLeastAllocatedWeight = 1.0;
constexpr double kBalancedWeight = 0.5;

// The capacity checks, shared by the candidate loop and the failure walk.
// Cpu capacity is read live (operating points change it at runtime); the
// arithmetic is NodeState::CpuFree() and MemFreeMb()'s.
bool CpuShort(const PodSpec& pod, const NodeIndex& index, std::uint32_t slot) {
  return index.node(slot)->CpuCapacity() - index.cpu_allocated(slot) <
         pod.cpu_request;
}
bool MemShort(const PodSpec& pod, const NodeIndex& index, std::uint32_t slot) {
  return util::SubSat(index.mem_capacity_mb(slot),
                      index.mem_allocated_mb(slot)) < pod.mem_request_mb;
}

// Least-allocated and balanced, each in [0,1], higher is better, combined as
// ((0 + 1.0 * least) + 0.5 * balanced) / 1.5: verdicts compare scores for
// exact equality, so that operation order is part of the contract.
double ScoreSlot(const PodSpec& pod, const NodeIndex& index,
                 std::uint32_t slot) {
  const double cap = index.node(slot)->CpuCapacity();
  const double cpu_allocated = index.cpu_allocated(slot);
  const double least =
      cap <= 0 ? 0.0 : std::max(0.0, (cap - cpu_allocated) / cap);
  const double cpu_frac =
      (cpu_allocated + pod.cpu_request) / std::max(1e-9, cap);
  const double mem_frac =
      static_cast<double>(index.mem_allocated_mb(slot) + pod.mem_request_mb) /
      std::max<double>(1.0,
                       static_cast<double>(index.mem_capacity_mb(slot)));
  const double balanced = 1.0 - std::fabs(cpu_frac - mem_frac);
  return (0.0 + kLeastAllocatedWeight * least + kBalancedWeight * balanced) /
         (kLeastAllocatedWeight + kBalancedWeight);
}

}  // namespace

std::string_view PodPhaseName(PodPhase phase) {
  switch (phase) {
    case PodPhase::kPending: return "pending";
    case PodPhase::kBound: return "bound";
    case PodPhase::kRunning: return "running";
    case PodPhase::kSucceeded: return "succeeded";
    case PodPhase::kFailed: return "failed";
    case PodPhase::kEvicted: return "evicted";
  }
  return "?";
}

util::Json PodSpec::ToJson() const {
  util::Json selector = util::Json::MakeObject();
  for (const auto& [k, v] : node_selector) selector.Set(k, v);
  return util::Json::MakeObject()
      .Set("name", name)
      .Set("cpu_request", cpu_request)
      .Set("mem_request_mb", mem_request_mb)
      .Set("min_security",
           std::string(security::SecurityLevelName(min_security)))
      .Set("needs_accelerator", needs_accelerator)
      .Set("priority", priority)
      .Set("layer_affinity", layer_affinity)
      .Set("node_selector", std::move(selector))
      .Set("expected_load", expected_load);
}

PodSpec PodSpec::FromJson(const util::Json& j) {
  PodSpec s;
  s.name = j.at("name").as_string();
  s.cpu_request = j.at("cpu_request").as_double(0.5);
  s.mem_request_mb = static_cast<std::uint64_t>(j.at("mem_request_mb").as_int(128));
  if (auto lvl = security::ParseSecurityLevel(j.at("min_security").as_string());
      lvl.ok()) {
    s.min_security = *lvl;
  }
  s.needs_accelerator = j.at("needs_accelerator").as_bool();
  s.priority = static_cast<int>(j.at("priority").as_int());
  s.layer_affinity = j.at("layer_affinity").as_string();
  for (const auto& [k, v] : j.at("node_selector").fields()) {
    s.node_selector[k] = v.as_string();
  }
  s.expected_load = j.at("expected_load").as_double();
  return s;
}

util::StatusOr<ScheduleResult> Scheduler::Schedule(
    const PodSpec& pod, const NodeIndex& index) const {
  telemetry::ScopedSpan span("sched.schedule", "sched");
  span.SetAttribute("pod", pod.name);

  // The structural filters as one candidate query; liveness, capacity and
  // the opaque filters are checked per candidate below.
  CandidateQuery query;
  query.restrict_cordoned = true;
  query.restrict_security = true;
  query.min_security = pod.min_security;
  query.restrict_accelerator = pod.needs_accelerator;
  if (!pod.layer_affinity.empty()) query.layer = &pod.layer_affinity;
  if (!pod.node_selector.empty()) query.selector = &pod.node_selector;

  const Bitmap& candidates = index.Candidates(query);
  const continuum::ComputeNode* best = nullptr;
  double best_score = -1.0;
  std::uint64_t considered = 0;
  candidates.ForEachSet([&](std::size_t candidate) {
    const auto slot = static_cast<std::uint32_t>(candidate);
    ++considered;
    const continuum::ComputeNode& node = *index.node(slot);
    if (!node.up() || CpuShort(pod, index, slot) ||
        MemShort(pod, index, slot)) {
      return;
    }
    for (const FilterFn& filter : filters_) {
      if (filter(pod, index.at(slot))) return;
    }
    const double score = ScoreSlot(pod, index, slot);
    if (score > best_score) {
      best_score = score;
      best = &node;
    }
  });

  if (telemetry::Enabled()) {
    span.SetAttribute("candidates", std::to_string(considered));
    telemetry::Global().metrics.Add(
        "myrtus_sched_attempts_total", 1.0,
        {{"result", best == nullptr ? "exhausted" : "placed"}});
  }
  if (best == nullptr) {
    // The failure walk is a span of its own, nested in this one.
    telemetry::ScopedSpan walk("sched.explain", "sched");
    walk.SetAttribute("pod", pod.name);
    std::string message = "no feasible node for pod " + pod.name;
    for (std::uint32_t slot = 0; slot < index.size(); ++slot) {
      AppendRejection(pod, index, slot, message);
    }
    return util::Status::ResourceExhausted(std::move(message));
  }
  ScheduleResult result;
  result.node_id = best->id();
  result.score = best_score;
  result.nodes_considered = considered;
  span.SetAttribute("node", result.node_id);
  return result;
}

void Scheduler::AppendRejection(const PodSpec& pod, const NodeIndex& index,
                                std::uint32_t slot, std::string& out) const {
  const continuum::ComputeNode& node = *index.node(slot);
  const auto reject = [&](std::string_view reason) {
    out += "; ";
    out += node.id();
    out += ": ";
    out += reason;
  };
  if (!node.up()) return reject("node down");
  if (index.cordoned(slot)) return reject("cordoned");
  if (CpuShort(pod, index, slot)) return reject("insufficient cpu");
  if (MemShort(pod, index, slot)) return reject("insufficient memory");
  if (!security::Satisfies(node.security_level(), pod.min_security)) {
    return reject("security level too low");
  }
  if (pod.needs_accelerator && !index.has_accelerator(slot)) {
    return reject("no accelerator");
  }
  if (!pod.layer_affinity.empty() &&
      pod.layer_affinity != continuum::LayerName(node.layer())) {
    return reject("layer mismatch");
  }
  const auto& labels = index.labels(slot);
  for (const auto& [key, value] : pod.node_selector) {
    const auto it = labels.find(key);
    if (it == labels.end() || it->second != value) {
      reject("selector mismatch on ");
      out += key;
      return;
    }
  }
  for (const FilterFn& filter : filters_) {
    if (const auto reason = filter(pod, index.at(slot))) {
      return reject(*reason);
    }
  }
}

}  // namespace myrtus::sched
