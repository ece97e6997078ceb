#include "sched/scheduler.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace myrtus::sched {

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

  // The structural filters as one candidate query; the index ranks its
  // candidates by liveness, capacity and score for this pod shape.
  CandidateQuery query;
  query.restrict_cordoned = true;
  query.restrict_security = true;
  query.min_security = pod.min_security;
  query.restrict_accelerator = pod.needs_accelerator;
  if (!pod.layer_affinity.empty()) query.layer = &pod.layer_affinity;
  if (!pod.node_selector.empty()) query.selector = &pod.node_selector;

  // The index ranks the candidates for this pod shape; the opaque filters
  // are tried in rank order, and a rejected candidate leaves the ranking
  // until this call returns.
  RankedCandidates& ranked =
      index.Ranked(query, pod.cpu_request, pod.mem_request_mb);
  std::optional<RankedCandidates::Pick> best = ranked.Best();
  if (!filters_.empty()) {
    const auto rejected = [&](std::uint32_t slot) {
      return std::any_of(filters_.begin(), filters_.end(),
                         [&](const FilterFn& filter) {
                           return filter(pod, index.at(slot)).has_value();
                         });
    };
    while (best && rejected(best->slot)) {
      ranked.ExcludeBest();
      best = ranked.Best();
    }
    ranked.RestoreExcluded();
  }

  if (telemetry::Enabled()) {
    span.SetAttribute("candidates", std::to_string(ranked.size()));
    telemetry::Global().metrics.Add(
        "myrtus_sched_attempts_total", 1.0,
        {{"result", best ? "placed" : "exhausted"}});
  }
  if (!best) {
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
  result.node_id = index.node(best->slot)->id();
  result.score = best->score;
  result.nodes_considered = ranked.size();
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
  if (index.CpuShort(slot, pod.cpu_request)) return reject("insufficient cpu");
  if (index.MemShort(slot, pod.mem_request_mb)) {
    return reject("insufficient memory");
  }
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
