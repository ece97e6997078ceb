#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hpp"

namespace myrtus::sched {
namespace {

// Rejection reason strings, shared by the filter plugins and the indexed
// path's residual checks so both paths report byte-identical reasons.
constexpr const char* kReasonInsufficientCpu = "insufficient cpu";
constexpr const char* kReasonInsufficientMemory = "insufficient memory";
constexpr const char* kReasonSecurity = "security level too low";
constexpr const char* kReasonNoAccelerator = "no accelerator";
constexpr const char* kReasonLayerMismatch = "layer mismatch";
constexpr const char* kReasonCordoned = "cordoned";
constexpr const char* kReasonNodeDown = "node down";

util::Status ExhaustedStatus(
    const PodSpec& pod,
    const std::vector<std::pair<std::string, std::string>>& rejections) {
  std::string detail = "no feasible node for pod " + pod.name;
  for (const auto& [node, reason] : rejections) {
    detail += "; " + node + ": " + reason;
  }
  return util::Status::ResourceExhausted(detail);
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

namespace plugins {

FilterPlugin FitsResources() {
  return {"fits-resources", FilterKind::kFitsResources,
          [](const PodSpec& pod, const NodeState& n) -> std::optional<std::string> {
            if (n.CpuFree() < pod.cpu_request) {
              return std::string(kReasonInsufficientCpu);
            }
            if (n.MemFreeMb() < pod.mem_request_mb) {
              return std::string(kReasonInsufficientMemory);
            }
            return std::nullopt;
          }};
}

FilterPlugin SecurityLevel() {
  return {"security-level", FilterKind::kSecurityLevel,
          [](const PodSpec& pod, const NodeState& n) -> std::optional<std::string> {
            if (!security::Satisfies(n.node->security_level(), pod.min_security)) {
              return std::string(kReasonSecurity);
            }
            return std::nullopt;
          }};
}

FilterPlugin Accelerator() {
  return {"accelerator", FilterKind::kAccelerator,
          [](const PodSpec& pod, const NodeState& n) -> std::optional<std::string> {
            if (pod.needs_accelerator && !n.HasAccelerator()) {
              return std::string(kReasonNoAccelerator);
            }
            return std::nullopt;
          }};
}

FilterPlugin LayerAffinity() {
  return {"layer-affinity", FilterKind::kLayerAffinity,
          [](const PodSpec& pod, const NodeState& n) -> std::optional<std::string> {
            if (!pod.layer_affinity.empty() &&
                pod.layer_affinity != continuum::LayerName(n.node->layer())) {
              return std::string(kReasonLayerMismatch);
            }
            return std::nullopt;
          }};
}

FilterPlugin NodeSelector() {
  return {"node-selector", FilterKind::kNodeSelector,
          [](const PodSpec& pod, const NodeState& n) -> std::optional<std::string> {
            for (const auto& [k, v] : pod.node_selector) {
              const auto& labels = n.labels();
              const auto it = labels.find(k);
              if (it == labels.end() || it->second != v) {
                return "selector mismatch on " + k;
              }
            }
            return std::nullopt;
          }};
}

FilterPlugin NotCordoned() {
  return {"not-cordoned", FilterKind::kNotCordoned,
          [](const PodSpec&, const NodeState& n) -> std::optional<std::string> {
            if (n.cordoned()) return std::string(kReasonCordoned);
            return std::nullopt;
          }};
}

FilterPlugin NodeReady() {
  return {"node-ready", FilterKind::kNodeReady,
          [](const PodSpec&, const NodeState& n) -> std::optional<std::string> {
            if (!n.node->up()) return std::string(kReasonNodeDown);
            return std::nullopt;
          }};
}

ScorePlugin LeastAllocated(double weight) {
  return {"least-allocated", ScoreKind::kLeastAllocated, weight};
}

ScorePlugin Balanced(double weight) {
  return {"balanced", ScoreKind::kBalanced, weight};
}

}  // namespace plugins

Scheduler Scheduler::Default() {
  Scheduler s;
  s.AddFilter(plugins::NodeReady());
  s.AddFilter(plugins::NotCordoned());
  s.AddFilter(plugins::FitsResources());
  s.AddFilter(plugins::SecurityLevel());
  s.AddFilter(plugins::Accelerator());
  s.AddFilter(plugins::LayerAffinity());
  s.AddFilter(plugins::NodeSelector());
  s.AddScorer(plugins::LeastAllocated(1.0));
  s.AddScorer(plugins::Balanced(0.5));
  return s;
}

void Scheduler::AddFilter(FilterPlugin f) {
  has_kind_[static_cast<std::size_t>(f.kind)] = true;
  if (f.kind == FilterKind::kOpaque) {
    opaque_.push_back(static_cast<std::uint32_t>(filters_.size()));
  }
  filters_.push_back(std::move(f));
}

inline double Scheduler::ScoreSlot(const PodSpec& pod,
                                   const NodeIndex& index,
                                   std::uint32_t slot) const {
  // Capacity is read live: operating points change it at runtime.
  const double cap = index.node(slot)->CpuCapacity();
  const double cpu_allocated = index.cpu_allocated(slot);
  double score = 0.0;
  for (const ScorePlugin& plugin : scorers_) {
    double value = 0.0;
    switch (plugin.kind) {
      case ScoreKind::kLeastAllocated:
        value = cap <= 0 ? 0.0 : std::max(0.0, (cap - cpu_allocated) / cap);
        break;
      case ScoreKind::kBalanced: {
        const double cpu_frac =
            (cpu_allocated + pod.cpu_request) / std::max(1e-9, cap);
        const double mem_frac =
            static_cast<double>(index.mem_allocated_mb(slot) +
                                pod.mem_request_mb) /
            std::max<double>(
                1.0, static_cast<double>(index.mem_capacity_mb(slot)));
        value = 1.0 - std::fabs(cpu_frac - mem_frac);
        break;
      }
    }
    score += plugin.weight * value;
  }
  return score_weight_total_ > 0 ? score / score_weight_total_ : score;
}

template <typename GetNode>
util::StatusOr<ScheduleResult> Scheduler::ScanImpl(const PodSpec& pod,
                                                   std::size_t count,
                                                   GetNode get,
                                                   const char* path) const {
  telemetry::ScopedSpan span("sched.schedule", "sched");
  span.SetAttribute("pod", pod.name);
  span.SetAttribute("path", path);
  ScheduleResult result;
  result.nodes_considered = count;
  double best_score = -1.0;
  const NodeState* best = nullptr;

  // One pass in node order: rejections list nodes in input order with the
  // *first* failing filter's reason, and the winner is the first node whose
  // score strictly beats all earlier ones.
  for (std::size_t i = 0; i < count; ++i) {
    const NodeState& n = get(i);
    std::optional<std::string> rejection;
    for (const FilterPlugin& filter : filters_) {
      rejection = filter.fn(pod, n);
      if (rejection) break;
    }
    if (rejection) {
      result.rejections.emplace_back(n.node->id(), std::move(*rejection));
      continue;
    }
    const double score = ScoreSlot(pod, n.owner(), n.slot());
    if (score > best_score) {
      best_score = score;
      best = &n;
    }
  }

  if (telemetry::Enabled()) {
    span.SetAttribute("rejections", std::to_string(result.rejections.size()));
    telemetry::Global().metrics.Add(
        "myrtus_sched_attempts_total", 1.0,
        {{"result", best == nullptr ? "exhausted" : "placed"}});
  }
  if (best == nullptr) {
    return ExhaustedStatus(pod, result.rejections);
  }
  result.node_id = best->node->id();
  result.score = best_score;
  span.SetAttribute("node", result.node_id);
  return result;
}

util::StatusOr<ScheduleResult> Scheduler::Schedule(
    const PodSpec& pod, const std::vector<NodeState*>& nodes) const {
  return ScanImpl(
      pod, nodes.size(),
      [&](std::size_t i) -> const NodeState& { return *nodes[i]; }, "scan");
}

util::StatusOr<ScheduleResult> Scheduler::Schedule(
    const PodSpec& pod, const NodeIndex& index) const {
  telemetry::ScopedSpan span("sched.schedule", "sched");
  span.SetAttribute("pod", pod.name);
  span.SetAttribute("path", "indexed");

  // Restrict only the dimensions an installed filter would enforce, so a
  // pipeline without (say) the security filter keeps admitting low-security
  // nodes exactly like the scan does.
  CandidateQuery query;
  query.restrict_cordoned =
      has_kind_[static_cast<std::size_t>(FilterKind::kNotCordoned)];
  if (has_kind_[static_cast<std::size_t>(FilterKind::kSecurityLevel)]) {
    query.restrict_security = true;
    query.min_security = pod.min_security;
  }
  query.restrict_accelerator =
      has_kind_[static_cast<std::size_t>(FilterKind::kAccelerator)] &&
      pod.needs_accelerator;
  if (has_kind_[static_cast<std::size_t>(FilterKind::kLayerAffinity)] &&
      !pod.layer_affinity.empty()) {
    query.layer = &pod.layer_affinity;
  }
  if (has_kind_[static_cast<std::size_t>(FilterKind::kNodeSelector)] &&
      !pod.node_selector.empty()) {
    query.selector = &pod.node_selector;
  }

  // The residual filters: liveness and capacity read live, then the opaque
  // filters. Filters are predicates, so running the built-in checks first
  // cannot change a verdict.
  const bool check_ready =
      has_kind_[static_cast<std::size_t>(FilterKind::kNodeReady)];
  const bool check_fits =
      has_kind_[static_cast<std::size_t>(FilterKind::kFitsResources)];
  const Bitmap& candidates = index.Candidates(query);
  const continuum::ComputeNode* best = nullptr;
  double best_score = -1.0;
  std::uint64_t considered = 0;
  candidates.ForEachSet([&](std::size_t candidate) {
    const auto slot = static_cast<std::uint32_t>(candidate);
    ++considered;
    const continuum::ComputeNode& node = *index.node(slot);
    if (check_ready && !node.up()) return;
    // The same arithmetic as NodeState::CpuFree() and MemFreeMb().
    if (check_fits &&
        (node.CpuCapacity() - index.cpu_allocated(slot) < pod.cpu_request ||
         util::SubSat(index.mem_capacity_mb(slot),
                      index.mem_allocated_mb(slot)) < pod.mem_request_mb)) {
      return;
    }
    for (const std::uint32_t f : opaque_) {
      if (filters_[f].fn(pod, index.at(slot))) return;
    }
    const double score = ScoreSlot(pod, index, slot);
    if (score > best_score) {
      best_score = score;
      best = &node;
    }
  });

  if (best == nullptr) {
    // Verdict parity on failure: the scan fallback produces the identical
    // RESOURCE_EXHAUSTED status with every node's first-failing reason.
    return ScanImpl(
        pod, index.size(),
        [&](std::size_t i) -> const NodeState& { return index.at(i); },
        "indexed-fallback");
  }
  if (telemetry::Enabled()) {
    span.SetAttribute("candidates", std::to_string(considered));
    telemetry::Global().metrics.Add("myrtus_sched_attempts_total", 1.0,
                                    {{"result", "placed"}});
  }
  ScheduleResult result;
  result.node_id = best->id();
  result.score = best_score;
  result.nodes_considered = considered;
  span.SetAttribute("node", result.node_id);
  return result;
}

}  // namespace myrtus::sched
