#include "kb/registry.hpp"

#include <utility>

namespace myrtus::kb {

util::Json NodeRecord::ToJson() const {
  util::Json j = util::Json::MakeObject();
  j.Set("node_id", node_id)
      .Set("layer", layer)
      .Set("kind", kind)
      .Set("ready", ready)
      .Set("cpu_capacity", cpu_capacity)
      .Set("cpu_allocated", cpu_allocated)
      .Set("mem_capacity_mb", mem_capacity_mb)
      .Set("mem_allocated_mb", mem_allocated_mb)
      .Set("security_level", security_level)
      .Set("has_accelerator", has_accelerator)
      .Set("energy_mj", energy_mj.value())
      .Set("trust_value", trust.value)
      .Set("trust_healing", trust.healing)
      .Set("trust_iteration", trust.iteration);
  return j;
}

util::StatusOr<NodeRecord> NodeRecord::FromJson(const util::Json& j) {
  if (!j.is_object() || !j.has("node_id")) {
    return util::Status::InvalidArgument("not a node record");
  }
  NodeRecord r;
  r.node_id = j.at("node_id").as_string();
  r.layer = j.at("layer").as_string();
  r.kind = j.at("kind").as_string();
  r.ready = j.at("ready").as_bool(true);
  r.cpu_capacity = j.at("cpu_capacity").as_double();
  r.cpu_allocated = j.at("cpu_allocated").as_double();
  r.mem_capacity_mb = static_cast<std::uint64_t>(j.at("mem_capacity_mb").as_int());
  r.mem_allocated_mb = static_cast<std::uint64_t>(j.at("mem_allocated_mb").as_int());
  r.security_level = static_cast<int>(j.at("security_level").as_int());
  r.has_accelerator = j.at("has_accelerator").as_bool();
  r.energy_mj = util::MilliJoules(j.at("energy_mj").as_double());
  r.trust.value = j.at("trust_value").as_double(1.0);
  r.trust.healing = j.at("trust_healing").as_bool(true);
  r.trust.iteration =
      static_cast<std::uint64_t>(j.at("trust_iteration").as_int());
  return r;
}

double TrustAt(const NodeRecord& record, std::uint64_t iteration) {
  double trust = record.trust.value;
  for (std::uint64_t i = record.trust.iteration; i < iteration; ++i) {
    const double next = TrustStep(trust, record.trust.healing);
    if (next == trust) break;  // the fixed point: no "healed" write needed
    trust = next;
  }
  return trust;
}

std::string ResourceRegistry::NodeKey(const std::string& node_id) {
  return "/registry/nodes/" + node_id;
}

std::string ResourceRegistry::WorkloadKey(const std::string& workload_id) {
  return "/registry/workloads/" + workload_id;
}

std::string ResourceRegistry::TelemetryKey(const std::string& node_id,
                                           const std::string& metric) {
  return "/telemetry/" + node_id + "/" + metric;
}

std::string ResourceRegistry::SloKey(const std::string& scope,
                                     const std::string& name) {
  return "/slo/" + scope + "/" + name;
}

void ResourceRegistry::PutSloState(const std::string& scope,
                                   const std::string& name,
                                   util::Json record) {
  store_.Put(SloKey(scope, name), std::move(record));
}

util::StatusOr<util::Json> ResourceRegistry::GetSloState(
    const std::string& scope, const std::string& name) const {
  auto kv = store_.Get(SloKey(scope, name));
  if (!kv.ok()) return kv.status();
  return kv->value;
}

void ResourceRegistry::PutNode(const NodeRecord& record,
                               std::int64_t skip_watch) {
  const std::string key = NodeKey(record.node_id);
  const auto overwrite = [&record](util::Json& stored) {
    stored = record.ToJson();
    return true;
  };
  if (!store_.Update(key, overwrite, skip_watch)) {
    store_.Put(key, record.ToJson(), 0, skip_watch);
  }
}

util::StatusOr<NodeRecord> ResourceRegistry::GetNode(
    const std::string& node_id) const {
  auto kv = store_.Get(NodeKey(node_id));
  if (!kv.ok()) return kv.status();
  return NodeRecord::FromJson(kv->value);
}

std::vector<NodeRecord> ResourceRegistry::ListNodes(
    const std::string& layer) const {
  std::vector<NodeRecord> out;
  for (const KeyValue& kv : store_.Range("/registry/nodes/")) {
    auto record = NodeRecord::FromJson(kv.value);
    if (record.ok() && (layer.empty() || record->layer == layer)) {
      out.push_back(std::move(record).value());
    }
  }
  return out;
}

void ResourceRegistry::RemoveNode(const std::string& node_id) {
  store_.Delete(NodeKey(node_id));
}

void ResourceRegistry::PutWorkload(const std::string& workload_id,
                                   util::Json record) {
  store_.Put(WorkloadKey(workload_id), std::move(record));
}

util::StatusOr<util::Json> ResourceRegistry::GetWorkload(
    const std::string& workload_id) const {
  auto kv = store_.Get(WorkloadKey(workload_id));
  if (!kv.ok()) return kv.status();
  return kv->value;
}

std::vector<std::pair<std::string, util::Json>> ResourceRegistry::ListWorkloads()
    const {
  std::vector<std::pair<std::string, util::Json>> out;
  const std::string prefix = "/registry/workloads/";
  for (const KeyValue& kv : store_.Range(prefix)) {
    out.emplace_back(kv.key.substr(prefix.size()), kv.value);
  }
  return out;
}

void ResourceRegistry::AppendTelemetry(const std::string& node_id,
                                       const std::string& metric,
                                       TelemetrySample sample) {
  // A series is {"head": h, "t": [...], "v": [...]}: a ring of at most
  // kTelemetrySamples points, point k being (t[k], v[k]), whose oldest is at
  // h once it is full. A full ring overwrites its oldest point in place, so
  // an append moves and allocates nothing.
  const std::string key = TelemetryKey(node_id, metric);
  const auto append = [&sample](util::Json& series) {
    util::Json::Object& fields = series.mutable_fields();
    util::Json::Array& times = fields["t"].mutable_items();
    util::Json::Array& values = fields["v"].mutable_items();
    if (times.size() < kTelemetrySamples) {
      times.emplace_back(sample.at_ns);
      values.emplace_back(sample.value);
      return true;
    }
    util::Json& head = fields["head"];
    const auto oldest = static_cast<std::size_t>(head.as_int());
    times[oldest] = sample.at_ns;
    values[oldest] = sample.value;
    head = static_cast<std::int64_t>((oldest + 1) % kTelemetrySamples);
    return true;
  };
  if (!store_.Update(key, append)) {
    util::Json series = util::Json::MakeObject()
                            .Set("head", std::int64_t{0})
                            .Set("t", util::Json::MakeArray())
                            .Set("v", util::Json::MakeArray());
    append(series);
    store_.Put(key, std::move(series));
  }
}

std::vector<TelemetrySample> ResourceRegistry::GetTelemetry(
    const std::string& node_id, const std::string& metric) const {
  std::vector<TelemetrySample> out;
  auto kv = store_.Get(TelemetryKey(node_id, metric));
  if (!kv.ok()) return out;
  const util::Json::Array& times = kv->value.at("t").items();
  const util::Json::Array& values = kv->value.at("v").items();
  const auto head = static_cast<std::size_t>(kv->value.at("head").as_int());
  out.reserve(times.size());
  for (std::size_t k = 0; k < times.size(); ++k) {
    const std::size_t at = (head + k) % times.size();
    out.push_back(TelemetrySample{times[at].as_int(), values[at].as_double()});
  }
  return out;
}

}  // namespace myrtus::kb
