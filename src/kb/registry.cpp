#include "kb/registry.hpp"

#include <algorithm>
#include <utility>

namespace myrtus::kb {
namespace {

bool SameType(const util::Json& a, const util::Json& b) {
  return a.is_bool() == b.is_bool() && a.is_int() == b.is_int() &&
         a.is_double() == b.is_double() && a.is_string() == b.is_string();
}

// True when `j` has exactly the fields and value types NodeRecord::ToJson
// writes, so a FromJson → ToJson round trip would reproduce it unchanged.
bool IsCanonicalNodeRecord(const util::Json& j) {
  static const util::Json kShape = NodeRecord{}.ToJson();
  if (!j.is_object() || j.fields().size() != kShape.fields().size()) {
    return false;
  }
  auto want = kShape.fields().begin();
  for (const auto& [key, value] : j.fields()) {
    if (key != want->first || !SameType(value, want->second)) return false;
    ++want;
  }
  // FromJson narrows security_level to int.
  const std::int64_t level = j.at("security_level").as_int();
  return level == static_cast<int>(level);
}

// Sets trust_score on a stored node record. Unless `canonical` vouches for
// its shape, a record not in NodeRecord::ToJson's shape is normalized first.
// False, with `stored` untouched, when it is not a parseable record.
bool WriteTrust(util::Json& stored, double trust_score, bool canonical) {
  if (!canonical && !IsCanonicalNodeRecord(stored)) {
    auto record = NodeRecord::FromJson(stored);
    if (!record.ok()) return false;
    stored = record->ToJson();
  }
  // A canonical record's last field is trust_score (ToJson's keys sort
  // before it), so this skips the key search down the field map. The key is
  // still compared in every build: a record vouched for in error is checked
  // in full, and a NodeRecord field sorting after trust_score is not written.
  const util::Json::Object& fields = std::as_const(stored).fields();
  if (fields.empty() || fields.rbegin()->first != "trust_score") {
    if (canonical) return WriteTrust(stored, trust_score, false);
    stored.Set("trust_score", trust_score);
    return true;
  }
  stored.mutable_fields().rbegin()->second = trust_score;
  return true;
}

}  // namespace

void ResourceRegistry::CanonicalRevisions::Assign(std::int64_t revision,
                                                  bool canonical) {
  const auto bit = static_cast<std::uint64_t>(revision % kWindow);
  const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
  if (canonical) {
    bits_[bit / 64] |= mask;
  } else {
    bits_[bit / 64] &= ~mask;
  }
}

void ResourceRegistry::CanonicalRevisions::Insert(std::int64_t revision) {
  if (revision > newest_) {
    // The revisions in between were written by someone else; clear their
    // slots, which still describe revisions a window older.
    for (std::int64_t r = std::max(newest_ + 1, revision - kWindow + 1);
         r < revision; ++r) {
      Assign(r, false);
    }
    newest_ = revision;
  } else if (revision <= newest_ - kWindow) {
    return;
  }
  Assign(revision, true);
}

bool ResourceRegistry::CanonicalRevisions::Contains(
    std::int64_t revision) const {
  if (revision <= 0 || revision > newest_ || revision <= newest_ - kWindow) {
    return false;
  }
  const auto bit = static_cast<std::uint64_t>(revision % kWindow);
  return (bits_[bit / 64] >> (bit % 64) & 1U) != 0;
}

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
      .Set("trust_score", trust_score);
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
  r.trust_score = j.at("trust_score").as_double(1.0);
  return r;
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
  std::optional<std::int64_t> revision =
      store_.Update(key, overwrite, skip_watch);
  if (!revision) revision = store_.Put(key, record.ToJson(), 0, skip_watch);
  canonical_.Insert(*revision);
}

bool ResourceRegistry::PutTrust(const std::string& node_id, double trust_score,
                                std::int64_t skip_watch) {
  const std::optional<std::int64_t> revision = store_.Update(
      NodeKey(node_id),
      [trust_score](util::Json& stored) {
        return WriteTrust(stored, trust_score, false);
      },
      skip_watch);
  if (!revision) return false;
  canonical_.Insert(*revision);
  return true;
}

void ResourceRegistry::PutTrusts(std::span<TrustWrite> writes,
                                 std::int64_t skip_watch) {
  Store::PrefixCursor cursor(store_, NodeKey(""));
  for (TrustWrite& write : writes) {
    const KeyValue* kv = cursor.Seek(write.node_id);
    if (kv == nullptr) continue;
    const bool canonical = canonical_.Contains(kv->mod_revision);
    const std::optional<std::int64_t> revision = cursor.Update(
        [trust_score = write.trust_score, canonical](util::Json& stored) {
          return WriteTrust(stored, trust_score, canonical);
        },
        skip_watch);
    if (!revision) continue;
    canonical_.Insert(*revision);
    write.written = true;
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
