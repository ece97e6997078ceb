#include "sched/node_index.hpp"

#include <algorithm>
#include <bit>

namespace myrtus::sched {
namespace {

bool DevicesIncludeAccelerator(const continuum::ComputeNode& node) {
  for (const continuum::Device& d : node.devices()) {
    if (d.kind() == continuum::DeviceKind::kFpgaAccelerator ||
        d.kind() == continuum::DeviceKind::kRiscvCcu) {
      return true;
    }
  }
  return false;
}

// Unit separator between label key and value: cannot collide with either.
constexpr char kLabelSep = '\x1f';

std::string LabelKey(const std::string& key, const std::string& value) {
  std::string out;
  out.reserve(key.size() + value.size() + 1);
  out += key;
  out += kLabelSep;
  out += value;
  return out;
}

}  // namespace

std::size_t Bitmap::Count() const {
  std::size_t n = 0;
  for (const std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

Bitmap& Bitmap::AndWith(const Bitmap& other) {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w] &= w < other.words_.size() ? other.words_[w] : 0;
  }
  return *this;
}

std::string CandidateQuery::CacheKey() const {
  // Record separator '\x1e' terminates free-form strings so adjacent
  // dimensions cannot alias.
  std::string key;
  if (restrict_cordoned) key += 'c';
  if (restrict_security) {
    key += 's';
    key += static_cast<char>('0' + static_cast<int>(min_security));
  }
  if (restrict_accelerator) key += 'a';
  if (layer != nullptr) {
    key += 'l';
    key += *layer;
    key += '\x1e';
  }
  if (selector != nullptr) {
    for (const auto& [k, v] : *selector) {
      key += 'k';
      key += k;
      key += kLabelSep;
      key += v;
      key += '\x1e';
    }
  }
  return key;
}

NodeState& NodeIndex::Add(continuum::ComputeNode* node,
                          std::map<std::string, std::string> labels) {
  const auto slot = static_cast<std::uint32_t>(arena_.size());
  NodeState& state = arena_.emplace_back();
  state.node = node;
  state.owner_ = this;
  state.slot_ = slot;
  id_to_slot_.emplace(node->id(), slot);

  nodes_.push_back(node);
  cpu_allocated_.push_back(0.0);
  mem_allocated_mb_.push_back(0);
  mem_capacity_mb_.push_back(node->mem_capacity_mb());
  has_accelerator_.push_back(DevicesIncludeAccelerator(*node) ? 1 : 0);
  cordoned_.push_back(0);
  labels_.push_back(std::move(labels));

  const std::size_t bits = arena_.size();
  all_.Resize(bits);
  all_.Set(slot);
  not_cordoned_.Resize(bits);
  not_cordoned_.Set(slot);
  accelerator_.Resize(bits);
  if (has_accelerator_[slot] != 0) accelerator_.Set(slot);
  const auto level = static_cast<std::size_t>(node->security_level());
  for (std::size_t min = 0; min < security::kNumSecurityLevels; ++min) {
    security_at_least_[min].Resize(bits);
    if (level >= min) security_at_least_[min].Set(slot);
  }
  for (auto& [name, bitmap] : by_layer_) bitmap.Resize(bits);
  Bitmap& layer_bitmap =
      by_layer_[std::string(continuum::LayerName(node->layer()))];
  layer_bitmap.Resize(bits);
  layer_bitmap.Set(slot);
  for (auto& [name, bitmap] : by_label_) bitmap.Resize(bits);
  for (const auto& [k, v] : labels_[slot]) {
    Bitmap& label_bitmap = by_label_[LabelKey(k, v)];
    label_bitmap.Resize(bits);
    label_bitmap.Set(slot);
  }

  InvalidateCandidates();
  return state;
}

NodeState* NodeIndex::Find(const std::string& node_id) {
  const auto it = id_to_slot_.find(node_id);
  return it == id_to_slot_.end() ? nullptr : &arena_[it->second];
}

const NodeState* NodeIndex::Find(const std::string& node_id) const {
  const auto it = id_to_slot_.find(node_id);
  return it == id_to_slot_.end() ? nullptr : &arena_[it->second];
}

void NodeIndex::AddAllocation(std::uint32_t slot, double cpu,
                              std::uint64_t mem_mb) {
  cpu_allocated_[slot] += cpu;
  mem_allocated_mb_[slot] += mem_mb;
}

void NodeIndex::SubAllocation(std::uint32_t slot, double cpu,
                              std::uint64_t mem_mb) {
  // Clamp at zero: a reflected overwrite (peering) may have set the ledger
  // below the sum of committed amounts that are released later.
  cpu_allocated_[slot] = std::max(0.0, cpu_allocated_[slot] - cpu);
  mem_allocated_mb_[slot] -= std::min(mem_allocated_mb_[slot], mem_mb);
}

void NodeIndex::SetCpuAllocation(std::uint32_t slot, double cpu) {
  cpu_allocated_[slot] = cpu;
}

void NodeIndex::SetMemAllocation(std::uint32_t slot, std::uint64_t mem_mb) {
  mem_allocated_mb_[slot] = mem_mb;
}

void NodeIndex::SetCordoned(std::uint32_t slot, bool cordoned) {
  if ((cordoned_[slot] != 0) == cordoned) return;
  cordoned_[slot] = cordoned ? 1 : 0;
  if (cordoned) {
    not_cordoned_.Reset(slot);
  } else {
    not_cordoned_.Set(slot);
  }
  InvalidateCandidates();
}

void NodeIndex::SetLabel(std::uint32_t slot, const std::string& key,
                         const std::string& value) {
  auto& labels = labels_[slot];
  const auto it = labels.find(key);
  if (it != labels.end()) {
    if (it->second == value) return;
    const auto old = by_label_.find(LabelKey(key, it->second));
    if (old != by_label_.end()) old->second.Reset(slot);
    it->second = value;
  } else {
    labels.emplace(key, value);
  }
  Bitmap& bitmap = by_label_[LabelKey(key, value)];
  bitmap.Resize(arena_.size());
  bitmap.Set(slot);
  InvalidateCandidates();
}

const Bitmap& NodeIndex::Candidates(const CandidateQuery& q) const {
  const std::string key = q.CacheKey();
  if (const auto it = candidate_cache_.find(key);
      it != candidate_cache_.end()) {
    ++stats_.cache_hits;
    return it->second;
  }
  ++stats_.cache_misses;
  Bitmap out = all_;
  if (q.restrict_cordoned) out.AndWith(not_cordoned_);
  if (q.restrict_security) {
    out.AndWith(security_at_least_[static_cast<std::size_t>(q.min_security)]);
  }
  if (q.restrict_accelerator) out.AndWith(accelerator_);
  if (q.layer != nullptr) {
    const auto it = by_layer_.find(*q.layer);
    if (it != by_layer_.end()) {
      out.AndWith(it->second);
    } else {
      out.ClearAll();
    }
  }
  if (q.selector != nullptr) {
    for (const auto& [k, v] : *q.selector) {
      const auto it = by_label_.find(LabelKey(k, v));
      if (it != by_label_.end()) {
        out.AndWith(it->second);
      } else {
        out.ClearAll();
        break;
      }
    }
  }
  return candidate_cache_.emplace(key, std::move(out)).first->second;
}

void NodeIndex::InvalidateCandidates() {
  if (!candidate_cache_.empty()) {
    candidate_cache_.clear();
    ++stats_.invalidations;
  }
}

}  // namespace myrtus::sched
