#include "sched/node_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

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

// Score weights: least-allocated counts double the balanced score.
constexpr double kLeastAllocatedWeight = 1.0;
constexpr double kBalancedWeight = 0.5;

}  // namespace

/// The slots whose score inputs changed, in order. Written by the ledger
/// mutators and by the nodes (liveness, cpu capacity); read by the ranked
/// classes, each from the position it last synced to. It keeps fewer than
/// 2 * max(64, fleet) entries: a class that fell further behind than the
/// front it drops has more to replay than it has leaves, and rescores them
/// all instead. Structural changes clear it with the classes. A slot equal
/// to the last entry is not appended again unless some class has read that
/// entry: every class still to replay it reads the slot's current state
/// (evicting a down node's pods would otherwise log it once per pod).
class NodeIndex::ChangeLog final
    : public continuum::ComputeNode::PlacementWatcher {
 public:
  void OnPlacementInputChanged(std::uint32_t slot) override { Append(slot); }
  void Append(std::uint32_t slot) {
    if (!entries_.empty() && entries_.back() == slot && read_ < end()) return;
    entries_.push_back(slot);
    if (entries_.size() >= 2 * keep_) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(keep_));
      base_ += keep_;
    }
  }
  /// Forgets every entry; positions keep counting.
  void Clear() {
    base_ = end();
    entries_.clear();
  }
  void SetFleet(std::size_t fleet) { keep_ = std::max<std::size_t>(64, fleet); }
  [[nodiscard]] std::uint64_t end() const { return base_ + entries_.size(); }
  /// Marks everything appended so far read; returns the end position.
  std::uint64_t Read() {
    read_ = end();
    return read_;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// The entries from `position` on; none when that part was dropped.
  [[nodiscard]] std::optional<std::span<const std::uint32_t>> Since(
      std::uint64_t position) const {
    if (position < base_) return std::nullopt;
    return std::span(entries_).subspan(position - base_);
  }

 private:
  std::vector<std::uint32_t> entries_;
  std::uint64_t base_ = 0;  // position of entries_[0]
  std::uint64_t read_ = 0;  // end() when a class last synced
  std::size_t keep_ = 64;
};

void RankedCandidates::ExcludeBest() {
  const std::optional<std::uint32_t> leaf = tree_.Top();
  if (!leaf) return;
  excluded_.emplace_back(*leaf, tree_.key(*leaf));
  tree_.Rekey(*leaf, RankTree::kAbsent);
}

void RankedCandidates::RestoreExcluded() {
  for (const auto& [leaf, key] : excluded_) tree_.Rekey(leaf, key);
  excluded_.clear();
}

NodeIndex::NodeIndex() : change_log_(std::make_shared<ChangeLog>()) {}

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

  change_log_->SetFleet(bits);
  node->AddPlacementWatcher(change_log_, slot);
  DropRankedClasses();
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

double NodeIndex::Score(std::uint32_t slot, double cpu_request,
                        std::uint64_t mem_request_mb) const {
  const double cap = nodes_[slot]->CpuCapacity();
  const double cpu_allocated = cpu_allocated_[slot];
  const double least =
      cap <= 0 ? 0.0 : std::max(0.0, (cap - cpu_allocated) / cap);
  const double cpu_frac = (cpu_allocated + cpu_request) / std::max(1e-9, cap);
  const double mem_frac =
      static_cast<double>(mem_allocated_mb_[slot] + mem_request_mb) /
      std::max<double>(1.0, static_cast<double>(mem_capacity_mb_[slot]));
  const double balanced = 1.0 - std::fabs(cpu_frac - mem_frac);
  return (0.0 + kLeastAllocatedWeight * least + kBalancedWeight * balanced) /
         (kLeastAllocatedWeight + kBalancedWeight);
}

void NodeIndex::AddAllocation(std::uint32_t slot, double cpu,
                              std::uint64_t mem_mb) {
  cpu_allocated_[slot] += cpu;
  mem_allocated_mb_[slot] += mem_mb;
  change_log_->Append(slot);
}

void NodeIndex::SubAllocation(std::uint32_t slot, double cpu,
                              std::uint64_t mem_mb) {
  // Clamp at zero: a reflected overwrite (peering) may have set the ledger
  // below the sum of committed amounts that are released later.
  cpu_allocated_[slot] = std::max(0.0, cpu_allocated_[slot] - cpu);
  mem_allocated_mb_[slot] -= std::min(mem_allocated_mb_[slot], mem_mb);
  change_log_->Append(slot);
}

void NodeIndex::SetCpuAllocation(std::uint32_t slot, double cpu) {
  cpu_allocated_[slot] = cpu;
  change_log_->Append(slot);
}

void NodeIndex::SetMemAllocation(std::uint32_t slot, std::uint64_t mem_mb) {
  mem_allocated_mb_[slot] = mem_mb;
  change_log_->Append(slot);
}

void NodeIndex::SetCordoned(std::uint32_t slot, bool cordoned) {
  if ((cordoned_[slot] != 0) == cordoned) return;
  cordoned_[slot] = cordoned ? 1 : 0;
  if (cordoned) {
    not_cordoned_.Reset(slot);
  } else {
    not_cordoned_.Set(slot);
  }
  DropRankedClasses();
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
  DropRankedClasses();
}

Bitmap NodeIndex::Candidates(const CandidateQuery& q) const {
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
  return out;
}

RankedCandidates& NodeIndex::Ranked(const CandidateQuery& q,
                                     double cpu_request,
                                     std::uint64_t mem_request_mb) const {
  const std::string key = q.CacheKey();
  const auto cpu_bits = std::bit_cast<std::uint64_t>(cpu_request);
  RankedCandidates* ranked = nullptr;
  for (const auto& c : ranked_) {
    if (std::bit_cast<std::uint64_t>(c->cpu_request_) == cpu_bits &&
        c->mem_request_mb_ == mem_request_mb &&
        c->query_key_ == key) {
      ranked = c.get();
      break;
    }
  }
  if (ranked != nullptr) {
    ++stats_.rank_hits;
    // Replay the changes since the last read; past one per leaf, rescoring
    // every leaf is cheaper.
    const auto changes = change_log_->Since(ranked->synced_);
    if (!changes || changes->size() > ranked->slots_.size()) {
      Rescore(*ranked);
    } else {
      for (const std::uint32_t slot : *changes) {
        const auto it = std::lower_bound(ranked->slots_.begin(),
                                         ranked->slots_.end(), slot);
        if (it == ranked->slots_.end() || *it != slot) continue;
        ranked->tree_.Rekey(
            static_cast<std::size_t>(it - ranked->slots_.begin()),
            RankKey(*ranked, slot));
      }
    }
  } else {
    ++stats_.rank_builds;
    if (ranked_.size() < kRankClasses) {
      ranked = ranked_.emplace_back(std::make_unique<RankedCandidates>()).get();
    } else {
      ranked = std::min_element(ranked_.begin(), ranked_.end(),
                                [](const auto& a, const auto& b) {
                                  return a->last_used_ < b->last_used_;
                                })
                   ->get();
    }
    ranked->cpu_request_ = cpu_request;
    ranked->mem_request_mb_ = mem_request_mb;
    ranked->query_key_ = key;
    ranked->slots_.clear();
    Candidates(q).ForEachSet([&](std::size_t slot) {
      ranked->slots_.push_back(static_cast<std::uint32_t>(slot));
    });
    Rescore(*ranked);
  }
  ranked->synced_ = change_log_->Read();
  ranked->last_used_ = ++rank_clock_;
  return *ranked;
}

std::size_t NodeIndex::change_log_length() const { return change_log_->size(); }

double NodeIndex::RankKey(const RankedCandidates& ranked,
                          std::uint32_t slot) const {
  const double cpu = ranked.cpu_request_;
  const std::uint64_t mem = ranked.mem_request_mb_;
  if (!nodes_[slot]->up() || CpuShort(slot, cpu) || MemShort(slot, mem)) {
    return RankTree::kAbsent;
  }
  const double score = Score(slot, cpu, mem);
  return score > -1.0 ? score : RankTree::kAbsent;
}

void NodeIndex::Rescore(RankedCandidates& ranked) const {
  ranked.tree_.Reset(ranked.slots_.size());
  for (std::size_t leaf = 0; leaf < ranked.slots_.size(); ++leaf) {
    ranked.tree_.SetKey(leaf, RankKey(ranked, ranked.slots_[leaf]));
  }
  ranked.tree_.Rebuild();
}

void NodeIndex::DropRankedClasses() {
  // Structural changes move candidate sets, so the ranked classes built on
  // them go too, and the log that fed them.
  ranked_.clear();
  change_log_->Clear();
}

}  // namespace myrtus::sched
