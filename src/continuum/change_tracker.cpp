#include "continuum/change_tracker.hpp"

namespace myrtus::continuum {

namespace {
constexpr std::size_t kWordBits = 64;

void SetBit(std::vector<std::uint64_t>& bitmap, std::size_t i) {
  if (bitmap.size() <= i / kWordBits) bitmap.resize(i / kWordBits + 1, 0);
  bitmap[i / kWordBits] |= 1ULL << (i % kWordBits);
}
}  // namespace

int ChangeTracker::AddListener(const NodeList& nodes) {
  Sync(nodes);
  const int id = static_cast<int>(dirty_.size());
  std::vector<std::uint64_t>& dirty = dirty_.emplace_back();
  // A fresh observer has seen nothing: every tracked node starts dirty.
  for (std::size_t i = 0; i < synced_; ++i) SetBit(dirty, i);
  return id;
}

void ChangeTracker::Sync(const NodeList& nodes) {
  while (synced_ < nodes.size()) {
    const std::size_t i = synced_++;
    ComputeNode* node = nodes[i].get();
    id_to_index_.emplace(node->id(), i);
    node->SetChangeHook([this, i] { OnChange(i); });
    OnChange(i);
  }
}

void ChangeTracker::OnChange(std::size_t index) {
  for (std::vector<std::uint64_t>& dirty : dirty_) SetBit(dirty, index);
}

void ChangeTracker::Drain(const NodeList& nodes, int listener,
                          std::vector<std::size_t>& out) {
  Sync(nodes);
  if (listener < 0 || static_cast<std::size_t>(listener) >= dirty_.size()) {
    return;
  }
  std::vector<std::uint64_t>& dirty = dirty_[static_cast<std::size_t>(listener)];
  for (std::size_t w = 0; w < dirty.size(); ++w) {
    std::uint64_t word = dirty[w];
    while (word != 0) {
      const auto bit =
          static_cast<std::size_t>(__builtin_ctzll(word));
      out.push_back(w * kWordBits + bit);
      word &= word - 1;
    }
    dirty[w] = 0;
  }
}

void ChangeTracker::MarkDirtyById(const NodeList& nodes,
                                  const std::string& node_id, int listener) {
  Sync(nodes);
  if (listener < 0 || static_cast<std::size_t>(listener) >= dirty_.size()) {
    return;
  }
  const auto it = id_to_index_.find(node_id);
  if (it == id_to_index_.end()) return;
  SetBit(dirty_[static_cast<std::size_t>(listener)], it->second);
}

}  // namespace myrtus::continuum
