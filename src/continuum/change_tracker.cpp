#include "continuum/change_tracker.hpp"

namespace myrtus::continuum {

namespace {
constexpr std::size_t kWordBits = 64;
}  // namespace

int ChangeTracker::AddListener(const NodeList& nodes) {
  Sync(nodes);
  const int id = static_cast<int>(listeners_.size());
  Listener listener;
  listener.dirty.assign((synced_ + kWordBits - 1) / kWordBits, 0);
  // A fresh observer has seen nothing: every tracked node starts dirty.
  for (std::size_t i = 0; i < synced_; ++i) {
    listener.dirty[i / kWordBits] |= 1ULL << (i % kWordBits);
  }
  listeners_.push_back(std::move(listener));
  return id;
}

void ChangeTracker::RemoveListener(int listener) {
  if (listener < 0 || static_cast<std::size_t>(listener) >= listeners_.size()) {
    return;
  }
  Listener& l = listeners_[static_cast<std::size_t>(listener)];
  l.active = false;
  l.dirty.clear();
  l.dirty.shrink_to_fit();
}

void ChangeTracker::Sync(const NodeList& nodes) {
  while (synced_ < nodes.size()) {
    const std::size_t i = synced_++;
    ComputeNode* node = nodes[i].get();
    id_to_index_.emplace(node->id(), i);
    energy_ += node->total_energy();
    node->SetChangeHook([this, i](util::MilliJoules energy_delta) {
      OnChange(i, energy_delta);
    });
    for (Listener& listener : listeners_) {
      if (!listener.active) continue;
      if (listener.dirty.size() <= i / kWordBits) {
        listener.dirty.resize(i / kWordBits + 1, 0);
      }
      listener.dirty[i / kWordBits] |= 1ULL << (i % kWordBits);
    }
  }
}

void ChangeTracker::OnChange(std::size_t index,
                             util::MilliJoules energy_delta) {
  energy_ += energy_delta;
  for (Listener& listener : listeners_) {
    if (!listener.active) continue;
    if (listener.dirty.size() <= index / kWordBits) {
      listener.dirty.resize(index / kWordBits + 1, 0);
    }
    listener.dirty[index / kWordBits] |= 1ULL << (index % kWordBits);
  }
}

void ChangeTracker::Drain(const NodeList& nodes, int listener,
                          std::vector<std::size_t>& out) {
  Sync(nodes);
  if (listener < 0 || static_cast<std::size_t>(listener) >= listeners_.size()) {
    return;
  }
  Listener& l = listeners_[static_cast<std::size_t>(listener)];
  if (!l.active) return;
  std::vector<std::uint64_t>& dirty = l.dirty;
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
  if (listener < 0 || static_cast<std::size_t>(listener) >= listeners_.size()) {
    return;
  }
  const auto it = id_to_index_.find(node_id);
  if (it == id_to_index_.end()) return;
  Listener& l = listeners_[static_cast<std::size_t>(listener)];
  if (!l.active) return;
  const std::size_t i = it->second;
  if (l.dirty.size() <= i / kWordBits) l.dirty.resize(i / kWordBits + 1, 0);
  l.dirty[i / kWordBits] |= 1ULL << (i % kWordBits);
}

util::MilliJoules ChangeTracker::TotalEnergy(const NodeList& nodes) {
  Sync(nodes);
  return energy_;
}

}  // namespace myrtus::continuum
