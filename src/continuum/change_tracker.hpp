// Event-driven fleet observation: fans the per-node change hooks out to any
// number of listeners (one per MAPE agent observing the infrastructure), each
// with its own dirty bitmap. Observers drain their bitmap once per iteration
// and visit only the nodes that actually mutated since their last drain — the
// watch-stream alternative to walking every node. The tracker holds no node
// facts of its own: energy and every other counter stay on the node.
//
// The tracker is heap-allocated and owned by the Infrastructure through a
// shared_ptr so that node hooks (which capture the tracker pointer) survive
// moves of the Infrastructure value. It never holds a back-reference to the
// Infrastructure: callers pass the node list into every operation, and the
// tracker lazily attaches hooks to nodes appended since the previous call
// (append-only fleets — nodes are never removed in this codebase).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "continuum/node.hpp"

namespace myrtus::continuum {

class ChangeTracker {
 public:
  using NodeList = std::vector<std::unique_ptr<ComputeNode>>;

  /// Registers a listener; every already-tracked node starts dirty for it
  /// (a new observer has seen nothing yet). Listener ids are never reused.
  int AddListener(const NodeList& nodes);

  /// Appends the indices of nodes dirty for `listener` (ascending — node
  /// insertion order, matching a full walk) and clears its bitmap. Newly
  /// appended nodes are attached and reported dirty here.
  void Drain(const NodeList& nodes, int listener, std::vector<std::size_t>& out);

  /// Marks one node dirty for `listener` by id (KB watch-event mirroring:
  /// an external write under /registry/nodes/ forces a re-observation).
  /// Unknown ids are ignored.
  void MarkDirtyById(const NodeList& nodes, const std::string& node_id,
                     int listener);

 private:
  /// Attaches hooks to nodes [synced_, nodes.size()), marking them dirty for
  /// every listener.
  void Sync(const NodeList& nodes);
  /// Marks node `index` dirty for every listener.
  void OnChange(std::size_t index);

  std::size_t synced_ = 0;
  // Per listener id: its dirty bitmap over node indices.
  std::vector<std::vector<std::uint64_t>> dirty_;
  std::unordered_map<std::string, std::size_t> id_to_index_;
};

}  // namespace myrtus::continuum
