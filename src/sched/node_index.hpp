// Indexed per-node scheduler state: a struct-of-arrays arena of hot ledger
// columns plus inverted indexes (bitmaps) over the structural placement
// dimensions — security level, layer, labels, accelerator presence,
// cordon state. The scheduler intersects those bitmaps to
// obtain a candidate set instead of filtering every node per pod.
//
// NodeState is a *handle* into the arena: all ledger reads and writes go
// through the owning NodeIndex, so there is exactly one accounting path and
// the bitmaps can never drift from the data they index.
//
// On top of the candidate sets the index keeps a bounded cache of ranked
// classes: per pod shape (requests plus query), the query's candidate slots
// and a tournament tree over them keyed by score. Every change to a score
// input appends its slot to one change log, and a class replays the log
// before it is read, so a placement costs O(changed slots * log n) rather
// than O(candidates). Structural mutations (labels, cordon, new nodes) drop
// the classes; allocation changes do not, which is what lets a reconcile
// pass admit a whole batch of pending pods through one candidate-set build.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "continuum/node.hpp"
#include "sched/rank_tree.hpp"
#include "security/policy.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace myrtus::sched {

class NodeIndex;

/// Compact bitset over node slots. Word-parallel intersection plus set-bit
/// iteration in ascending slot order (== node insertion order), which is
/// what fixes the scheduler's deterministic tie-breaking.
class Bitmap {
 public:
  void Resize(std::size_t bits) {
    words_.resize((bits + 63) / 64, 0);
    bits_ = bits;
  }
  void Set(std::size_t bit) { words_[bit / 64] |= 1ULL << (bit % 64); }
  void Reset(std::size_t bit) { words_[bit / 64] &= ~(1ULL << (bit % 64)); }
  [[nodiscard]] bool Test(std::size_t bit) const {
    return bit < bits_ && (words_[bit / 64] >> (bit % 64)) & 1ULL;
  }
  void ClearAll() { std::fill(words_.begin(), words_.end(), 0); }
  [[nodiscard]] std::size_t bits() const { return bits_; }
  [[nodiscard]] std::size_t Count() const;
  /// In-place intersection; missing words in `other` count as zero.
  Bitmap& AndWith(const Bitmap& other);
  /// Calls `fn(slot)` for every set bit, ascending.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Scheduler-side view of one node's allocatable state. The scheduler tracks
/// requests (like kube's `requested`), independent of instantaneous device
/// utilization. The ledger itself lives in the owning NodeIndex's SoA
/// columns; this handle only reads it. Mutations go through the index (via
/// Cluster), keeping accounting single-pathed and the bitmaps coherent.
class NodeState {
 public:
  continuum::ComputeNode* node = nullptr;

  /// Capacity is read from the node, which caches it and refreshes the cache
  /// whenever an operating point changes at runtime.
  [[nodiscard]] double cpu_capacity() const { return node->CpuCapacity(); }
  [[nodiscard]] std::uint64_t mem_capacity_mb() const;
  [[nodiscard]] double cpu_allocated() const;
  [[nodiscard]] std::uint64_t mem_allocated_mb() const;
  [[nodiscard]] bool cordoned() const;
  [[nodiscard]] const std::map<std::string, std::string>& labels() const;
  /// Accelerator presence, sampled when the node joined the index (register
  /// devices before Cluster::AddNode).
  [[nodiscard]] bool HasAccelerator() const;
  [[nodiscard]] double CpuFree() const {
    return cpu_capacity() - cpu_allocated();
  }
  /// Free memory clamped at zero: the allocation ledger may legitimately
  /// exceed capacity (peering reflection), and the unsigned subtraction must
  /// not wrap into "plenty of room".
  [[nodiscard]] std::uint64_t MemFreeMb() const {
    return util::SubSat(mem_capacity_mb(), mem_allocated_mb());
  }
  [[nodiscard]] std::uint32_t slot() const { return slot_; }
  [[nodiscard]] const NodeIndex& owner() const { return *owner_; }

 private:
  friend class NodeIndex;
  NodeIndex* owner_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Structural restrictions for one candidate lookup. Pointers borrow from the
/// pod spec and must outlive the Candidates() call. A null pointer (or an
/// unset flag) means "dimension unrestricted".
struct CandidateQuery {
  bool restrict_cordoned = false;
  bool restrict_security = false;
  security::SecurityLevel min_security = security::SecurityLevel::kLow;
  bool restrict_accelerator = false;
  const std::string* layer = nullptr;
  const std::map<std::string, std::string>* selector = nullptr;

  [[nodiscard]] std::string CacheKey() const;
};

/// The candidates of one query ranked for one pod shape: a leaf per
/// candidate slot, ascending, keyed by the slot's score for that shape. A
/// slot that is down, short on cpu or memory, or whose score is not above
/// -1.0 (NaN included) is absent. NodeIndex::Ranked() hands it out synced.
class RankedCandidates {
 public:
  struct Pick {
    std::uint32_t slot = 0;
    double score = 0.0;
  };
  /// Candidate count: the nodes the structural bitmaps admit.
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  /// The highest-scoring present candidate, ties to the lowest slot.
  [[nodiscard]] std::optional<Pick> Best() const {
    const std::optional<std::uint32_t> leaf = tree_.Top();
    if (!leaf) return std::nullopt;
    return Pick{slots_[*leaf], tree_.key(*leaf)};
  }
  /// Takes the current best out of the ranking until RestoreExcluded(), so
  /// an opaque filter's rejects are skipped in rank order.
  void ExcludeBest();
  void RestoreExcluded();

 private:
  friend class NodeIndex;
  // Class key: the pod's cpu request (compared bit for bit), its memory
  // request, and the candidate query's cache key.
  double cpu_request_ = 0.0;
  std::uint64_t mem_request_mb_ = 0;
  std::string query_key_;
  std::vector<std::uint32_t> slots_;  // leaf -> slot, ascending
  RankTree tree_;
  std::uint64_t synced_ = 0;     // change-log position replayed up to
  std::uint64_t last_used_ = 0;  // for least-recently-used eviction
  std::vector<std::pair<std::uint32_t, double>> excluded_;  // leaf, key
};

class NodeIndex {
 public:
  /// Ranked classes kept per index; the least recently used is evicted.
  static constexpr std::size_t kRankClasses = 64;

  NodeIndex();
  NodeIndex(const NodeIndex&) = delete;
  NodeIndex& operator=(const NodeIndex&) = delete;

  /// Registers a node; slots are assigned in insertion order and never
  /// reused. The node must outlive the index.
  NodeState& Add(continuum::ComputeNode* node,
                 std::map<std::string, std::string> labels);
  [[nodiscard]] std::size_t size() const { return arena_.size(); }
  [[nodiscard]] NodeState* Find(const std::string& node_id);
  [[nodiscard]] const NodeState* Find(const std::string& node_id) const;
  [[nodiscard]] NodeState& at(std::size_t slot) { return arena_[slot]; }
  [[nodiscard]] const NodeState& at(std::size_t slot) const {
    return arena_[slot];
  }

  /// --- Column reads by slot (the scheduler's candidate and failure loops) -
  [[nodiscard]] continuum::ComputeNode* node(std::uint32_t slot) const {
    return nodes_[slot];
  }
  [[nodiscard]] double cpu_allocated(std::uint32_t slot) const {
    return cpu_allocated_[slot];
  }
  [[nodiscard]] std::uint64_t mem_allocated_mb(std::uint32_t slot) const {
    return mem_allocated_mb_[slot];
  }
  [[nodiscard]] std::uint64_t mem_capacity_mb(std::uint32_t slot) const {
    return mem_capacity_mb_[slot];
  }
  [[nodiscard]] bool cordoned(std::uint32_t slot) const {
    return cordoned_[slot] != 0;
  }
  [[nodiscard]] bool has_accelerator(std::uint32_t slot) const {
    return has_accelerator_[slot] != 0;
  }
  [[nodiscard]] const std::map<std::string, std::string>& labels(
      std::uint32_t slot) const {
    return labels_[slot];
  }

  /// --- Placement kernel, read by slot -------------------------------------
  /// Cpu capacity is read live through the node (operating points change
  /// it); the arithmetic is NodeState::CpuFree() and MemFreeMb()'s.
  [[nodiscard]] bool CpuShort(std::uint32_t slot, double cpu_request) const {
    return nodes_[slot]->CpuCapacity() - cpu_allocated_[slot] < cpu_request;
  }
  [[nodiscard]] bool MemShort(std::uint32_t slot,
                              std::uint64_t mem_request_mb) const {
    return util::SubSat(mem_capacity_mb_[slot], mem_allocated_mb_[slot]) <
           mem_request_mb;
  }
  /// Least-allocated and balanced, each in [0,1], higher is better, combined
  /// as ((0 + 1.0 * least) + 0.5 * balanced) / 1.5: verdicts compare scores
  /// for exact equality, so that operation order is part of the contract.
  [[nodiscard]] double Score(std::uint32_t slot, double cpu_request,
                             std::uint64_t mem_request_mb) const;

  /// --- Allocation ledger (non-structural: ranked classes survive) --------
  void AddAllocation(std::uint32_t slot, double cpu, std::uint64_t mem_mb);
  void SubAllocation(std::uint32_t slot, double cpu, std::uint64_t mem_mb);
  void SetCpuAllocation(std::uint32_t slot, double cpu);
  void SetMemAllocation(std::uint32_t slot, std::uint64_t mem_mb);

  /// --- Structural mutators (drop the ranked classes) ---------------------
  void SetCordoned(std::uint32_t slot, bool cordoned);
  void SetLabel(std::uint32_t slot, const std::string& key,
                const std::string& value);

  /// Slots passing every structural restriction in `q`, as an intersection
  /// of the inverted-index bitmaps. A ranked class keeps its own copy.
  [[nodiscard]] Bitmap Candidates(const CandidateQuery& q) const;

  /// `q`'s candidates ranked for a pod requesting `cpu_request` and
  /// `mem_request_mb`, synced with every score-input change since it was
  /// last read. The reference is valid until the next Ranked() call or
  /// structural mutation.
  [[nodiscard]] RankedCandidates& Ranked(const CandidateQuery& q,
                                         double cpu_request,
                                         std::uint64_t mem_request_mb) const;

  struct Stats {
    std::uint64_t rank_hits = 0;    // Ranked() found its class
    std::uint64_t rank_builds = 0;  // Ranked() scored a class from scratch
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Ranked classes held now: at most kRankClasses.
  [[nodiscard]] std::size_t ranked_classes() const { return ranked_.size(); }
  /// Change-log entries held now: fewer than 2 * max(64, size()).
  [[nodiscard]] std::size_t change_log_length() const;

 private:
  class ChangeLog;

  /// A slot's key in `ranked`: its score for that pod shape, or absent.
  double RankKey(const RankedCandidates& ranked, std::uint32_t slot) const;
  void Rescore(RankedCandidates& ranked) const;
  void DropRankedClasses();

  // Handles; deque keeps them pointer-stable as the fleet grows.
  std::deque<NodeState> arena_;
  std::unordered_map<std::string, std::uint32_t> id_to_slot_;

  // SoA hot columns, indexed by slot. Memory capacity is immutable on
  // ComputeNode, so it is cached here; cpu capacity changes with operating
  // points, so the node caches it instead and is read through nodes_.
  std::vector<continuum::ComputeNode*> nodes_;
  std::vector<double> cpu_allocated_;
  std::vector<std::uint64_t> mem_allocated_mb_;
  std::vector<std::uint64_t> mem_capacity_mb_;
  std::vector<std::uint8_t> has_accelerator_;
  std::vector<std::uint8_t> cordoned_;
  std::vector<std::map<std::string, std::string>> labels_;

  // Inverted indexes.
  Bitmap all_;
  Bitmap not_cordoned_;
  Bitmap accelerator_;
  Bitmap security_at_least_[security::kNumSecurityLevels];
  std::map<std::string, Bitmap> by_layer_;              // by LayerName
  std::map<std::string, Bitmap> by_label_;              // "key\x1fvalue"

  // Ranked classes, and the slots whose score inputs changed since the
  // oldest of them was synced. The nodes hold the log weakly and append to
  // it on liveness and capacity changes.
  mutable std::vector<std::unique_ptr<RankedCandidates>> ranked_;
  mutable std::uint64_t rank_clock_ = 0;
  std::shared_ptr<ChangeLog> change_log_;
  mutable Stats stats_;
};

inline std::uint64_t NodeState::mem_capacity_mb() const {
  return owner_->mem_capacity_mb(slot_);
}
inline double NodeState::cpu_allocated() const {
  return owner_->cpu_allocated(slot_);
}
inline std::uint64_t NodeState::mem_allocated_mb() const {
  return owner_->mem_allocated_mb(slot_);
}
inline bool NodeState::cordoned() const { return owner_->cordoned(slot_); }
inline const std::map<std::string, std::string>& NodeState::labels() const {
  return owner_->labels(slot_);
}
inline bool NodeState::HasAccelerator() const {
  return owner_->has_accelerator(slot_);
}

}  // namespace myrtus::sched
