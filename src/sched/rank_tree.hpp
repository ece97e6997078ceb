// Tournament tree over a fixed number of leaves, each holding a key. The root
// names the leaf with the greatest key, ties to the lowest leaf: the
// strict-`>` first-wins argmax of an ascending scan, kept current in
// O(log n) per changed leaf instead of O(n) per query. A key of -infinity
// marks a leaf absent; it never wins.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace myrtus::sched {

class RankTree {
 public:
  static constexpr double kAbsent = -std::numeric_limits<double>::infinity();

  /// Resizes to `leaves` leaves, all absent. Keeps the storage it has.
  void Reset(std::size_t leaves) {
    leaves_ = leaves;
    width_ = leaves <= 1 ? 1 : std::bit_ceil(leaves);
    keys_.assign(width_, kAbsent);
    winners_.assign(width_, 0);
  }
  [[nodiscard]] double key(std::size_t leaf) const { return keys_[leaf]; }

  /// Sets a leaf's key without replaying the matches; call Rebuild() after
  /// a batch of these.
  void SetKey(std::size_t leaf, double key) { keys_[leaf] = key; }
  /// Replays every match bottom-up: O(n).
  void Rebuild() {
    for (std::size_t k = width_ - 1; k >= 1; --k) Replay(k);
  }
  /// Sets a leaf's key and replays the matches on its path to the root.
  void Rekey(std::size_t leaf, double key) {
    keys_[leaf] = key;
    for (std::size_t k = (width_ + leaf) / 2; k >= 1; k /= 2) Replay(k);
  }

  /// The leaf with the greatest key, ties to the lowest leaf; none when
  /// every leaf is absent.
  [[nodiscard]] std::optional<std::uint32_t> Top() const {
    if (leaves_ == 0) return std::nullopt;
    const std::uint32_t leaf = width_ == 1 ? 0 : winners_[1];
    if (keys_[leaf] == kAbsent) return std::nullopt;
    return leaf;
  }

 private:
  // Node k < width_ is a match between nodes 2k and 2k+1; node k >= width_
  // is leaf k - width_. Every leaf under 2k is lower than every leaf under
  // 2k+1, so the left winner keeps a tie.
  [[nodiscard]] std::uint32_t Winner(std::size_t k) const {
    return k < width_ ? winners_[k] : static_cast<std::uint32_t>(k - width_);
  }
  void Replay(std::size_t k) {
    const std::uint32_t left = Winner(2 * k);
    const std::uint32_t right = Winner(2 * k + 1);
    winners_[k] = keys_[right] > keys_[left] ? right : left;
  }

  std::size_t leaves_ = 0;
  std::size_t width_ = 1;  // leaves rounded up to a power of two
  std::vector<double> keys_;
  std::vector<std::uint32_t> winners_;  // [1, width_): match winners
};

}  // namespace myrtus::sched
