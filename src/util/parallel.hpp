// Deterministic fork-join runtime. The one sanctioned home for host threads
// in the MYRTUS tree (the lint determinism rule allowlists exactly this
// module): everything else draws parallelism through ParallelFor/ParallelMap,
// which guarantee that a region's result is a pure function of its inputs —
// never of the worker count or of thread scheduling.
//
// The determinism contract (see docs/PARALLELISM.md):
//   * Work over [0, n) is split into static contiguous shards whose count
//     and boundaries depend only on n — not on the configured worker count.
//   * Shard bodies may not communicate; results are committed to
//     shard-index- or item-indexed slots and folded serially in index order,
//     so floating-point reduction order is fixed.
//   * A body that needs randomness builds util::Rng(seed, stream, index)
//     from its shard or item index, never from a stream shared across shards.
// Consequence: SetParallelWorkers(0), (1) and (64) produce byte-identical
// output, which is what tests/parallel_test.cpp locks in.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/units.hpp"

namespace myrtus::util {

/// One static contiguous slice of a parallel region's index space.
struct Shard {
  std::size_t index = 0;  // shard number, 0..count-1
  std::size_t count = 1;  // total shards in this region
  std::size_t begin = 0;  // first item (inclusive)
  std::size_t end = 0;    // last item (exclusive)
  /// Items in this shard. The sharder guarantees begin <= end; the clamp
  /// keeps a hand-built degenerate Shard from wrapping.
  [[nodiscard]] std::size_t size() const { return SubSat(end, begin); }
};

/// Configured worker count. 0 and 1 both mean "run regions inline on the
/// calling thread"; N > 1 lazily starts N-1 pool threads (the caller is the
/// Nth worker). The default is 1: parallelism is opt-in per process (only
/// bench_ablation_parallel and the worker-count tests turn it on), and
/// because of the determinism contract the choice is invisible in every
/// computed result.
int ParallelWorkers();
void SetParallelWorkers(int workers);

/// Shard count for a region over [0, n): min(n, kParallelMaxShards). A pure
/// function of n so substream assignment survives worker-count changes.
std::size_t ParallelShardCount(std::size_t n);
inline constexpr std::size_t kParallelMaxShards = 64;

/// Monotonic counters describing pool usage since process start
/// (bench_ablation_parallel prints them).
struct ParallelPoolStats {
  std::uint64_t regions = 0;         // fork-join regions executed
  std::uint64_t pooled_regions = 0;  // of which ran on the worker pool
  std::uint64_t shards = 0;          // shards executed
  std::uint64_t items = 0;           // items covered by those shards
  int workers = 1;                   // current configured worker count
  int threads_started = 0;           // pool threads currently alive
};
ParallelPoolStats ParallelStats();

/// Runs `body(shard)` for every shard of [0, n). Blocks until all shards
/// finish. Bodies must only write state disjoint per shard (or per item);
/// the return from ParallelFor is a full barrier. Nested calls from inside a
/// body run inline (no worker re-entry), so helpers that parallelize
/// internally stay safe to call from a parallel region.
void ParallelFor(std::size_t n, const std::function<void(const Shard&)>& body);

/// Maps fn over [0, n), committing results in item order: out[i] = fn(i).
/// fn must be callable concurrently on distinct i.
template <typename T, typename Fn>
std::vector<T> ParallelMap(std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  ParallelFor(n, [&](const Shard& shard) {
    for (std::size_t i = shard.begin; i < shard.end; ++i) out[i] = fn(i);
  });
  return out;
}

}  // namespace myrtus::util
