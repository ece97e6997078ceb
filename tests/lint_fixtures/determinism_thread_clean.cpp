// FIXTURE: the sanctioned way to go parallel — util::ParallelFor's static
// sharding and per-shard RNG substreams keep results independent of worker
// count and scheduling, so none of this may trip the determinism rule.
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fixture {

double MappedSum(const std::vector<double>& xs) {
  const std::vector<double> squares = myrtus::util::ParallelMap<double>(
      xs.size(), [&](std::size_t i) { return xs[i] * xs[i]; });
  double sum = 0.0;
  for (const double s : squares) sum += s;  // serial fold in item order
  return sum;
}

void SeededFanOut(std::vector<double>& out) {
  myrtus::util::ParallelFor(
      out.size(), [&](const myrtus::util::Shard& shard) {
        myrtus::util::Rng rng(0xFEEDu, "fixture.fanout", shard.index);
        for (std::size_t i = shard.begin; i < shard.end; ++i) {
          out[i] = rng.NextDouble();
        }
      });
}

}  // namespace fixture
