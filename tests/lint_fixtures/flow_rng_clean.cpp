// Fixture: rng-substream-discipline must stay silent — parallel bodies use
// the 3-arg indexed constructor (shard or item index), and every literal
// (seed, stream) identity is unique.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fx {

std::vector<double> ItemSubstream(const std::vector<double>& xs,
                                  std::uint64_t seed) {
  return util::ParallelMap<double>(xs.size(), [&, seed](std::size_t i) {
    util::Rng rng(seed, "fx.item", i);  // 3-arg keyed by item: sanctioned
    return xs[i] + rng.Uniform();
  });
}

void IndexedSubstream(std::vector<double>& xs, std::uint64_t seed) {
  util::ParallelFor(xs.size(), [&, seed](const util::Shard& shard) {
    util::Rng rng(seed, "fx.indexed", shard.index);  // 3-arg: sanctioned
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      xs[i] += rng.Uniform();
    }
  });
}

double SerialAmbient(std::uint64_t seed) {
  util::Rng rng(seed, "fx.serial");  // outside any parallel body: fine
  return rng.Uniform();
}

util::Rng DistinctA() { return util::Rng(42, "fx.a"); }
util::Rng DistinctB() { return util::Rng(42, "fx.b"); }
util::Rng DistinctSeed() { return util::Rng(7, "fx.a"); }

util::Rng VariableSeedA(std::uint64_t seed) { return util::Rng(seed, "fx.v"); }
util::Rng VariableSeedB(std::uint64_t seed) { return util::Rng(seed, "fx.v"); }

}  // namespace fx
