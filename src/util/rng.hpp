// Deterministic random number streams. Every stochastic component in the
// simulator owns its own named stream so experiments are reproducible and
// components can be re-seeded independently (a requirement for the
// failure-injection benches).
#pragma once

#include <cstdint>
#include <string_view>

namespace myrtus::util {

/// xoshiro256** with SplitMix64 seeding. Not cryptographic; simulation only.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { Seed(seed); }
  /// Derives a stream from a parent seed and a component name, so two
  /// components never share a sequence even with identical numeric seeds.
  Rng(std::uint64_t seed, std::string_view stream_name);
  /// Derives substream `index` of the named stream. Substreams are the unit
  /// of parallel determinism: a util::ParallelFor body that draws numbers
  /// builds substream `shard.index` (or the item index), so what it draws
  /// depends only on (seed, name, index) — never on how many workers
  /// executed the region or in what order.
  Rng(std::uint64_t seed, std::string_view stream_name, std::uint64_t index);

  void Seed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t NextU64();
  /// Uniform in [0, bound) without modulo bias (Lemire reduction).
  std::uint64_t NextBounded(std::uint64_t bound);
  /// Uniform double in [0, 1).
  double NextDouble();
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  /// Standard normal via Box-Muller (cached pair).
  double NextGaussian();
  /// Exponential with the given rate (mean 1/rate).
  double NextExponential(double rate);
  /// Poisson-distributed count (Knuth for small means, normal approx above 64).
  std::uint64_t NextPoisson(double mean);
  /// Bernoulli trial.
  bool NextBool(double p_true = 0.5);

  /// UniformRandomBitGenerator interface for <algorithm> interop.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return NextU64(); }

 private:
  std::uint64_t s_[4] = {};
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace myrtus::util
