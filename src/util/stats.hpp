// Sample statistics for the benches and experiment harnesses: reservoir-free
// percentile summaries (P² would be overkill; we keep bounded samples).
// Runtime counters and histograms live in telemetry::MetricsRegistry.
#pragma once

#include <cstddef>
#include <vector>

namespace myrtus::util {

/// Stores all samples (bounded use in benches/tests) and answers quantiles.
class Samples {
 public:
  void Add(double x) { xs_.push_back(x); sorted_ = false; }
  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  [[nodiscard]] double mean() const;
  /// Quantile by linear interpolation; q in [0,1]. Returns 0 when empty.
  [[nodiscard]] double Quantile(double q) const;
  [[nodiscard]] double p50() const { return Quantile(0.50); }
  [[nodiscard]] double p95() const { return Quantile(0.95); }
  [[nodiscard]] double p99() const { return Quantile(0.99); }
  [[nodiscard]] double max() const { return Quantile(1.0); }
  void Clear() { xs_.clear(); sorted_ = false; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
};

}  // namespace myrtus::util
