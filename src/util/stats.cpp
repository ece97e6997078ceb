#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace myrtus::util {

void RunningStat::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_ + other.n_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / n;
  mean_ = (mean_ * static_cast<double>(n_) +
           other.mean_ * static_cast<double>(other.n_)) / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ += other.n_;
}

void RunningStat::Reset() { *this = RunningStat{}; }

double RunningStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  return std::accumulate(xs_.begin(), xs_.end(), 0.0) /
         static_cast<double>(xs_.size());
}

double Samples::Quantile(double q) const {
  if (xs_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
}

void Log2Histogram::Add(double x) {
  ++total_;
  if (x < 1.0) {
    ++buckets_[0];
    return;
  }
  const int b = std::min<int>(63, 1 + static_cast<int>(std::log2(x)));
  ++buckets_[static_cast<std::size_t>(b)];
}

std::string Log2Histogram::ToString() const {
  std::string out;
  std::uint64_t lo = 0;
  std::uint64_t hi = 1;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) {
      out += '[';
      out += std::to_string(lo);
      out += ", ";
      out += std::to_string(hi);
      out += "): ";
      out += std::to_string(buckets_[i]);
      out += '\n';
    }
    lo = hi;
    hi <<= 1;
  }
  return out;
}

}  // namespace myrtus::util
