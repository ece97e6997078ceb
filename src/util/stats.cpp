#include "util/stats.hpp"

#include <algorithm>
#include <numeric>

namespace myrtus::util {

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

}  // namespace myrtus::util
