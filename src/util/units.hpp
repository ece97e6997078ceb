// Units of measure: the power/energy type pair the continuum's energy
// accounting travels in (operating points, execution estimates, node and
// fleet totals, KB node records), plus the saturating subtraction clamp the
// unsigned-underflow lint rule recommends.
//
// MilliWatts and MilliJoules are distinct types, so the compiler rejects
// storing a power figure as energy (the shape of the old `energy_mw` field
// that held millijoules), adding the two, or reading either as a bare double
// without `.value()`. The one bridge between them is physics: power
// sustained over a duration is energy, mW × s = mJ.
#pragma once

#include <type_traits>

namespace myrtus::util {

/// Saturating unsigned subtraction: `a - b` clamped at zero. The sanctioned
/// spelling for ledger-style frees (capacity - allocated) where the ledger
/// may legitimately run over and an unsigned wrap would read as "plenty of
/// room".
template <typename T>
[[nodiscard]] constexpr T SubSat(T a, T b) {
  static_assert(std::is_unsigned_v<T>,
                "SubSat clamps unsigned wrap; use std::max for signed types");
  return a > b ? a - b : T{0};
}

/// A double tagged with its unit. Construction from a raw double is
/// explicit, `value()` is the only way back out, and arithmetic stays within
/// one unit: same-type `+ - += <` and nothing more.
template <typename Unit>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double value) : value_(value) {}

  [[nodiscard]] constexpr double value() const { return value_; }

  constexpr Quantity& operator+=(Quantity other) {
    value_ += other.value_;
    return *this;
  }
  [[nodiscard]] friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity(a.value_ + b.value_);
  }
  [[nodiscard]] friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity(a.value_ - b.value_);
  }
  [[nodiscard]] friend constexpr bool operator<(Quantity a, Quantity b) {
    return a.value_ < b.value_;
  }

 private:
  double value_ = 0.0;
};

using MilliWatts = Quantity<struct MilliWattsUnit>;
using MilliJoules = Quantity<struct MilliJoulesUnit>;

/// Power sustained for `seconds` is energy: mW × s = mJ.
[[nodiscard]] constexpr MilliJoules operator*(MilliWatts power, double seconds) {
  return MilliJoules(power.value() * seconds);
}

}  // namespace myrtus::util
