// Unit tests for src/util/units.hpp — the power/energy type pair and the
// SubSat clamp the unsigned-underflow rule recommends.
#include "util/units.hpp"

#include <cstdint>
#include <limits>
#include <type_traits>

#include <gtest/gtest.h>

namespace myrtus::util {
namespace {

template <typename A, typename B>
concept Addable = requires(A a, B b) { a + b; };
template <typename A, typename B>
concept Comparable = requires(A a, B b) { a < b; };

// The `energy_mw` bug shape — a power figure stored where energy belongs —
// does not compile: power converts to neither energy nor a raw double, and
// energy cannot be built from power at all.
static_assert(!std::is_convertible_v<MilliWatts, MilliJoules>);
static_assert(!std::is_convertible_v<MilliWatts, double>);
static_assert(!std::is_constructible_v<MilliJoules, MilliWatts>);
static_assert(!std::is_assignable_v<MilliJoules&, MilliWatts>);
static_assert(!std::is_convertible_v<MilliJoules, double>);
static_assert(!std::is_convertible_v<double, MilliWatts>);
static_assert(!std::is_convertible_v<double, MilliJoules>);
static_assert(!Addable<MilliWatts, MilliJoules>);
static_assert(!Addable<MilliJoules, double>);
static_assert(!Comparable<MilliWatts, MilliJoules>);
static_assert(std::is_same_v<decltype(MilliWatts(1.0) * 1.0), MilliJoules>);

TEST(SubSat, ClampsAtZero) {
  EXPECT_EQ(SubSat<std::uint64_t>(10, 3), 7u);
  EXPECT_EQ(SubSat<std::uint64_t>(3, 10), 0u);
  EXPECT_EQ(SubSat<std::uint64_t>(5, 5), 0u);
  EXPECT_EQ(SubSat<std::uint32_t>(0, std::numeric_limits<std::uint32_t>::max()),
            0u);
  // The whole point: the unclamped expression would wrap to a huge value.
  constexpr std::uint64_t cap = 4096;
  constexpr std::uint64_t alloc = 5120;  // peering reflection over-commit
  static_assert(SubSat(cap, alloc) == 0);
  static_assert(SubSat(alloc, cap) == 1024);
}

TEST(PowerEnergy, PowerTimesDurationIsEnergy) {
  // 200 mW sustained for 3 s = 600 mJ.
  static_assert((MilliWatts(200.0) * 3.0).value() == 600.0);
  EXPECT_DOUBLE_EQ((MilliWatts(200.0) * 0.0).value(), 0.0);
}

TEST(PowerEnergy, SameUnitArithmetic) {
  MilliJoules total;
  EXPECT_DOUBLE_EQ(total.value(), 0.0);
  total += MilliJoules(1.5);
  total += MilliJoules(2.25);
  EXPECT_DOUBLE_EQ(total.value(), 3.75);
  EXPECT_DOUBLE_EQ((total - MilliJoules(0.75)).value(), 3.0);
  EXPECT_DOUBLE_EQ((MilliWatts(100.0) + MilliWatts(20.0)).value(), 120.0);
  EXPECT_TRUE(MilliJoules(1.0) < MilliJoules(2.0));
  EXPECT_FALSE(MilliWatts(2.0) < MilliWatts(2.0));
}

}  // namespace
}  // namespace myrtus::util
