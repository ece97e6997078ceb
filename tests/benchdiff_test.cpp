// Drives the real benchdiff binary end to end over the checked-in fixture
// artifacts: self-compare must be silent (exit 0), the seeded regression pair
// must trip the gate (exit 1), thresholds must be tunable, and junk input
// must be a usage error (exit 2) — the same contract CI's smoke step relies
// on.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <sys/wait.h>

namespace {

const std::string kBin = BENCHDIFF_BIN;
const std::string kFixtures = BENCHDIFF_FIXTURES_DIR;

int RunBenchdiff(const std::string& args) {
  const std::string cmd = kBin + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Benchdiff, SelfCompareIsClean) {
  EXPECT_EQ(RunBenchdiff(kFixtures + "/base.json " + kFixtures + "/base.json"),
            0);
}

TEST(Benchdiff, SeededRegressionTripsTheGate) {
  // commit_p95 +16.7% and commit_rate -26%: both past the default 10%.
  EXPECT_EQ(
      RunBenchdiff(kFixtures + "/base.json " + kFixtures + "/regressed.json"),
      1);
}

TEST(Benchdiff, ImprovementsNeverFire) {
  // Reversed direction: the "regressed" artifact as baseline makes the base
  // artifact a strict improvement on every gated metric.
  EXPECT_EQ(
      RunBenchdiff(kFixtures + "/regressed.json " + kFixtures + "/base.json"),
      0);
}

TEST(Benchdiff, ThresholdFlagWidensTheGate) {
  // Both deltas sit under 50%: a loose global threshold accepts them.
  EXPECT_EQ(RunBenchdiff("--threshold=50 " + kFixtures + "/base.json " +
                         kFixtures + "/regressed.json"),
            0);
}

TEST(Benchdiff, PerMetricOverrideTightensOneGate) {
  // Global threshold forgives everything except the p95, which gets its own
  // 5% budget and regresses by 16.7%.
  EXPECT_EQ(RunBenchdiff("--threshold=50 "
                         "--metric=commit_p95_ms_3_replicas=5 " +
                         kFixtures + "/base.json " + kFixtures +
                         "/regressed.json"),
            1);
}

TEST(Benchdiff, HashMetricMustMatchExactly) {
  // The candidate's hash is lower by one unit in 2^52: "better" by a
  // vanishing margin for a lower-is-better metric, yet any change to an
  // identity witness regresses, whatever the threshold.
  const std::string base = kFixtures + "/hash_base.json";
  const std::string changed = kFixtures + "/hash_changed.json";
  EXPECT_EQ(RunBenchdiff(base + " " + base), 0);
  EXPECT_EQ(RunBenchdiff("--threshold=50 " + base + " " + changed), 1);
  EXPECT_EQ(RunBenchdiff(changed + " " + base), 1);
}

TEST(Benchdiff, UsageAndParseErrorsExitTwo) {
  EXPECT_EQ(RunBenchdiff(""), 2);
  EXPECT_EQ(RunBenchdiff(kFixtures + "/base.json"), 2);
  EXPECT_EQ(RunBenchdiff(kFixtures + "/base.json /nonexistent.json"), 2);
}

}  // namespace
