// SLO engine: burn-rate arithmetic, multi-window (fast AND slow) agreement,
// breach/clear hysteresis, objective validation, and the breach -> fault
// trigger / transition-handler plumbing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "telemetry/slo.hpp"
#include "telemetry/telemetry.hpp"

namespace myrtus::telemetry {
namespace {

constexpr std::int64_t kMs = 1'000'000;  // ns per ms

SloObjective Availability(const std::string& name, double target,
                          double threshold) {
  SloObjective o;
  o.name = name;
  o.kind = SloObjective::Kind::kAvailability;
  o.target = target;
  o.burn_rate_threshold = threshold;
  return o;
}

TEST(SloEngine, RejectsMalformedObjectives) {
  SloEngine engine;
  EXPECT_FALSE(engine.AddObjective({}).ok());  // no name

  SloObjective bad_target = Availability("t", 1.0, 4.0);
  EXPECT_FALSE(engine.AddObjective(bad_target).ok());

  SloObjective inverted = Availability("w", 0.9, 4.0);
  inverted.fast_window_ns = 10'000 * kMs;
  inverted.slow_window_ns = 2'000 * kMs;
  EXPECT_FALSE(engine.AddObjective(inverted).ok());

  ASSERT_TRUE(engine.AddObjective(Availability("ok", 0.9, 4.0)).ok());
  EXPECT_FALSE(engine.AddObjective(Availability("ok", 0.9, 4.0)).ok());
  EXPECT_EQ(engine.objective_count(), 1u);
}

TEST(SloEngine, BurnRateIsBadFractionOverBudget) {
  SloEngine engine;
  // target 0.9 -> error budget 0.1: a 50% bad mix burns 5x the budget.
  ASSERT_TRUE(engine.AddObjective(Availability("avail", 0.9, 4.0)).ok());
  for (int i = 0; i < 10; ++i) {
    engine.RecordAvailability("avail", i % 2 == 0, i * kMs);
  }
  engine.Evaluate(10 * kMs);
  const SloStatus* status = engine.Find("avail");
  ASSERT_NE(status, nullptr);
  EXPECT_DOUBLE_EQ(status->fast_burn_rate, 5.0);
  EXPECT_DOUBLE_EQ(status->slow_burn_rate, 5.0);
  EXPECT_EQ(status->observations, 10u);
  EXPECT_EQ(status->bad, 5u);
  // Both windows >= 4.0 -> breach.
  EXPECT_EQ(status->state, SloState::kBreach);
  EXPECT_EQ(status->breaches, 1u);
}

TEST(SloEngine, LatencyObjectiveClassifiesByThreshold) {
  SloEngine engine;
  SloObjective o;
  o.name = "lat";
  o.kind = SloObjective::Kind::kLatency;
  o.latency_threshold_ms = 100.0;
  o.target = 0.5;
  ASSERT_TRUE(engine.AddObjective(o).ok());
  engine.RecordLatencyMs("lat", 50.0, 1 * kMs);    // good
  engine.RecordLatencyMs("lat", 100.0, 2 * kMs);   // good (<=)
  engine.RecordLatencyMs("lat", 250.0, 3 * kMs);   // bad
  engine.RecordLatencyMs("lat", 1000.0, 4 * kMs);  // bad
  engine.Evaluate(5 * kMs);
  const SloStatus* status = engine.Find("lat");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->bad, 2u);
  // bad fraction 0.5 / budget 0.5 = burn 1.0.
  EXPECT_DOUBLE_EQ(status->fast_burn_rate, 1.0);
  EXPECT_EQ(status->state, SloState::kOk);
}

TEST(SloEngine, MismatchedKindObservationsAreIgnored) {
  SloEngine engine;
  ASSERT_TRUE(engine.AddObjective(Availability("avail", 0.9, 4.0)).ok());
  engine.RecordLatencyMs("avail", 1e9, 1 * kMs);  // wrong kind: dropped
  engine.RecordLatencyMs("ghost", 1e9, 1 * kMs);  // unknown: dropped
  engine.Evaluate(2 * kMs);
  EXPECT_EQ(engine.Find("avail")->observations, 0u);
}

TEST(SloEngine, BreachNeedsBothWindowsBurning) {
  // Fast window 2s, slow 10s. Seed 8 seconds of clean history, then a burst
  // of failures in the last 2 seconds: the fast window saturates but the slow
  // window still holds enough good observations to stay under threshold.
  SloEngine engine;
  ASSERT_TRUE(engine.AddObjective(Availability("avail", 0.9, 4.0)).ok());
  for (int i = 0; i < 80; ++i) {  // t = 0..7.9s, all good
    engine.RecordAvailability("avail", true, i * 100 * kMs);
  }
  for (int i = 80; i < 100; ++i) {  // t = 8..9.9s, all bad
    engine.RecordAvailability("avail", false, i * 100 * kMs);
  }
  engine.Evaluate(10'000 * kMs);
  const SloStatus* status = engine.Find("avail");
  ASSERT_NE(status, nullptr);
  EXPECT_GE(status->fast_burn_rate, 4.0);  // recent window: all bad
  EXPECT_LT(status->slow_burn_rate, 4.0);  // 20 bad / ~100 total = burn ~2
  EXPECT_EQ(status->state, SloState::kOk) << "slow window must veto the blip";

  // Keep failing: once the slow window fills with failures too, breach.
  for (int i = 100; i < 140; ++i) {
    engine.RecordAvailability("avail", false, i * 100 * kMs);
  }
  engine.Evaluate(14'000 * kMs);
  EXPECT_EQ(status->state, SloState::kBreach);
  EXPECT_EQ(status->breaches, 1u);
}

TEST(SloEngine, ClearRequiresHysteresisMargin) {
  // threshold 4.0, clear_fraction 0.5 -> clears only below burn 2.0.
  SloEngine engine;
  SloObjective o = Availability("avail", 0.9, 4.0);
  o.clear_fraction = 0.5;
  ASSERT_TRUE(engine.AddObjective(o).ok());

  // Drive into breach: all-bad everywhere.
  for (int i = 0; i < 100; ++i) {
    engine.RecordAvailability("avail", false, i * 100 * kMs);
  }
  engine.Evaluate(10'000 * kMs);
  const SloStatus* status = engine.Find("avail");
  ASSERT_EQ(status->state, SloState::kBreach);

  // Recover to a mix that burns ~3: below the fire threshold but above the
  // clear line -> the alert must NOT flap back to ok.
  for (int i = 100; i < 200; ++i) {
    engine.RecordAvailability("avail", i % 10 < 7, i * 100 * kMs);  // 30% bad
  }
  engine.Evaluate(20'000 * kMs);
  EXPECT_GT(status->fast_burn_rate, 2.0);
  EXPECT_LT(status->fast_burn_rate, 4.0);
  EXPECT_EQ(status->state, SloState::kBreach) << "hysteresis must hold";

  // Full recovery: burn well under 2.0 in both windows -> clears.
  for (int i = 200; i < 320; ++i) {
    engine.RecordAvailability("avail", true, i * 100 * kMs);
  }
  engine.Evaluate(32'000 * kMs);
  EXPECT_EQ(status->state, SloState::kOk);
  EXPECT_EQ(status->breaches, 1u);  // one breach episode, not a flap storm
}

TEST(SloEngine, OldObservationsEvictFromWindows) {
  SloEngine engine;
  ASSERT_TRUE(engine.AddObjective(Availability("avail", 0.9, 4.0)).ok());
  for (int i = 0; i < 50; ++i) {
    engine.RecordAvailability("avail", false, i * 100 * kMs);
  }
  engine.Evaluate(5'000 * kMs);
  EXPECT_EQ(engine.Find("avail")->state, SloState::kBreach);
  // 30 simulated seconds later every bucket is stale: burn decays to zero
  // and the breach clears.
  engine.Evaluate(35'000 * kMs);
  EXPECT_DOUBLE_EQ(engine.Find("avail")->fast_burn_rate, 0.0);
  EXPECT_DOUBLE_EQ(engine.Find("avail")->slow_burn_rate, 0.0);
  EXPECT_EQ(engine.Find("avail")->state, SloState::kOk);
}

TEST(SloEngine, TransitionHandlerAndBreachedListFire) {
  SloEngine engine;
  ASSERT_TRUE(engine.AddObjective(Availability("a.avail", 0.9, 4.0)).ok());
  ASSERT_TRUE(engine.AddObjective(Availability("b.avail", 0.9, 4.0)).ok());
  std::vector<std::string> transitions;
  // LINT: deferred-capture-ok(default) -- the handler only runs inside the
  // Evaluate() call below; engine and transitions die with this frame
  engine.set_transition_handler(
      [&](const std::string& name, const SloStatus&, bool breached) {
        transitions.push_back((breached ? "breach:" : "clear:") + name);
      });
  for (int i = 0; i < 100; ++i) {
    engine.RecordAvailability("a.avail", false, i * 100 * kMs);
    engine.RecordAvailability("b.avail", true, i * 100 * kMs);
  }
  engine.Evaluate(10'000 * kMs);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0], "breach:a.avail");
  EXPECT_TRUE(engine.any_breached());
  EXPECT_EQ(engine.Breached(), std::vector<std::string>{"a.avail"});

  engine.Evaluate(40'000 * kMs);  // windows empty -> clear
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[1], "clear:a.avail");
  EXPECT_FALSE(engine.any_breached());
}

TEST(SloEngine, BreachFiresTheFaultTrigger) {
  ResetGlobal();
  SetEnabled(true);
  SloEngine engine;
  ASSERT_TRUE(engine.AddObjective(Availability("fleet", 0.9, 4.0)).ok());
  for (int i = 0; i < 100; ++i) {
    engine.RecordAvailability("fleet", false, i * 100 * kMs);
  }
  engine.Evaluate(10'000 * kMs);

  const Tracer& tracer = Global().tracer;
  EXPECT_EQ(tracer.triggers(), 1u);
  EXPECT_EQ(tracer.last_trigger(), "slo.breach:fleet");
  SetEnabled(false);
  ResetGlobal();
}

}  // namespace
}  // namespace myrtus::telemetry
