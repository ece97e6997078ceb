// ChaosController: scripted and seeded-random fault schedules, timeline
// recording, and byte-identical determinism across runs with the same seed.
#include <gtest/gtest.h>

#include "sim/chaos.hpp"

namespace myrtus::sim {
namespace {

struct Counters {
  int injected = 0;
  int restored = 0;
};

void RegisterCounting(ChaosController& chaos, const std::string& name,
                      Counters& c) {
  // LINT: deferred-capture-ok(c) -- every caller declares the Counters before
  // the controller, so the hooks die before the storage they point at
  chaos.RegisterTarget(
      name, [&c] { ++c.injected; }, [&c] { ++c.restored; });
}

TEST(Chaos, ScriptedFaultInjectsAndRestoresOnSchedule) {
  Engine engine;
  Counters c;  // declared before the controller: the hooks must die first
  ChaosController chaos(engine, 1);
  RegisterCounting(chaos, "link-0", c);

  chaos.ScheduleFault("link-0", SimTime::Millis(100), SimTime::Millis(50));
  engine.RunUntil(SimTime::Millis(120));
  EXPECT_TRUE(chaos.IsFaulty("link-0"));
  EXPECT_EQ(c.injected, 1);
  EXPECT_EQ(chaos.active_faults(), 1u);
  engine.RunUntil(SimTime::Millis(200));
  EXPECT_FALSE(chaos.IsFaulty("link-0"));
  EXPECT_EQ(c.restored, 1);
  EXPECT_EQ(chaos.active_faults(), 0u);

  ASSERT_EQ(chaos.timeline().size(), 2u);
  EXPECT_EQ(chaos.timeline()[0].at, SimTime::Millis(100));
  EXPECT_EQ(chaos.timeline()[0].target, "link-0");
  EXPECT_TRUE(chaos.timeline()[0].injected);
  EXPECT_EQ(chaos.timeline()[1].at, SimTime::Millis(150));
  EXPECT_EQ(chaos.timeline()[1].target, "link-0");
  EXPECT_FALSE(chaos.timeline()[1].injected);
}

TEST(Chaos, PermanentFaultStaysUntilRestoreAll) {
  Engine engine;
  Counters c;
  ChaosController chaos(engine, 1);
  RegisterCounting(chaos, "node-0", c);
  chaos.ScheduleFault("node-0", SimTime::Millis(10), SimTime::Zero());
  engine.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(chaos.IsFaulty("node-0"));
  chaos.RestoreAll();
  EXPECT_FALSE(chaos.IsFaulty("node-0"));
  EXPECT_EQ(c.restored, 1);
}

TEST(Chaos, DuplicateInjectionsDoNotDoubleFire) {
  Engine engine;
  Counters c;
  ChaosController chaos(engine, 1);
  RegisterCounting(chaos, "t", c);
  chaos.ScheduleFault("t", SimTime::Millis(10), SimTime::Zero());
  chaos.ScheduleFault("t", SimTime::Millis(20), SimTime::Zero());
  engine.Run();
  EXPECT_EQ(c.injected, 1) << "already-faulty target must not re-inject";
  EXPECT_EQ(chaos.injections(), 1u);
  EXPECT_EQ(chaos.timeline().size(), 1u);
}

TEST(Chaos, UnknownTargetIsIgnored) {
  Engine engine;
  ChaosController chaos(engine, 1);
  chaos.ScheduleFault("ghost", SimTime::Millis(1), SimTime::Millis(1));
  engine.Run();
  EXPECT_EQ(chaos.injections(), 0u);
  EXPECT_TRUE(chaos.timeline().empty());
}

TEST(Chaos, RandomScheduleAlternatesAndEndsHealthy) {
  Engine engine;
  Counters c;
  ChaosController chaos(engine, 99);
  RegisterCounting(chaos, "flappy", c);
  chaos.ScheduleRandomFaults("flappy", SimTime::Zero(), SimTime::Seconds(60),
                             /*mean_up=*/SimTime::Seconds(2),
                             /*mean_down=*/SimTime::Millis(500));
  engine.Run();
  EXPECT_GT(c.injected, 0);
  EXPECT_EQ(c.injected, c.restored) << "horizon must leave the target healthy";
  EXPECT_FALSE(chaos.IsFaulty("flappy"));
  // Strict inject/restore alternation in the recorded timeline.
  bool expect_inject = true;
  for (const ChaosEvent& ev : chaos.timeline()) {
    EXPECT_EQ(ev.injected, expect_inject);
    expect_inject = !expect_inject;
  }
}

TEST(Chaos, ScheduledFaultAfterControllerDestructionIsInert) {
  // Regression for the capture-lifetime fix: scheduled fault events hold a
  // shared liveness guard, so events still queued when the controller dies
  // become no-ops instead of calling into a destroyed object.
  Engine engine;
  Counters c;
  {
    ChaosController chaos(engine, 1);
    RegisterCounting(chaos, "t", c);
    chaos.ScheduleFault("t", SimTime::Millis(100), SimTime::Millis(50));
  }  // controller gone; inject@100ms and restore@150ms still queued
  engine.RunUntil(SimTime::Millis(200));
  EXPECT_EQ(c.injected, 0) << "detached event must not fire the inject hook";
  EXPECT_EQ(c.restored, 0);
  EXPECT_EQ(engine.Now(), SimTime::Millis(200));
}

TEST(Chaos, IdenticalSeedsProduceByteIdenticalTimelines) {
  const auto run = [](std::uint64_t seed) {
    Engine engine;
    ChaosController chaos(engine, seed);
    chaos.RegisterTarget("a", [] {}, [] {});
    chaos.RegisterTarget("b", [] {}, [] {});
    chaos.ScheduleRandomFaults("a", SimTime::Zero(), SimTime::Seconds(30),
                               SimTime::Seconds(1), SimTime::Millis(200));
    chaos.ScheduleRandomFaults("b", SimTime::Millis(7), SimTime::Seconds(30),
                               SimTime::Millis(800), SimTime::Millis(300));
    engine.Run();
    return chaos.TimelineString();
  };
  const std::string t1 = run(1234);
  const std::string t2 = run(1234);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2) << "same seed must replay the exact fault schedule";
  EXPECT_NE(t1, run(4321)) << "different seed must differ";
}

TEST(Chaos, ScheduleOrderDoesNotPerturbOtherTargetsDraws) {
  // Random draws happen at ScheduleRandomFaults() time, so adding a second
  // target AFTER the first keeps the first target's phase boundaries fixed.
  const auto first_only_lines = [](bool with_second) {
    Engine engine;
    ChaosController chaos(engine, 77);
    chaos.RegisterTarget("first", [] {}, [] {});
    chaos.ScheduleRandomFaults("first", SimTime::Zero(), SimTime::Seconds(20),
                               SimTime::Seconds(1), SimTime::Millis(250));
    if (with_second) {
      chaos.RegisterTarget("second", [] {}, [] {});
      chaos.ScheduleRandomFaults("second", SimTime::Zero(),
                                 SimTime::Seconds(20), SimTime::Millis(500),
                                 SimTime::Millis(100));
    }
    engine.Run();
    std::string out;
    for (const ChaosEvent& ev : chaos.timeline()) {
      if (ev.target != "first") continue;
      out += std::to_string(ev.at.ns) + (ev.injected ? " i\n" : " r\n");
    }
    return out;
  };
  EXPECT_EQ(first_only_lines(false), first_only_lines(true));
}

}  // namespace
}  // namespace myrtus::sim
