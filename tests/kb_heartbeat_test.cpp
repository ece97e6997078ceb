// Lease-based liveness: registered components stay visible while beating,
// evaporate after crashing, and watchers observe the failure as a delete.
#include <gtest/gtest.h>

#include "kb/heartbeat.hpp"

namespace myrtus::kb {
namespace {

using sim::SimTime;

NodeRecord Edge(const std::string& id) {
  NodeRecord r;
  r.node_id = id;
  r.layer = "edge";
  r.kind = "hmpsoc";
  return r;
}

struct Fixture {
  sim::Engine engine;
  Store store;
  ResourceRegistry registry{store};
  HeartbeatService heartbeats{engine, store, SimTime::Seconds(1)};

  Fixture() { heartbeats.StartSweeper(); }
};

TEST(Heartbeat, BeatingComponentStaysRegistered) {
  Fixture f;
  f.heartbeats.Register(Edge("edge-0"));
  f.engine.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(f.registry.GetNode("edge-0").ok());
  EXPECT_TRUE(f.heartbeats.IsBeating("edge-0"));
  EXPECT_EQ(f.heartbeats.expirations(), 0u);
}

TEST(Heartbeat, CrashedComponentExpiresWithinTtl) {
  Fixture f;
  f.heartbeats.Register(Edge("edge-0"));
  f.heartbeats.Register(Edge("edge-1"));
  f.engine.RunUntil(SimTime::Seconds(5));
  f.heartbeats.StopBeating("edge-0");  // crash
  // Within ~1.5 * ttl the record must be gone; the healthy peer survives.
  f.engine.RunUntil(f.engine.Now() + SimTime::Millis(2000));
  EXPECT_FALSE(f.registry.GetNode("edge-0").ok());
  EXPECT_TRUE(f.registry.GetNode("edge-1").ok());
  EXPECT_EQ(f.heartbeats.expirations(), 1u);
}

TEST(Heartbeat, WatcherSeesFailureAsDelete) {
  Fixture f;
  std::vector<std::string> deleted;
  f.store.Watch("/registry/nodes/", [&](const WatchEvent& e) {
    if (e.type == WatchEvent::Type::kDelete) deleted.push_back(e.kv.key);
  });
  f.heartbeats.Register(Edge("edge-0"));
  f.engine.RunUntil(SimTime::Seconds(3));
  ASSERT_TRUE(deleted.empty());
  f.heartbeats.StopBeating("edge-0");
  f.engine.RunUntil(f.engine.Now() + SimTime::Seconds(3));
  ASSERT_EQ(deleted.size(), 1u);
  EXPECT_EQ(deleted[0], ResourceRegistry::NodeKey("edge-0"));
}

TEST(Heartbeat, ReRegistrationRevivesComponent) {
  Fixture f;
  f.heartbeats.Register(Edge("edge-0"));
  f.heartbeats.StopBeating("edge-0");
  f.engine.RunUntil(SimTime::Seconds(3));
  ASSERT_FALSE(f.registry.GetNode("edge-0").ok());
  f.heartbeats.Register(Edge("edge-0"));  // node rejoined
  f.engine.RunUntil(f.engine.Now() + SimTime::Seconds(3));
  EXPECT_TRUE(f.registry.GetNode("edge-0").ok());
  EXPECT_TRUE(f.heartbeats.IsBeating("edge-0"));
}

// Regression: Register() on an already-registered node erased the local
// session but left the old lease alive in the Store. The orphaned lease kept
// ticking and eventually expired, deleting the freshly re-registered record
// out from under the live node. Re-registration must revoke the old lease.
TEST(Heartbeat, ReRegistrationDoesNotLeakOldLease) {
  Fixture f;
  f.heartbeats.Register(Edge("edge-0"));
  f.engine.RunUntil(SimTime::Millis(500));
  ASSERT_EQ(f.store.lease_count(), 1u);

  // Re-register while the first lease is still live (e.g. agent restart).
  f.heartbeats.Register(Edge("edge-0"));
  EXPECT_EQ(f.store.lease_count(), 1u) << "old lease must be revoked";

  // Run well past several TTLs: the orphaned lease would have expired here
  // and torn the record down, counting a spurious expiration.
  f.engine.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(f.registry.GetNode("edge-0").ok());
  EXPECT_TRUE(f.heartbeats.IsBeating("edge-0"));
  EXPECT_EQ(f.heartbeats.expirations(), 0u);
  EXPECT_EQ(f.store.lease_count(), 1u);
}

// Regression: a registry write (the agent's one record write per observed
// node) replaced the record with lease_id 0, detaching it from its heartbeat
// lease, so a crashed component's record never expired.
TEST(Heartbeat, RegistryWritesKeepTheRecordLeased) {
  Fixture f;
  f.heartbeats.Register(Edge("edge-0"));
  NodeRecord status = Edge("edge-0");
  status.cpu_allocated = 1.5;
  status.trust = {.value = 0.7, .healing = false, .iteration = 1};
  f.registry.PutNode(status);
  f.engine.RunUntil(SimTime::Seconds(2));
  ASSERT_TRUE(f.registry.GetNode("edge-0").ok()) << "renewals still apply";
  f.heartbeats.StopBeating("edge-0");
  f.engine.RunUntil(f.engine.Now() + SimTime::Seconds(4));
  EXPECT_FALSE(f.registry.GetNode("edge-0").ok());
  EXPECT_EQ(f.heartbeats.expirations(), 1u);
}

TEST(Store, RevokeLeaseDetachesKeysWithoutDeleteEvents) {
  Fixture f;
  int deletes = 0;
  f.store.Watch("/x/", [&](const WatchEvent& e) {
    if (e.type == WatchEvent::Type::kDelete) ++deletes;
  });
  const std::int64_t lease = f.store.GrantLease(SimTime::Seconds(1).ns);
  f.store.Put("/x/a", "1", lease);
  ASSERT_EQ(f.store.lease_count(), 1u);
  EXPECT_TRUE(f.store.RevokeLease(lease));
  EXPECT_FALSE(f.store.RevokeLease(lease)) << "double revoke is a no-op";
  EXPECT_EQ(f.store.lease_count(), 0u);
  // The key survives, now unleased, and no phantom delete was observed.
  f.engine.RunUntil(SimTime::Seconds(5));
  EXPECT_TRUE(f.store.Get("/x/a").ok());
  EXPECT_EQ(deletes, 0);
}

TEST(Heartbeat, ManyComponentsIndependentLifecycles) {
  Fixture f;
  for (int i = 0; i < 20; ++i) {
    f.heartbeats.Register(Edge("edge-" + std::to_string(i)));
  }
  f.engine.RunUntil(SimTime::Seconds(2));
  // Crash the even-numbered half.
  for (int i = 0; i < 20; i += 2) {
    f.heartbeats.StopBeating("edge-" + std::to_string(i));
  }
  f.engine.RunUntil(f.engine.Now() + SimTime::Seconds(3));
  EXPECT_EQ(f.registry.ListNodes().size(), 10u);
  for (int i = 1; i < 20; i += 2) {
    EXPECT_TRUE(f.registry.GetNode("edge-" + std::to_string(i)).ok()) << i;
  }
}

}  // namespace
}  // namespace myrtus::kb
