// MVCC store semantics: revisions, ranges, watches, leases — and the
// ResourceRegistry schema on top.
#include <gtest/gtest.h>

#include <limits>

#include "kb/registry.hpp"
#include "kb/store.hpp"

namespace myrtus::kb {
namespace {

TEST(Store, PutBumpsRevisionAndVersion) {
  Store s;
  EXPECT_EQ(s.revision(), 0);
  s.Put("/a", util::Json(1));
  s.Put("/a", util::Json(2));
  auto kv = s.Get("/a");
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(kv->value.as_int(), 2);
  EXPECT_EQ(kv->create_revision, 1);
  EXPECT_EQ(kv->mod_revision, 2);
  EXPECT_EQ(kv->version, 2);
  EXPECT_EQ(s.revision(), 2);
}

TEST(Store, GetMissingIsNotFound) {
  Store s;
  EXPECT_EQ(s.Get("/nope").status().code(), util::StatusCode::kNotFound);
}

TEST(Store, DeleteRemovesAndBumpsRevision) {
  Store s;
  s.Put("/a", util::Json(1));
  auto rev = s.Delete("/a");
  ASSERT_TRUE(rev.has_value());
  EXPECT_EQ(*rev, 2);
  EXPECT_FALSE(s.Get("/a").ok());
  EXPECT_FALSE(s.Delete("/a").has_value());
  EXPECT_EQ(s.revision(), 2);  // deleting a missing key is not a mutation
}

TEST(Store, RecreatedKeyGetsNewCreateRevision) {
  Store s;
  s.Put("/a", util::Json(1));
  s.Delete("/a");
  s.Put("/a", util::Json(2));
  auto kv = s.Get("/a");
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(kv->create_revision, 3);
  EXPECT_EQ(kv->version, 1);
}

TEST(Store, RangeReturnsPrefixInOrder) {
  Store s;
  s.Put("/nodes/b", util::Json(2));
  s.Put("/nodes/a", util::Json(1));
  s.Put("/nodes/c", util::Json(3));
  s.Put("/other/x", util::Json(9));
  auto range = s.Range("/nodes/");
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0].key, "/nodes/a");
  EXPECT_EQ(range[2].key, "/nodes/c");
  EXPECT_TRUE(s.Range("/missing/").empty());
}

TEST(Store, WatchFiresOnPrefixOnly) {
  Store s;
  std::vector<std::string> seen;
  s.Watch("/nodes/", [&](const WatchEvent& e) { seen.push_back(e.kv.key); });
  s.Put("/nodes/a", util::Json(1));
  s.Put("/pods/x", util::Json(2));
  s.Put("/nodes/b", util::Json(3));
  EXPECT_EQ(seen, (std::vector<std::string>{"/nodes/a", "/nodes/b"}));
}

TEST(Store, WatchSeesDeletesWithLastValue) {
  Store s;
  s.Put("/a", util::Json(42));
  WatchEvent::Type seen_type{};
  util::Json last_value;
  s.Watch("/a", [&](const WatchEvent& e) {
    seen_type = e.type;
    last_value = e.kv.value;
  });
  s.Delete("/a");
  EXPECT_EQ(seen_type, WatchEvent::Type::kDelete);
  EXPECT_EQ(last_value.as_int(), 42);
}

TEST(Store, CancelWatchStopsEvents) {
  Store s;
  int events = 0;
  const std::int64_t id = s.Watch("/", [&](const WatchEvent&) { ++events; });
  s.Put("/a", util::Json(1));
  s.CancelWatch(id);
  s.Put("/b", util::Json(2));
  EXPECT_EQ(events, 1);
}

TEST(Store, UpdateHasPutsMvccEffectsAndFiresOneEvent) {
  Store s;
  s.Put("/a", util::Json::MakeObject().Set("n", 1));
  s.Put("/b", util::Json(0));
  std::vector<WatchEvent> seen;
  s.Watch("/a", [&](const WatchEvent& e) { seen.push_back(e); });
  const auto rev = s.Update("/a", [](util::Json& v) {
    v.Set("n", 2);
    return true;
  });
  ASSERT_TRUE(rev.has_value());
  EXPECT_EQ(*rev, 3);
  EXPECT_EQ(s.revision(), 3);
  auto kv = s.Get("/a");
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(kv->value.at("n").as_int(), 2);
  EXPECT_EQ(kv->create_revision, 1);
  EXPECT_EQ(kv->mod_revision, 3);
  EXPECT_EQ(kv->version, 2);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].type, WatchEvent::Type::kPut);
  EXPECT_EQ(seen[0].kv.value.at("n").as_int(), 2);
  EXPECT_EQ(seen[0].kv.mod_revision, 3);
  EXPECT_EQ(seen[0].kv.version, 2);
}

TEST(Store, UpdateOfAbsentOrDeclinedKeyIsNotAMutation) {
  Store s;
  s.Put("/a", util::Json(1));
  int events = 0;
  s.Watch("/", [&](const WatchEvent&) { ++events; });
  bool called = false;
  EXPECT_FALSE(s.Update("/missing", [&](util::Json&) {
    called = true;
    return true;
  }));
  EXPECT_FALSE(called) << "fn runs only on a present key";
  EXPECT_FALSE(s.Update("/a", [](util::Json&) { return false; }));
  EXPECT_EQ(s.revision(), 1);
  EXPECT_EQ(events, 0);
  EXPECT_FALSE(s.Get("/missing").ok());
  EXPECT_EQ(s.Get("/a")->version, 1);
}

TEST(Store, UpdateKeepsTheKeysLease) {
  Store s;
  const std::int64_t lease = s.GrantLease(1000);
  s.Put("/k", util::Json(1), lease);
  ASSERT_TRUE(s.Update("/k", [](util::Json& v) {
    v = util::Json(2);
    return true;
  }));
  EXPECT_EQ(s.Get("/k")->lease_id, lease);
  EXPECT_EQ(s.ExpireLeases(1000), 1u);
}

TEST(Store, UnmatchedKeyInvokesNoWatcher) {
  Store s;
  int calls = 0;
  s.Watch("/nodes/", [&](const WatchEvent&) { ++calls; });
  s.Watch("/pods/", [&](const WatchEvent&) { ++calls; });
  s.Put("/other/a", util::Json(1));
  s.Update("/other/a", [](util::Json&) { return true; });
  s.Delete("/other/a");
  EXPECT_EQ(calls, 0);
}

TEST(Store, WatcherCancelledMidEventStillReceivesIt) {
  Store s;
  std::vector<std::string> order;
  std::int64_t second = 0;
  s.Watch("/", [&](const WatchEvent&) {
    order.push_back("first");
    s.CancelWatch(second);
  });
  second = s.Watch("/", [&](const WatchEvent&) { order.push_back("second"); });
  s.Put("/a", util::Json(1));
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
  s.Put("/b", util::Json(2));  // the cancel holds from the next event on
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "first"}));
}

TEST(Store, WatcherAddedMidEventMissesIt) {
  Store s;
  int late_calls = 0;
  bool added = false;
  s.Watch("/", [&](const WatchEvent&) {
    if (added) return;
    added = true;
    s.Watch("/", [&](const WatchEvent&) { ++late_calls; });
  });
  s.Put("/a", util::Json(1));
  EXPECT_EQ(late_calls, 0);
  s.Put("/b", util::Json(2));
  EXPECT_EQ(late_calls, 1);
}

TEST(Store, WatchEventOutlivesReentrantDeleteOfItsKey) {
  Store s;
  util::Json second_saw;
  s.Watch("/a", [&](const WatchEvent& e) {
    if (e.type == WatchEvent::Type::kPut) s.Delete(e.kv.key);
  });
  s.Watch("/a", [&](const WatchEvent& e) {
    if (e.type == WatchEvent::Type::kPut) second_saw = e.kv.value;
  });
  s.Put("/a", util::Json(7));
  EXPECT_EQ(second_saw.as_int(), 7);
  EXPECT_FALSE(s.Get("/a").ok());
}

// skip_watch leaves one watch out of one commit: a write another watcher
// makes re-entrantly inside that commit still reaches it, and the skipped
// commit's own revision is returned, not the re-entrant write's.
TEST(Store, SkipWatchIsScopedToOneCommit) {
  Store s;
  std::vector<std::string> own;
  const std::int64_t own_watch =
      s.Watch("/n/", [&](const WatchEvent& e) { own.push_back(e.kv.key); });
  s.Watch("/n/", [&](const WatchEvent& e) {
    if (e.kv.key == "/n/a") s.Put("/n/b", util::Json(2));
  });
  EXPECT_EQ(s.Put("/n/a", util::Json(1), 0, own_watch), 1);
  EXPECT_EQ(own, std::vector<std::string>{"/n/b"});
  const auto set3 = [](util::Json& v) {
    v = util::Json(3);
    return true;
  };
  EXPECT_EQ(s.Update("/n/b", set3, own_watch), 3);
  EXPECT_EQ(own.size(), 1u);
}

TEST(Store, LeaseExpiryDeletesAttachedKeys) {
  Store s;
  const std::int64_t lease = s.GrantLease(1000);
  s.Put("/ephemeral/a", util::Json(1), lease);
  s.Put("/ephemeral/b", util::Json(2), lease);
  s.Put("/durable", util::Json(3));
  EXPECT_EQ(s.ExpireLeases(500), 0u);   // not yet due
  EXPECT_EQ(s.ExpireLeases(1000), 2u);  // due
  EXPECT_FALSE(s.Get("/ephemeral/a").ok());
  EXPECT_TRUE(s.Get("/durable").ok());
}

TEST(Store, LeaseRenewalPostponesExpiry) {
  Store s;
  const std::int64_t lease = s.GrantLease(1000);
  s.Put("/k", util::Json(1), lease);
  EXPECT_TRUE(s.RenewLease(lease, 5000));
  EXPECT_EQ(s.ExpireLeases(1000), 0u);
  EXPECT_EQ(s.ExpireLeases(5000), 1u);
  EXPECT_FALSE(s.RenewLease(lease, 9000));  // gone after expiry
}

TEST(Registry, NodeRecordRoundtrip) {
  NodeRecord r;
  r.node_id = "edge-3";
  r.layer = "edge";
  r.kind = "hmpsoc";
  r.cpu_capacity = 4;
  r.cpu_allocated = 1.5;
  r.mem_capacity_mb = 2048;
  r.security_level = 2;
  r.has_accelerator = true;
  r.energy_mj = util::MilliJoules(850.5);
  r.trust = {.value = 0.93, .healing = false, .iteration = 17};
  auto back = NodeRecord::FromJson(r.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->node_id, "edge-3");
  EXPECT_EQ(back->kind, "hmpsoc");
  EXPECT_DOUBLE_EQ(back->cpu_allocated, 1.5);
  EXPECT_DOUBLE_EQ(back->energy_mj.value(), 850.5);
  EXPECT_EQ(back->security_level, 2);
  EXPECT_TRUE(back->has_accelerator);
  EXPECT_EQ(back->trust, r.trust);
}

// TrustAt takes one TrustStep per iteration after the transition and stops
// at the step's fixed point, so a record written once per transition reads
// the value a per-iteration writer would have stored.
TEST(Registry, TrustAtStepsOncePerIterationUntilTheFixedPoint) {
  NodeRecord r;
  EXPECT_EQ(TrustAt(r, 0), 1.0);
  EXPECT_EQ(TrustAt(r, 1000), 1.0) << "never failed: healthy forever";

  r.trust = {.value = 0.7, .healing = false, .iteration = 10};
  EXPECT_EQ(TrustAt(r, 9), 0.7) << "before the transition";
  EXPECT_EQ(TrustAt(r, 10), 0.7);
  EXPECT_EQ(TrustAt(r, 12), 0.7 * 0.7 * 0.7);
  double decayed = 0.7;
  std::uint64_t steps = 0;
  while (TrustStep(decayed, false) != decayed) {
    decayed = TrustStep(decayed, false);
    ++steps;
  }
  EXPECT_GT(steps, 2000u) << "decay runs into the denormals";
  EXPECT_EQ(TrustAt(r, 10 + steps), decayed);

  r.trust = {.value = TrustStep(0.7 * 0.7 * 0.7, true), .healing = true,
             .iteration = 3};
  double healed = r.trust.value;
  steps = 0;
  while (TrustStep(healed, true) != healed) {
    healed = TrustStep(healed, true);
    ++steps;
  }
  EXPECT_LT(healed, 1.0) << "healing stalls just below 1.0 in double";
  EXPECT_EQ(TrustAt(r, 3 + steps), healed);
  EXPECT_NE(TrustAt(r, 3 + steps - 1), healed) << "one step short";
  // Stopping at the fixed point also makes any later iteration cheap.
  EXPECT_EQ(TrustAt(r, std::numeric_limits<std::uint64_t>::max()), healed);
}

TEST(Registry, NodeRecordRejectsGarbage) {
  EXPECT_FALSE(NodeRecord::FromJson(util::Json(3)).ok());
  EXPECT_FALSE(NodeRecord::FromJson(util::Json::MakeObject()).ok());
}

TEST(Registry, ListNodesFiltersByLayer) {
  Store store;
  ResourceRegistry reg(store);
  NodeRecord e{.node_id = "e0", .layer = "edge"};
  NodeRecord f{.node_id = "f0", .layer = "fog"};
  NodeRecord c{.node_id = "c0", .layer = "cloud"};
  reg.PutNode(e);
  reg.PutNode(f);
  reg.PutNode(c);
  EXPECT_EQ(reg.ListNodes().size(), 3u);
  EXPECT_EQ(reg.ListNodes("fog").size(), 1u);
  EXPECT_EQ(reg.ListNodes("fog")[0].node_id, "f0");
  reg.RemoveNode("f0");
  EXPECT_TRUE(reg.ListNodes("fog").empty());
}

TEST(Registry, WorkloadRecords) {
  Store store;
  ResourceRegistry reg(store);
  reg.PutWorkload("wl-1", util::Json::MakeObject().Set("node", "e0"));
  auto wl = reg.GetWorkload("wl-1");
  ASSERT_TRUE(wl.ok());
  EXPECT_EQ(wl->at("node").as_string(), "e0");
  reg.PutWorkload("wl-2", util::Json::MakeObject().Set("node", "f0"));
  auto all = reg.ListWorkloads();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "wl-1");
}

TEST(Registry, TelemetryRingBuffer) {
  Store store;
  ResourceRegistry reg(store);
  for (int i = 0; i < 300; ++i) {
    reg.AppendTelemetry("e0", "latency_ms", {i, static_cast<double>(i)});
  }
  auto series = reg.GetTelemetry("e0", "latency_ms");
  ASSERT_EQ(series.size(), 256u);
  EXPECT_EQ(series.front().at_ns, 44);  // oldest surviving sample
  EXPECT_EQ(series.back().at_ns, 299);
}

TEST(Registry, TelemetryKeepsNewestSamplesInOrderWithOneEventPerAppend) {
  Store store;
  ResourceRegistry reg(store);
  int puts = 0;
  store.Watch("/telemetry/", [&](const WatchEvent& e) {
    if (e.type == WatchEvent::Type::kPut) ++puts;
  });
  for (int i = 0; i < 300; ++i) {
    reg.AppendTelemetry("e0", "util", {i, 0.5 * i});
  }
  EXPECT_EQ(puts, 300);
  auto series = reg.GetTelemetry("e0", "util");
  ASSERT_EQ(series.size(), 256u);
  for (std::size_t k = 0; k < series.size(); ++k) {
    EXPECT_EQ(series[k].at_ns, static_cast<std::int64_t>(44 + k));
    EXPECT_DOUBLE_EQ(series[k].value, 0.5 * static_cast<double>(44 + k));
  }
  EXPECT_EQ(store.Get(ResourceRegistry::TelemetryKey("e0", "util"))->version,
            300);
}

TEST(Registry, NodeWritesKeepTheKeysLease) {
  Store store;
  ResourceRegistry reg(store);
  NodeRecord r{.node_id = "e0", .layer = "edge"};
  const std::int64_t lease = store.GrantLease(1000);
  store.Put(ResourceRegistry::NodeKey("e0"), r.ToJson(), lease);
  r.cpu_allocated = 2.0;
  r.trust = {.value = 0.5, .healing = false};
  reg.PutNode(r);
  EXPECT_EQ(store.Get(ResourceRegistry::NodeKey("e0"))->lease_id, lease);
}

// A GetNode → set trust → PutNode round trip stores exactly the record's
// ToJson bytes, and reads back as that record, for a stored record in
// ToJson's shape and for one that needs normalizing (an extra field, an int
// where ToJson writes a double).
TEST(Registry, PutNodeBytesEqualTheRecordRoundTrip) {
  NodeRecord canonical;
  canonical.node_id = "e0";
  canonical.layer = "edge";
  canonical.kind = "hmpsoc";
  canonical.cpu_capacity = 4.0;
  canonical.cpu_allocated = 1.25;
  canonical.mem_capacity_mb = 2048;
  canonical.mem_allocated_mb = 512;
  canonical.security_level = 2;
  canonical.has_accelerator = true;
  canonical.energy_mj = util::MilliJoules(850.5);
  canonical.trust = {.value = 0.93, .healing = true, .iteration = 4};
  util::Json noncanonical = util::Json::MakeObject()
                                .Set("node_id", "e1")
                                .Set("layer", "fog")
                                .Set("cpu_capacity", 8)
                                .Set("note", "extra");
  const std::vector<std::pair<std::string, util::Json>> records = {
      {"e0", canonical.ToJson()}, {"e1", noncanonical}};
  for (const auto& [id, stored] : records) {
    Store store;
    ResourceRegistry reg(store);
    store.Put(ResourceRegistry::NodeKey(id), stored);
    auto record = reg.GetNode(id);
    ASSERT_TRUE(record.ok());
    record->trust = {.value = 0.7, .healing = false, .iteration = 9};
    reg.PutNode(*record);
    auto kv = store.Get(ResourceRegistry::NodeKey(id));
    ASSERT_TRUE(kv.ok());
    EXPECT_EQ(kv->value.Dump(), record->ToJson().Dump()) << id;
    EXPECT_EQ(kv->version, 2) << id;
    auto back = reg.GetNode(id);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->ToJson().Dump(), record->ToJson().Dump()) << id;
  }
}

}  // namespace
}  // namespace myrtus::kb
