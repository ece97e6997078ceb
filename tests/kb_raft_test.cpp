// Raft consensus over the simulated network: elections, replication,
// leader failover, partitions via link failures, and client semantics.
#include <gtest/gtest.h>

#include <algorithm>

#include "kb/cluster.hpp"
#include "net/transport.hpp"

namespace myrtus::kb {
namespace {

using sim::SimTime;

struct Fixture {
  sim::Engine engine;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<KbCluster> cluster;

  explicit Fixture(std::size_t n, std::uint64_t seed = 1) {
    net::Topology topo;
    std::vector<net::HostId> hosts;
    for (std::size_t i = 0; i < n; ++i) hosts.push_back("kb-" + std::to_string(i));
    // Full mesh, 2ms links.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        topo.AddBidirectional(hosts[i], hosts[j], SimTime::Millis(2), 1e9);
      }
    }
    topo.AddHost("client");
    for (const auto& h : hosts) {
      topo.AddBidirectional("client", h, SimTime::Millis(2), 1e9);
    }
    net = std::make_unique<net::Network>(engine, std::move(topo), seed);
    cluster = std::make_unique<KbCluster>(*net, hosts, seed);
    cluster->Start();
  }

  void Settle(SimTime t = SimTime::Seconds(2)) { engine.RunUntil(engine.Now() + t); }
};

TEST(Raft, SingleNodeBecomesLeaderAndCommits) {
  Fixture f(1);
  f.Settle();
  EXPECT_EQ(f.cluster->LeaderIndex(), 0);
  bool done = false;
  f.cluster->replica(0).raft->Propose(
      util::Json::MakeObject().Set("op", "put").Set("key", "/k").Set("value", 7)
          .Set("lease", 0),
      [&](util::StatusOr<std::int64_t> r) {
        ASSERT_TRUE(r.ok());
        done = true;
      });
  f.Settle(SimTime::Millis(100));
  EXPECT_TRUE(done);
  auto kv = f.cluster->replica(0).store->Get("/k");
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(kv->value.as_int(), 7);
}

TEST(Raft, ThreeNodeClusterElectsExactlyOneLeader) {
  Fixture f(3);
  f.Settle();
  int leaders = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (f.cluster->replica(i).raft->role() == RaftRole::kLeader) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(Raft, CommittedEntryReachesAllReplicas) {
  Fixture f(3);
  f.Settle();
  const int leader = f.cluster->LeaderIndex();
  ASSERT_GE(leader, 0);
  bool done = false;
  f.cluster->replica(static_cast<std::size_t>(leader))
      .raft->Propose(util::Json::MakeObject()
                         .Set("op", "put")
                         .Set("key", "/x")
                         .Set("value", "v1")
                         .Set("lease", 0),
                     [&](util::StatusOr<std::int64_t> r) {
                       ASSERT_TRUE(r.ok()) << r.status();
                       done = true;
                     });
  f.Settle(SimTime::Seconds(1));
  ASSERT_TRUE(done);
  for (std::size_t i = 0; i < 3; ++i) {
    auto kv = f.cluster->replica(i).store->Get("/x");
    ASSERT_TRUE(kv.ok()) << "replica " << i;
    EXPECT_EQ(kv->value.as_string(), "v1");
  }
}

TEST(Raft, ProposeOnFollowerFailsWithLeaderHint) {
  Fixture f(3);
  f.Settle();
  const int leader = f.cluster->LeaderIndex();
  ASSERT_GE(leader, 0);
  const std::size_t follower = (static_cast<std::size_t>(leader) + 1) % 3;
  bool failed = false;
  // LINT: deferred-capture-ok(default) -- a follower rejects the proposal
  // synchronously, inside Propose; EXPECT_TRUE(failed) below relies on it
  f.cluster->replica(follower).raft->Propose(
      util::Json(1), [&](util::StatusOr<std::int64_t> r) {
        EXPECT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), util::StatusCode::kFailedPrecondition);
        EXPECT_NE(r.status().message().find("kb-"), std::string::npos);
        failed = true;
      });
  EXPECT_TRUE(failed);
}

TEST(Raft, LeaderCrashTriggersFailoverAndNewWritesSucceed) {
  Fixture f(5);
  f.Settle();
  const int old_leader = f.cluster->LeaderIndex();
  ASSERT_GE(old_leader, 0);
  f.cluster->Crash(static_cast<std::size_t>(old_leader));
  f.Settle(SimTime::Seconds(3));
  const int new_leader = f.cluster->LeaderIndex();
  ASSERT_GE(new_leader, 0);
  EXPECT_NE(new_leader, old_leader);

  bool done = false;
  f.cluster->replica(static_cast<std::size_t>(new_leader))
      .raft->Propose(util::Json::MakeObject()
                         .Set("op", "put")
                         .Set("key", "/after-failover")
                         .Set("value", 1)
                         .Set("lease", 0),
                     [&](util::StatusOr<std::int64_t> r) {
                       EXPECT_TRUE(r.ok()) << r.status();
                       done = true;
                     });
  f.Settle(SimTime::Seconds(1));
  EXPECT_TRUE(done);
}

TEST(Raft, RecoveredNodeCatchesUp) {
  Fixture f(3);
  f.Settle();
  int leader = f.cluster->LeaderIndex();
  ASSERT_GE(leader, 0);
  const std::size_t victim = (static_cast<std::size_t>(leader) + 1) % 3;
  f.cluster->Crash(victim);

  // Commit writes while the victim is down.
  for (int i = 0; i < 5; ++i) {
    f.cluster->replica(static_cast<std::size_t>(leader))
        .raft->Propose(util::Json::MakeObject()
                           .Set("op", "put")
                           .Set("key", "/k" + std::to_string(i))
                           .Set("value", i)
                           .Set("lease", 0),
                       [](util::StatusOr<std::int64_t>) {});
    f.Settle(SimTime::Millis(200));
  }
  f.cluster->Recover(victim);
  f.Settle(SimTime::Seconds(3));

  for (int i = 0; i < 5; ++i) {
    auto kv = f.cluster->replica(victim).store->Get("/k" + std::to_string(i));
    ASSERT_TRUE(kv.ok()) << "missing /k" << i << " on recovered replica";
    EXPECT_EQ(kv->value.as_int(), i);
  }
}

TEST(Raft, MinorityPartitionCannotCommit) {
  Fixture f(3);
  f.Settle();
  const int leader = f.cluster->LeaderIndex();
  ASSERT_GE(leader, 0);
  // Crash both followers: the leader keeps its role until it notices, but
  // nothing can commit.
  const std::size_t f1 = (static_cast<std::size_t>(leader) + 1) % 3;
  const std::size_t f2 = (static_cast<std::size_t>(leader) + 2) % 3;
  f.cluster->Crash(f1);
  f.cluster->Crash(f2);
  bool called = false;
  bool committed = false;
  f.cluster->replica(static_cast<std::size_t>(leader))
      .raft->Propose(util::Json::MakeObject()
                         .Set("op", "put")
                         .Set("key", "/orphan")
                         .Set("value", 1)
                         .Set("lease", 0),
                     [&](util::StatusOr<std::int64_t> r) {
                       called = true;
                       committed = r.ok();
                     });
  f.Settle(SimTime::Seconds(2));
  EXPECT_FALSE(committed);
  (void)called;  // may or may not have been failed yet; must not be committed
  EXPECT_FALSE(f.cluster->replica(static_cast<std::size_t>(leader))
                   .store->Get("/orphan")
                   .ok());
}

TEST(Raft, ClientPutGetThroughNetwork) {
  Fixture f(3);
  f.Settle();
  KbClient client(*f.net, *f.cluster, "client");
  bool put_done = false;
  client.Put("/app/config", util::Json::MakeObject().Set("replicas", 3),
             [&](util::Status s) {
               EXPECT_TRUE(s.ok()) << s;
               put_done = true;
             });
  f.Settle(SimTime::Seconds(2));
  ASSERT_TRUE(put_done);

  bool got = false;
  client.Get("/app/config", [&](util::StatusOr<util::Json> v) {
    ASSERT_TRUE(v.ok()) << v.status();
    EXPECT_EQ(v->at("replicas").as_int(), 3);
    got = true;
  });
  f.Settle(SimTime::Seconds(1));
  EXPECT_TRUE(got);
}

TEST(Raft, ClientSurvivesLeaderCrashMidStream) {
  Fixture f(5);
  f.Settle();
  KbClient client(*f.net, *f.cluster, "client");

  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    client.Put("/pre/" + std::to_string(i), util::Json(i),
               [&](util::Status s) {
                 if (s.ok()) ++completed;
               });
  }
  f.Settle(SimTime::Seconds(1));
  const int leader = f.cluster->LeaderIndex();
  ASSERT_GE(leader, 0);
  f.cluster->Crash(static_cast<std::size_t>(leader));

  int post_completed = 0;
  for (int i = 0; i < 3; ++i) {
    client.Put("/post/" + std::to_string(i), util::Json(i),
               [&](util::Status s) {
                 if (s.ok()) ++post_completed;
               });
  }
  f.Settle(SimTime::Seconds(8));
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(post_completed, 3) << "client should retry to the new leader";
}

TEST(Raft, LogsConvergeAcrossReplicasAfterChurn) {
  Fixture f(3, 99);
  f.Settle();
  KbClient client(*f.net, *f.cluster, "client");
  int acks = 0;
  for (int i = 0; i < 20; ++i) {
    client.Put("/churn/" + std::to_string(i), util::Json(i),
               [&](util::Status s) {
                 if (s.ok()) ++acks;
               });
  }
  f.Settle(SimTime::Seconds(5));
  ASSERT_EQ(acks, 20);
  // Every replica's store ends with identical contents.
  for (int i = 0; i < 20; ++i) {
    const std::string key = "/churn/" + std::to_string(i);
    for (std::size_t r = 0; r < 3; ++r) {
      auto kv = f.cluster->replica(r).store->Get(key);
      ASSERT_TRUE(kv.ok()) << key << " replica " << r;
      EXPECT_EQ(kv->value.as_int(), i);
    }
  }
}

// Regression: OnRequestVote used to re-arm the election timer whenever the
// candidate's term exceeded ours, even when the vote was NOT granted. A
// partitioned node that churned its term sky-high could then rejoin and
// perpetually suppress everyone else's elections — each denied RequestVote
// pushed their timeouts back — leaving the cluster leaderless after the real
// leader died. Denied votes must not touch the timer.
TEST(Raft, PartitionedStaleCandidateCannotSuppressElection) {
  Fixture f(5, 7);
  f.Settle();
  const int leader = f.cluster->LeaderIndex();
  ASSERT_GE(leader, 0);
  const std::size_t stale = (static_cast<std::size_t>(leader) + 1) % 5;
  const net::HostId stale_host = "kb-" + std::to_string(stale);

  // Partition the stale node by downing every link touching it.
  auto set_links = [&](bool up) {
    auto& topo = f.net->topology();
    for (std::size_t i = 0; i < topo.link_count(); ++i) {
      const net::Link& l = topo.link(i);
      if (l.from == stale_host || l.to == stale_host) topo.SetLinkUp(i, up);
    }
  };
  set_links(false);

  // Commit an entry the stale node will never see.
  bool committed = false;
  f.cluster->replica(static_cast<std::size_t>(leader))
      .raft->Propose(util::Json::MakeObject()
                         .Set("op", "put")
                         .Set("key", "/stable")
                         .Set("value", 1)
                         .Set("lease", 0),
                     [&](util::StatusOr<std::int64_t> r) {
                       ASSERT_TRUE(r.ok()) << r.status();
                       committed = true;
                     });
  // Let the isolated node churn candidacies and inflate its term.
  f.Settle(SimTime::Seconds(3));
  ASSERT_TRUE(committed);
  const std::int64_t stale_term = f.cluster->replica(stale).raft->current_term();
  EXPECT_GT(stale_term, f.cluster->replica(static_cast<std::size_t>(leader))
                            .raft->current_term());

  // Kill the leader, then heal the partition: the high-term stale candidate
  // rejoins exactly when the survivors need to elect among themselves.
  f.cluster->Crash(static_cast<std::size_t>(leader));
  set_links(true);
  f.Settle(SimTime::Seconds(5));

  const int new_leader = f.cluster->LeaderIndex();
  ASSERT_GE(new_leader, 0) << "stale candidate suppressed the election";
  EXPECT_NE(new_leader, leader);
  EXPECT_NE(static_cast<std::size_t>(new_leader), stale)
      << "a candidate missing committed entries must not win";
  // The committed entry survived the churn and reached the new leader.
  auto kv = f.cluster->replica(static_cast<std::size_t>(new_leader))
                .store->Get("/stable");
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(kv->value.as_int(), 1);
}

TEST(Raft, TermsAreMonotonic) {
  Fixture f(3);
  f.Settle();
  const std::int64_t t1 = f.cluster->replica(0).raft->current_term();
  const int leader = f.cluster->LeaderIndex();
  f.cluster->Crash(static_cast<std::size_t>(leader));
  f.Settle(SimTime::Seconds(3));
  f.cluster->Recover(static_cast<std::size_t>(leader));
  f.Settle(SimTime::Seconds(2));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(f.cluster->replica(i).raft->current_term(), t1);
  }
}

// Regression: ArmElectionTimer cancels the election timer's own handle from
// inside that timer's callback (through StartElection). Cancel after fire
// used to leave a tombstone that nothing ever erased, about one per
// election. Engine state must not grow with the number of elections.
TEST(Raft, EngineStateStaysFlatAcrossThousandsOfElections) {
  Fixture f(3);
  f.Settle();
  std::size_t live_max = 0;
  constexpr int kFailovers = 1000;
  for (int i = 0; i < kFailovers; ++i) {
    const int leader = f.cluster->LeaderIndex();
    ASSERT_GE(leader, 0) << "no leader before failover " << i;
    f.cluster->Crash(static_cast<std::size_t>(leader));
    f.Settle(SimTime::Seconds(1));
    f.cluster->Recover(static_cast<std::size_t>(leader));
    f.Settle(SimTime::Millis(500));
    live_max = std::max(live_max, f.engine.live_events());
  }
  std::int64_t term = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    term = std::max(term, f.cluster->replica(i).raft->current_term());
  }
  EXPECT_GE(term, kFailovers);  // at least one election per failover
  // Live events are the timers and in-flight RPCs of three replicas: a
  // small constant, where a per-election leak would reach the thousands.
  EXPECT_LE(live_max, 16u);
}

}  // namespace
}  // namespace myrtus::kb
