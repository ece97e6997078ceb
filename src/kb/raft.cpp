#include "kb/raft.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace myrtus::kb {
namespace {

util::Json EntryToJson(const LogEntry& e) {
  return util::Json::MakeObject().Set("term", e.term).Set("cmd", e.command);
}

LogEntry EntryFromJson(const util::Json& j) {
  return LogEntry{j.at("term").as_int(), j.at("cmd")};
}

}  // namespace

std::string_view RaftRoleName(RaftRole role) {
  switch (role) {
    case RaftRole::kFollower: return "follower";
    case RaftRole::kCandidate: return "candidate";
    case RaftRole::kLeader: return "leader";
  }
  return "?";
}

RaftNode::RaftNode(net::Network& network, net::HostId self,
                   std::vector<net::HostId> peers, std::uint64_t seed,
                   ApplyFn apply, RaftConfig config)
    : network_(network),
      self_(std::move(self)),
      rng_(seed, self_),
      apply_(std::move(apply)),
      config_(config) {
  for (net::HostId& p : peers) {
    if (p != self_) peers_.push_back(std::move(p));
  }
  log_.emplace_back();  // sentinel at index 0 (term 0, empty command)
}

void RaftNode::Start() {
  network_.RegisterRpc(self_, "raft.request_vote",
                       [this](const net::HostId&, const util::Json& req) {
                         if (crashed_) {
                           return util::StatusOr<util::Json>(
                               util::Status::Unavailable("crashed"));
                         }
                         return OnRequestVote(req);
                       });
  network_.RegisterRpc(self_, "raft.append_entries",
                       [this](const net::HostId&, const util::Json& req) {
                         if (crashed_) {
                           return util::StatusOr<util::Json>(
                               util::Status::Unavailable("crashed"));
                         }
                         return OnAppendEntries(req);
                       });
  ArmElectionTimer();
}

void RaftNode::Crash() {
  crashed_ = true;
  role_ = RaftRole::kFollower;
  known_leader_.clear();
  DisarmTimers();
  FailPendingProposals(util::Status::Unavailable("node crashed"));
  next_index_.clear();
  match_index_.clear();
  append_in_flight_.clear();
}

void RaftNode::Recover() {
  if (!crashed_) return;
  crashed_ = false;
  role_ = RaftRole::kFollower;
  // commit_index/last_applied are volatile in Raft; they are rebuilt from the
  // leader's commit index. The state machine restart is modeled by replaying
  // from scratch being unnecessary here: apply_ was driven only by committed
  // entries which are stable, so we keep last_applied_.
  ArmElectionTimer();
}

void RaftNode::DisarmTimers() {
  network_.engine().Cancel(election_timer_);
  network_.engine().Cancel(heartbeat_timer_);
  election_timer_ = {};
  heartbeat_timer_ = {};
  ++timer_epoch_;
}

void RaftNode::ArmElectionTimer() {
  network_.engine().Cancel(election_timer_);
  const std::int64_t span =
      config_.election_timeout_max.ns - config_.election_timeout_min.ns;
  const sim::SimTime timeout =
      config_.election_timeout_min +
      sim::SimTime::Nanos(static_cast<std::int64_t>(
          rng_.NextDouble() * static_cast<double>(span)));
  const std::uint64_t epoch = timer_epoch_;
  election_timer_ = network_.engine().ScheduleAfter(timeout, [this, epoch] {
    if (crashed_ || epoch != timer_epoch_) return;
    if (role_ != RaftRole::kLeader) StartElection();
  });
}

void RaftNode::BecomeFollower(std::int64_t term) {
  if (term > current_term_) {
    current_term_ = term;
    voted_for_.clear();
  }
  if (role_ == RaftRole::kLeader) {
    network_.engine().Cancel(heartbeat_timer_);
    heartbeat_timer_ = {};
    FailPendingProposals(util::Status::Aborted("lost leadership"));
    if (telemetry::Enabled()) {
      // Leadership loss is a canonical "what just happened?" moment: dump the
      // span ring when dumps are armed.
      telemetry::Global().tracer.Trigger("raft.leadership_lost:" + self_);
    }
  }
  role_ = RaftRole::kFollower;
  ArmElectionTimer();
}

void RaftNode::StartElection() {
  role_ = RaftRole::kCandidate;
  ++current_term_;
  voted_for_ = self_;
  votes_received_ = 1;  // own vote
  election_term_ = current_term_;
  known_leader_.clear();
  ArmElectionTimer();  // retry if the election stalls

  const std::size_t majority = (peers_.size() + 1) / 2 + 1;
  if (votes_received_ >= majority) {  // single-node cluster wins instantly
    BecomeLeader();
    return;
  }
  util::Json req = util::Json::MakeObject()
                       .Set("term", current_term_)
                       .Set("candidate", self_)
                       .Set("last_log_index", LastLogIndex())
                       .Set("last_log_term", LastLogTerm());
  net::RetryPolicy vote_policy = config_.rpc_retry;
  vote_policy.attempt_timeout = config_.election_timeout_min;
  vote_policy.overall_deadline = config_.election_timeout_min * 2;
  for (const net::HostId& peer : peers_) {
    network_.CallWithRetry(
        self_, peer, "raft.request_vote", req,
        [this, majority](util::StatusOr<util::Json> reply) {
          if (crashed_ || !reply.ok()) return;
          const std::int64_t term = reply->at("term").as_int();
          if (term > current_term_) {
            BecomeFollower(term);
            return;
          }
          if (role_ != RaftRole::kCandidate ||
              current_term_ != election_term_) {
            return;  // stale reply from a previous election
          }
          if (reply->at("granted").as_bool() &&
              ++votes_received_ >= majority) {
            BecomeLeader();
          }
        },
        vote_policy);
  }
}

void RaftNode::BecomeLeader() {
  role_ = RaftRole::kLeader;
  known_leader_ = self_;
  if (telemetry::Enabled()) {
    telemetry::Global().metrics.Add("myrtus_kb_raft_elections_total", 1.0,
                                    {{"leader", self_}});
  }
  network_.engine().Cancel(election_timer_);
  election_timer_ = {};
  for (const net::HostId& peer : peers_) {
    next_index_[peer] = LastLogIndex() + 1;
    match_index_[peer] = 0;
    append_in_flight_[peer] = false;
  }
  BroadcastHeartbeat();
  const std::uint64_t epoch = timer_epoch_;
  heartbeat_timer_ = network_.engine().SchedulePeriodic(
      config_.heartbeat_interval, [this, epoch] {
        if (crashed_ || epoch != timer_epoch_ || role_ != RaftRole::kLeader) {
          return;
        }
        BroadcastHeartbeat();
      });
}

void RaftNode::BroadcastHeartbeat() {
  for (const net::HostId& peer : peers_) SendAppendEntries(peer);
}

void RaftNode::SendAppendEntries(const net::HostId& peer) {
  if (append_in_flight_[peer]) return;  // serialize per peer
  append_in_flight_[peer] = true;

  const std::int64_t prev_index = next_index_[peer] - 1;
  util::Json entries = util::Json::MakeArray();
  std::size_t count = 0;
  for (std::int64_t i = next_index_[peer];
       i <= LastLogIndex() && count < config_.max_entries_per_append;
       ++i, ++count) {
    entries.Append(EntryToJson(log_[static_cast<std::size_t>(i)]));
  }
  util::Json req =
      util::Json::MakeObject()
          .Set("term", current_term_)
          .Set("leader", self_)
          .Set("prev_log_index", prev_index)
          .Set("prev_log_term",
               log_[static_cast<std::size_t>(prev_index)].term)
          .Set("entries", std::move(entries))
          .Set("leader_commit", commit_index_);
  const std::int64_t sent_up_to =
      prev_index + static_cast<std::int64_t>(count);
  const std::int64_t term_at_send = current_term_;

  // One heartbeat interval per attempt is ~10x the mesh RTT and keeps the
  // whole chain shorter than the old single-attempt timeout (hb*4), so a
  // lost append blocks this peer's pipeline only briefly.
  net::RetryPolicy append_policy = config_.rpc_retry;
  append_policy.attempt_timeout = config_.heartbeat_interval;
  append_policy.overall_deadline = config_.heartbeat_interval * 4;
  network_.CallWithRetry(
      self_, peer, "raft.append_entries", std::move(req),
      [this, peer, sent_up_to, term_at_send](util::StatusOr<util::Json> reply) {
        append_in_flight_[peer] = false;
        if (crashed_ || role_ != RaftRole::kLeader ||
            current_term_ != term_at_send) {
          return;
        }
        if (!reply.ok()) {
          // Whole retry chain failed. If entries arrived while it was in
          // flight, relaunch immediately with a fresh batch — a retried
          // request replays its original (stale) payload, so a concurrent
          // proposal would otherwise idle until the next heartbeat. With
          // nothing new, let the heartbeat re-drive (avoids hot-looping on
          // a dead peer).
          if (LastLogIndex() > sent_up_to) SendAppendEntries(peer);
          return;
        }
        const std::int64_t term = reply->at("term").as_int();
        if (term > current_term_) {
          BecomeFollower(term);
          return;
        }
        if (reply->at("success").as_bool()) {
          match_index_[peer] = std::max(match_index_[peer], sent_up_to);
          next_index_[peer] = match_index_[peer] + 1;
          AdvanceCommitIndex();
          if (next_index_[peer] <= LastLogIndex()) SendAppendEntries(peer);
        } else {
          // Back off; the conflict hint accelerates convergence.
          const std::int64_t hint = reply->at("conflict_index").as_int(1);
          next_index_[peer] = std::max<std::int64_t>(1, std::min(hint, next_index_[peer] - 1));
          SendAppendEntries(peer);
        }
      },
      append_policy);
}

util::StatusOr<util::Json> RaftNode::OnRequestVote(const util::Json& req) {
  const std::int64_t term = req.at("term").as_int();
  const std::string candidate = req.at("candidate").as_string();
  if (term > current_term_) {
    // Step down WITHOUT re-arming the election timer (BecomeFollower would):
    // a candidacy we end up not voting for must not keep deferring our own
    // election, or a partitioned node with a stale log can suppress the
    // cluster's liveness indefinitely. The timer is reset below only when
    // the vote is granted. Exception: a deposed leader has no election timer
    // at all, so it must arm one here or it would never stand again.
    const bool was_leader = role_ == RaftRole::kLeader;
    current_term_ = term;
    voted_for_.clear();
    if (was_leader) {
      network_.engine().Cancel(heartbeat_timer_);
      heartbeat_timer_ = {};
      FailPendingProposals(util::Status::Aborted("lost leadership"));
    }
    role_ = RaftRole::kFollower;
    if (was_leader) ArmElectionTimer();
  }

  bool granted = false;
  if (term == current_term_ &&
      (voted_for_.empty() || voted_for_ == candidate)) {
    // Election restriction (§5.4.1): candidate's log must be at least as
    // up-to-date as ours.
    const std::int64_t c_last_term = req.at("last_log_term").as_int();
    const std::int64_t c_last_index = req.at("last_log_index").as_int();
    const bool up_to_date =
        c_last_term > LastLogTerm() ||
        (c_last_term == LastLogTerm() && c_last_index >= LastLogIndex());
    if (up_to_date) {
      granted = true;
      voted_for_ = candidate;
      ArmElectionTimer();  // granting a vote resets the timer
    }
  }
  return util::Json::MakeObject()
      .Set("term", current_term_)
      .Set("granted", granted);
}

util::StatusOr<util::Json> RaftNode::OnAppendEntries(const util::Json& req) {
  const std::int64_t term = req.at("term").as_int();
  util::Json reply = util::Json::MakeObject();
  if (term < current_term_) {
    return reply.Set("term", current_term_).Set("success", false)
        .Set("conflict_index", 1);
  }
  if (term > current_term_ || role_ != RaftRole::kFollower) {
    BecomeFollower(term);
  } else {
    ArmElectionTimer();
  }
  known_leader_ = req.at("leader").as_string();

  const std::int64_t prev_index = req.at("prev_log_index").as_int();
  const std::int64_t prev_term = req.at("prev_log_term").as_int();
  if (prev_index > LastLogIndex() ||
      log_[static_cast<std::size_t>(prev_index)].term != prev_term) {
    // Conflict: tell the leader the earliest plausible retry point.
    std::int64_t conflict = std::min(prev_index, LastLogIndex() + 1);
    if (conflict > 1 && prev_index <= LastLogIndex()) {
      const std::int64_t bad_term =
          log_[static_cast<std::size_t>(prev_index)].term;
      while (conflict > 1 &&
             log_[static_cast<std::size_t>(conflict - 1)].term == bad_term) {
        --conflict;
      }
    }
    return reply.Set("term", current_term_)
        .Set("success", false)
        .Set("conflict_index", conflict);
  }

  // Append / overwrite entries.
  std::int64_t index = prev_index;
  for (const util::Json& ej : req.at("entries").items()) {
    ++index;
    LogEntry entry = EntryFromJson(ej);
    if (index <= LastLogIndex()) {
      if (log_[static_cast<std::size_t>(index)].term != entry.term) {
        log_.resize(static_cast<std::size_t>(index));  // truncate conflict
        log_.push_back(std::move(entry));
      }
      // else: duplicate of an existing entry — keep it.
    } else {
      log_.push_back(std::move(entry));
    }
  }

  if (telemetry::Enabled() && index > prev_index) {
    telemetry::Global().metrics.Add(
        "myrtus_kb_raft_appends_total", static_cast<double>(index - prev_index),
        {{"node", self_}});
  }

  const std::int64_t leader_commit = req.at("leader_commit").as_int();
  if (leader_commit > commit_index_) {
    commit_index_ = std::min(leader_commit, LastLogIndex());
    ApplyCommitted();
  }
  return reply.Set("term", current_term_).Set("success", true);
}

void RaftNode::AdvanceCommitIndex() {
  // Find the highest N > commitIndex replicated on a majority with
  // log[N].term == currentTerm (§5.4.2 commit rule).
  for (std::int64_t n = LastLogIndex(); n > commit_index_; --n) {
    if (log_[static_cast<std::size_t>(n)].term != current_term_) break;
    std::size_t replicas = 1;  // self
    for (const auto& [peer, match] : match_index_) {
      if (match >= n) ++replicas;
    }
    if (replicas >= (peers_.size() + 1) / 2 + 1) {
      commit_index_ = n;
      ApplyCommitted();
      break;
    }
  }
}

void RaftNode::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    const LogEntry& entry = log_[static_cast<std::size_t>(last_applied_)];
    if (telemetry::Enabled()) {
      telemetry::Global().metrics.Add("myrtus_kb_raft_commits_total", 1.0,
                                      {{"node", self_}});
    }
    if (apply_ && !entry.command.is_null()) apply_(entry.command);
    const auto it = pending_.find(last_applied_);
    if (it != pending_.end()) {
      ProposeCallback cb = std::move(it->second);
      pending_.erase(it);
      cb(last_applied_);
    }
  }
}

void RaftNode::FailPendingProposals(const util::Status& status) {
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [index, cb] : pending) cb(status);
}

void RaftNode::Propose(util::Json command, ProposeCallback done) {
  if (telemetry::Enabled()) {
    // One span per proposal, covering replication until commit (or failure);
    // latency lands in the commit-latency histogram either way.
    auto& tel = telemetry::Global();
    const telemetry::SpanContext span = tel.tracer.StartSpan("raft.propose", "kb");
    tel.tracer.SetAttribute(span, "node", self_);
    const std::int64_t started_ns = tel.tracer.NowNs();
    done = [done = std::move(done), span,
            started_ns](util::StatusOr<std::int64_t> result) {
      auto& done_tel = telemetry::Global();
      done_tel.tracer.SetAttribute(
          span, "status",
          std::string(util::StatusCodeName(result.status().code())));
      done_tel.tracer.EndSpan(span);
      done_tel.metrics.Observe(
          "myrtus_kb_raft_commit_latency_ms",
          static_cast<double>(done_tel.tracer.NowNs() - started_ns) * 1e-6);
      done(std::move(result));
    };
  }
  if (crashed_) {
    done(util::Status::Unavailable("node crashed"));
    return;
  }
  if (role_ != RaftRole::kLeader) {
    done(util::Status::FailedPrecondition(
        "not leader; try " + (known_leader_.empty() ? std::string("unknown")
                                                    : known_leader_)));
    return;
  }
  log_.push_back(LogEntry{current_term_, std::move(command)});
  pending_[LastLogIndex()] = std::move(done);
  // Single-node cluster commits immediately; otherwise replicate now.
  if (peers_.empty()) {
    AdvanceCommitIndex();
  } else {
    BroadcastHeartbeat();
  }
}

}  // namespace myrtus::kb
