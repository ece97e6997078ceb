#include "net/retry.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "net/transport.hpp"
#include "telemetry/telemetry.hpp"

namespace myrtus::net {

RetryPolicy RetryPolicy::None() {
  RetryPolicy p;
  p.max_attempts = 1;
  p.attempt_timeout = sim::SimTime::Seconds(5);
  p.overall_deadline = sim::SimTime::Seconds(5);
  p.use_circuit_breaker = false;
  return p;
}

sim::SimTime RetryPolicy::BackoffBefore(int attempt, util::Rng& rng) const {
  if (attempt <= 2 || backoff_multiplier <= 1.0) {
    // First backoff (or degenerate multiplier): the base wait, jittered.
    const double jittered =
        static_cast<double>(initial_backoff.ns) *
        (jitter > 0.0 ? rng.Uniform(1.0 - jitter, 1.0 + jitter) : 1.0);
    return sim::SimTime::Nanos(std::max<std::int64_t>(
        0, static_cast<std::int64_t>(std::llround(jittered))));
  }
  const double base =
      static_cast<double>(initial_backoff.ns) *
      std::pow(backoff_multiplier, static_cast<double>(attempt - 2));
  const double clamped = std::min(base, static_cast<double>(max_backoff.ns));
  const double jittered =
      clamped * (jitter > 0.0 ? rng.Uniform(1.0 - jitter, 1.0 + jitter) : 1.0);
  return sim::SimTime::Nanos(std::max<std::int64_t>(
      0, static_cast<std::int64_t>(std::llround(jittered))));
}

bool IsRetryableRpcStatus(const util::Status& status) {
  return status.code() == util::StatusCode::kUnavailable ||
         status.code() == util::StatusCode::kDeadlineExceeded;
}

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config)
    : config_(config) {}

CircuitBreaker::State CircuitBreaker::state(sim::SimTime now) const {
  if (state_ == State::kOpen && now >= opened_at_ + config_.open_timeout) {
    return State::kHalfOpen;
  }
  return state_;
}

bool CircuitBreaker::AllowRequest(sim::SimTime now) {
  switch (state(now)) {
    case State::kClosed:
      return true;
    case State::kOpen:
      ++rejections_;
      return false;
    case State::kHalfOpen:
      if (state_ == State::kOpen) {
        // Cooldown just elapsed: materialize the half-open transition.
        state_ = State::kHalfOpen;
        probe_in_flight_ = false;
      }
      if (probe_in_flight_) {
        ++rejections_;
        return false;
      }
      probe_in_flight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::Open(sim::SimTime now) {
  state_ = State::kOpen;
  opened_at_ = now;
  probe_in_flight_ = false;
  ++opens_;
}

void CircuitBreaker::RecordSuccess(sim::SimTime now) {
  (void)now;
  if (state_ != State::kClosed) {
    // A successful probe heals the breaker with a clean window.
    state_ = State::kClosed;
    probe_in_flight_ = false;
    outcomes_.clear();
    window_failures_ = 0;
    return;
  }
  outcomes_.push_back(false);
  if (outcomes_.size() > config_.window) {
    if (outcomes_.front()) --window_failures_;
    outcomes_.pop_front();
  }
}

void CircuitBreaker::RecordFailure(sim::SimTime now) {
  if (state_ != State::kClosed) {
    // Failed probe: back to a full cooldown.
    Open(now);
    return;
  }
  outcomes_.push_back(true);
  ++window_failures_;
  if (outcomes_.size() > config_.window) {
    if (outcomes_.front()) --window_failures_;
    outcomes_.pop_front();
  }
  if (outcomes_.size() >= config_.min_samples &&
      FailureRate() >= config_.failure_threshold) {
    outcomes_.clear();
    window_failures_ = 0;
    Open(now);
  }
}

double CircuitBreaker::FailureRate() const {
  if (outcomes_.empty()) return 0.0;
  return static_cast<double>(window_failures_) /
         static_cast<double>(outcomes_.size());
}

std::string_view BreakerStateName(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed: return "closed";
    case CircuitBreaker::State::kOpen: return "open";
    case CircuitBreaker::State::kHalfOpen: return "half-open";
  }
  return "?";
}

/// --- Network::CallWithRetry ---------------------------------------------
/// Lives here (not transport.cpp) so the retry loop, its telemetry, and the
/// breaker bookkeeping stay one readable unit.

struct Network::RetryOp {
  HostId from;
  HostId to;
  std::string method;
  util::Json request;
  RpcCallback callback;
  RetryPolicy policy;
  Protocol protocol = Protocol::kHttp;
  std::size_t body_bytes = 0;
  int priority = 1;
  int attempt = 0;              // attempts started so far
  sim::SimTime deadline;        // absolute overall deadline
};

CircuitBreaker& Network::BreakerFor(const HostId& to) {
  const auto it = breakers_.find(to);
  if (it != breakers_.end()) return it->second;
  return breakers_.emplace(to, CircuitBreaker(breaker_config_)).first->second;
}

void Network::CallWithRetry(const HostId& from, const HostId& to,
                            const std::string& method, util::Json request,
                            RpcCallback on_reply, RetryPolicy policy,
                            Protocol protocol, std::size_t body_bytes,
                            int priority) {
  auto op = std::make_shared<RetryOp>();
  op->from = from;
  op->to = to;
  op->method = method;
  op->request = std::move(request);
  op->callback = std::move(on_reply);
  op->policy = policy;
  op->protocol = protocol;
  op->body_bytes = body_bytes;
  op->priority = priority;
  op->deadline = engine_.Now() + policy.overall_deadline;
  RunRetryAttempt(std::move(op));
}

void Network::RunRetryAttempt(std::shared_ptr<RetryOp> op) {
  ++op->attempt;
  const sim::SimTime now = engine_.Now();

  if (op->policy.use_circuit_breaker &&
      !BreakerFor(op->to).AllowRequest(now)) {
    if (telemetry::Enabled()) {
      telemetry::Global().metrics.Add("myrtus_net_retry_breaker_rejections_total",
                                      1.0, {{"peer", op->to}});
    }
    HandleAttemptFailure(
        std::move(op),
        util::Status::Unavailable("circuit open to " + op->to),
        /*record_outcome=*/false);
    return;
  }

  const sim::SimTime remaining = op->deadline - now;
  const sim::SimTime timeout =
      std::min(op->policy.attempt_timeout, std::max(sim::SimTime::Nanos(1), remaining));
  Call(
      op->from, op->to, op->method, op->request,
      [this, op](util::StatusOr<util::Json> reply) mutable {
        const bool destination_responded =
            reply.ok() || !IsRetryableRpcStatus(reply.status());
        if (op->policy.use_circuit_breaker) {
          if (destination_responded) {
            BreakerFor(op->to).RecordSuccess(engine_.Now());
          } else {
            BreakerFor(op->to).RecordFailure(engine_.Now());
          }
        }
        if (destination_responded) {
          if (telemetry::Enabled() && op->attempt > 1 && reply.ok()) {
            telemetry::Global().metrics.Add(
                "myrtus_net_retry_recovered_total", 1.0,
                {{"method", op->method}});
          }
          op->callback(std::move(reply));
          return;
        }
        util::Status status = reply.status();
        HandleAttemptFailure(std::move(op), std::move(status),
                             /*record_outcome=*/true);
      },
      timeout, op->protocol, op->body_bytes, op->priority);
}

void Network::HandleAttemptFailure(std::shared_ptr<RetryOp> op,
                                   util::Status status, bool record_outcome) {
  (void)record_outcome;  // outcome already fed to the breaker by the caller
  const sim::SimTime backoff =
      op->policy.BackoffBefore(op->attempt + 1, retry_rng_);
  const bool attempts_left = op->attempt < op->policy.max_attempts;
  const bool budget_left = engine_.Now() + backoff < op->deadline;
  if (!attempts_left || !budget_left) {
    if (telemetry::Enabled()) {
      telemetry::Global().metrics.Add("myrtus_net_retry_exhausted_total", 1.0,
                                      {{"method", op->method}});
    }
    const util::Status final_status(
        status.code(), status.message() + " (after " +
                           std::to_string(op->attempt) + " attempt(s))");
    if (op->attempt == 1 && status.message().rfind("circuit open", 0) == 0) {
      // Breaker rejected the very first attempt: no Call was issued, so the
      // callback must still be deferred to keep callers off their own stack.
      engine_.ScheduleAfter(sim::SimTime::Zero(), [op, final_status] {
        op->callback(final_status);
      });
    } else {
      op->callback(final_status);
    }
    return;
  }
  ++retries_;
  if (telemetry::Enabled()) {
    auto& tel = telemetry::Global();
    tel.metrics.Add("myrtus_net_retry_attempts_total", 1.0,
                    {{"method", op->method}});
    tel.metrics.Observe("myrtus_net_retry_backoff_ms", backoff.ToMillisF());
  }
  engine_.ScheduleAfter(backoff, [this, op = std::move(op)]() mutable {
    RunRetryAttempt(std::move(op));
  });
}

}  // namespace myrtus::net
