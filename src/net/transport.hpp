// Message transport over the simulated topology. Models, per hop:
//   queueing (FIFO per link) + serialization (size/bandwidth) + propagation
//   (+ jitter) and i.i.d. loss. On top of raw datagrams it offers a
// request/response RPC fabric used by MIRTO agents, the KB's consensus
// traffic, and the kube-like control plane.
//
// Each message in flight is one frame in a pooled slab: hops, link queues and
// delivery carry its index, and hosts are addressed by topology index. An RPC
// frame carries its envelope (call id, method, span context, status) as typed
// fields; its simulated size is that of the JSON document the envelope
// describes, counted without serializing it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/retry.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace myrtus::net {

/// Application protocols with distinct framing overheads (paper §III Network:
/// components interoperate over HTTP/MQTT/CoAP).
enum class Protocol : std::uint8_t { kHttp, kMqtt, kCoap };
std::string_view ProtocolName(Protocol p);
/// Per-message framing overhead in bytes added to the payload.
std::size_t ProtocolOverheadBytes(Protocol p);

/// A datagram: what Send takes and an attached handler receives.
struct Message {
  HostId from;
  HostId to;
  Protocol protocol = Protocol::kHttp;
  std::string kind;          // application-level tag ("rpc", "pub", ...)
  util::Json payload;        // structured body
  std::size_t body_bytes = 0;  // simulated body size (>= serialized payload)
  std::uint64_t id = 0;      // assigned by the network
  /// Network-slice priority (EU-CEI Network BB, §III "network slicing"):
  /// higher classes are transmitted first at every congested link.
  /// Convention: 0 = bulk data, 1 = application control, 2 = orchestration.
  int priority = 0;
};

/// Delivery callback on the receiving host.
using MessageHandler = std::function<void(const Message&)>;

class Network {
 public:
  Network(sim::Engine& engine, Topology topology, std::uint64_t seed);
  /// Uninstalls the tracer clock this network installed (no-op when a
  /// later-constructed network installed over it): the closure points into
  /// this object, and the global tracer outlives every network.
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] Topology& topology() { return topology_; }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Registers the datagram handler for a host (one per host; later
  /// registrations replace earlier ones).
  void Attach(const HostId& host, MessageHandler handler);

  /// Sends a message to the handler attached at `msg.to`. Returns the
  /// message id, or an error when no route exists. Loss is silent (no
  /// callback), like a real datagram network.
  util::StatusOr<std::uint64_t> Send(Message msg);

  /// --- RPC fabric -------------------------------------------------------
  /// A host exposes named methods; peers call them and receive a reply (or
  /// DEADLINE_EXCEEDED after `timeout`).
  using RpcHandler =
      std::function<util::StatusOr<util::Json>(const HostId& caller,
                                               const util::Json& request)>;
  using RpcCallback = std::function<void(util::StatusOr<util::Json>)>;
  /// Deferred-reply handler: `respond` may be invoked later (e.g. once a
  /// replicated write commits). Invoking it more than once is ignored.
  using RpcResponder = std::function<void(util::StatusOr<util::Json>)>;
  using AsyncRpcHandler = std::function<void(
      const HostId& caller, const util::Json& request, RpcResponder respond)>;

  using MethodId = std::uint32_t;

  void RegisterRpc(const HostId& host, const std::string& method,
                   RpcHandler handler);
  void RegisterAsyncRpc(const HostId& host, const std::string& method,
                        AsyncRpcHandler handler);
  /// `body_bytes` overrides the simulated request size (0 = derive from the
  /// JSON encoding) so calls can model bulk payloads without materializing
  /// them.
  /// RPC traffic defaults to the control slice (priority 1); replies inherit
  /// the request's class.
  void Call(const HostId& from, const HostId& to, const std::string& method,
            util::Json request, RpcCallback on_reply,
            sim::SimTime timeout = sim::SimTime::Seconds(5),
            Protocol protocol = Protocol::kHttp, std::size_t body_bytes = 0,
            int priority = 1);
  /// Call() by a method id from InternMethod(), for callers that call one
  /// method often: the name is not hashed again per call.
  void Call(const HostId& from, const HostId& to, MethodId method,
            util::Json request, RpcCallback on_reply,
            sim::SimTime timeout = sim::SimTime::Seconds(5),
            Protocol protocol = Protocol::kHttp, std::size_t body_bytes = 0,
            int priority = 1);
  /// The id of an RPC method name, stable for this network's lifetime.
  MethodId InternMethod(const std::string& method);

  /// Call() plus a retry loop: retryable failures (UNAVAILABLE,
  /// DEADLINE_EXCEEDED) are re-driven with exponential backoff + seeded
  /// jitter until the policy's attempt or deadline budget runs out, gated by
  /// a per-destination circuit breaker. `on_reply` fires exactly once with
  /// the first success or the final error.
  void CallWithRetry(const HostId& from, const HostId& to,
                     const std::string& method, util::Json request,
                     RpcCallback on_reply, RetryPolicy policy = {},
                     Protocol protocol = Protocol::kHttp,
                     std::size_t body_bytes = 0, int priority = 1);

  /// The breaker guarding calls to `to` (created closed on first use).
  [[nodiscard]] CircuitBreaker& BreakerFor(const HostId& to);
  void set_breaker_config(CircuitBreakerConfig config) {
    breaker_config_ = config;
  }

  /// Total simulated bytes that crossed any link.
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  /// Retry attempts re-driven by CallWithRetry (excludes first attempts).
  [[nodiscard]] std::uint64_t retries() const { return retries_; }

 private:
  struct RetryOp;
  void RunRetryAttempt(std::shared_ptr<RetryOp> op);
  void HandleAttemptFailure(std::shared_ptr<RetryOp> op, util::Status status,
                            bool record_outcome);

  enum class FrameKind : std::uint8_t { kDatagram, kRpcRequest, kRpcReply };
  /// One message in flight. `msg.payload` is the datagram body, the RPC
  /// request or the RPC result; the envelope fields serve the RPC kinds.
  struct Frame {
    FrameKind kind = FrameKind::kDatagram;
    bool loopback = false;
    Message msg;
    std::size_t from = Topology::kNoHost;  // topology indices
    std::size_t to = Topology::kNoHost;
    RouteRef route;         // fixed at send time
    std::size_t hop = 0;    // next link on `route`
    std::uint64_t call_id = 0;
    MethodId method = 0;           // interned name (requests)
    telemetry::SpanContext tctx;   // caller span (requests)
    bool ok = true;                // replies: result or error
    util::StatusCode code = util::StatusCode::kOk;
    std::string error;
  };
  std::uint32_t AcquireFrame();
  void ReleaseFrame(std::uint32_t f);
  /// Numbers the frame and starts it on its way; releases it and returns the
  /// route error when there is no route.
  util::StatusOr<std::uint64_t> Launch(std::uint32_t f);
  void DeliverHop(std::uint32_t f);
  void StartTransmission(std::size_t link_index, std::uint32_t f);
  void OnLinkFree(std::size_t link_index);
  void Deliver(std::uint32_t f);
  void HandleRpcRequest(const Frame& frame);
  void HandleRpcReply(Frame& frame);
  void SendReply(std::size_t from, std::size_t to, bool loopback,
                 Protocol protocol, int priority, std::uint64_t call_id,
                 util::StatusOr<util::Json> result);

  sim::Engine& engine_;
  Topology topology_;
  util::Rng rng_;
  std::int64_t tracer_clock_token_ = 0;  // Tracer::set_clock installation

  // Frame slab: a deque, so a frame stays put while a handler it delivers
  // to sends more frames.
  std::deque<Frame> frames_;
  std::vector<std::uint32_t> free_frames_;

  // Handlers by host index, in deques so a handler registering another one
  // never moves the one that is running.
  std::deque<MessageHandler> handlers_;
  std::unordered_map<std::string, MethodId> method_ids_;
  std::vector<std::string> method_names_;  // by method id
  std::deque<AsyncRpcHandler> rpc_handlers_;
  // rpc_slots_[host][method] = 1 + index into rpc_handlers_ (0 = none).
  std::vector<std::vector<std::uint32_t>> rpc_slots_;

  struct PendingCall {
    RpcCallback callback;
    sim::EventHandle timeout_event;
    // Telemetry state for the client span (empty/invalid when disabled at
    // call time).
    telemetry::SpanContext span;
    std::string method;
    std::int64_t started_ns = 0;
  };
  std::unordered_map<std::uint64_t, PendingCall> pending_calls_;

  /// Ends the client span and records RPC latency/outcome metrics.
  void FinishCallTelemetry(PendingCall& call, const util::Status& status);

  // Per-link transmission state: one frame in flight; waiting frames are
  // served highest-priority-first (FIFO within a class) — the "network
  // slicing" behaviour of the EU-CEI Network building block.
  struct PendingTx {
    int priority;
    std::uint64_t seq;  // FIFO tie-break
    std::uint32_t frame;
  };
  struct LinkState {
    bool busy = false;
    // Sorted ascending by (priority, -seq): the next frame to send is at
    // the back.
    std::vector<PendingTx> waiting;
  };
  /// Indexed by link; grows as the topology gains links.
  std::vector<LinkState> link_state_;
  LinkState& StateOf(std::size_t link_index);
  std::uint64_t next_tx_seq_ = 1;

  // Retry layer state: breakers are per destination host; the backoff jitter
  // draws from its own stream so plain Call() traffic stays byte-identical
  // whether or not anyone retries.
  CircuitBreakerConfig breaker_config_;
  std::map<HostId, CircuitBreaker> breakers_;
  util::Rng retry_rng_;

  std::uint64_t next_msg_id_ = 1;
  std::uint64_t next_call_id_ = 1;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace myrtus::net
