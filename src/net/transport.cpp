#include "net/transport.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

namespace myrtus::net {
namespace {

// Simulated RPC sizes: those of the JSON documents the envelope stands for,
// with keys in the order std::map sorts them:
//   {"call_id":N,"method":"M","request":R,"tctx":T}  (tctx when tracing)
//   {"call_id":N,"ok":true,"result":R}
//   {"call_id":N,"code":C,"error":"E","ok":false}
constexpr std::size_t Lit(std::string_view text) { return text.size(); }

std::size_t RequestEnvelopeBytes(std::uint64_t call_id,
                                 const std::string& method,
                                 const util::Json& request,
                                 const telemetry::SpanContext& tctx) {
  std::size_t n = Lit(R"({"call_id":)") + util::Json(call_id).DumpSize() +
                  Lit(R"(,"method":)") + util::Json::QuotedSize(method) +
                  Lit(R"(,"request":)") + request.DumpSize() + Lit("}");
  if (tctx.valid()) n += Lit(R"(,"tctx":)") + tctx.ToJson().DumpSize();
  return n;
}

std::size_t ReplyEnvelopeBytes(std::uint64_t call_id, bool ok,
                               const util::Json& result, util::StatusCode code,
                               const std::string& error) {
  const std::size_t n = Lit(R"({"call_id":)") + util::Json(call_id).DumpSize();
  if (ok) return n + Lit(R"(,"ok":true,"result":)") + result.DumpSize() + Lit("}");
  return n + Lit(R"(,"code":)") +
         util::Json(static_cast<std::int64_t>(code)).DumpSize() +
         Lit(R"(,"error":)") + util::Json::QuotedSize(error) +
         Lit(R"(,"ok":false})");
}

}  // namespace

std::string_view ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kHttp: return "http";
    case Protocol::kMqtt: return "mqtt";
    case Protocol::kCoap: return "coap";
  }
  return "?";
}

std::size_t ProtocolOverheadBytes(Protocol p) {
  switch (p) {
    case Protocol::kHttp: return 220;  // request line + typical headers
    case Protocol::kMqtt: return 8;    // fixed header + topic overhead share
    case Protocol::kCoap: return 12;   // 4-byte header + options
  }
  return 0;
}

Network::Network(sim::Engine& engine, Topology topology, std::uint64_t seed)
    : engine_(engine),
      topology_(std::move(topology)),
      rng_(seed, "network"),
      retry_rng_(seed, "retry") {
  // The network is the chokepoint every layer already passes through, so its
  // engine becomes the tracer's sim-time source. Last-constructed wins; the
  // destructor uninstalls via the returned token, so the global tracer never
  // holds this closure past the network's lifetime.
  // LINT: deferred-capture-ok(eng) -- ~Network uninstalls this clock
  // (generation token) before the pointee can dangle
  tracer_clock_token_ = telemetry::Global().tracer.set_clock(
      [eng = &engine_] { return eng->Now().ns; });
}

Network::~Network() {
  telemetry::Global().tracer.reset_clock(tracer_clock_token_);
}

void Network::FinishCallTelemetry(PendingCall& call, const util::Status& status) {
  if (!call.span.valid()) return;
  auto& tel = telemetry::Global();
  tel.tracer.SetAttribute(call.span, "status",
                          std::string(util::StatusCodeName(status.code())));
  tel.tracer.EndSpan(call.span, engine_.Now().ns);
  tel.metrics.Observe(
      "myrtus_net_rpc_latency_ms",
      static_cast<double>(engine_.Now().ns - call.started_ns) * 1e-6,
      {{"method", call.method}});
  tel.metrics.Add("myrtus_net_rpc_total", 1.0,
                  {{"method", call.method},
                   {"status", std::string(util::StatusCodeName(status.code()))}});
}

void Network::Attach(const HostId& host, MessageHandler handler) {
  topology_.AddHost(host);
  const std::size_t h = topology_.HostIndex(host);
  if (h >= handlers_.size()) handlers_.resize(h + 1);
  handlers_[h] = std::move(handler);
}

std::uint32_t Network::AcquireFrame() {
  if (!free_frames_.empty()) {
    const std::uint32_t f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  frames_.emplace_back();
  return static_cast<std::uint32_t>(frames_.size() - 1);
}

void Network::ReleaseFrame(std::uint32_t f) {
  // Every send sets the fields its kind reads; only what holds memory or a
  // route is dropped here.
  Frame& frame = frames_[f];
  frame.msg.payload = util::Json();
  frame.route.reset();
  free_frames_.push_back(f);
}

util::StatusOr<std::uint64_t> Network::Send(Message msg) {
  const std::uint32_t f = AcquireFrame();
  Frame& frame = frames_[f];
  frame.kind = FrameKind::kDatagram;
  frame.loopback = msg.from == msg.to;
  frame.from = topology_.HostIndex(msg.from);
  frame.to = topology_.HostIndex(msg.to);
  frame.msg = std::move(msg);
  if (frame.msg.body_bytes == 0) {
    frame.msg.body_bytes = frame.msg.payload.DumpSize();
  }
  return Launch(f);
}

util::StatusOr<std::uint64_t> Network::Launch(std::uint32_t f) {
  Frame& frame = frames_[f];
  const std::uint64_t id = frame.msg.id = next_msg_id_++;
  if (frame.loopback) {
    // Loopback: deliver on the next event-loop turn, zero cost.
    engine_.ScheduleAfter(sim::SimTime::Zero(), [this, f] { Deliver(f); });
    return id;
  }
  auto route = topology_.FindRoute(frame.from, frame.to);
  if (!route.ok()) {
    ReleaseFrame(f);
    return route.status();
  }
  frame.route = std::move(route).value();
  frame.hop = 0;
  DeliverHop(f);
  return id;
}

void Network::DeliverHop(std::uint32_t f) {
  const Frame& frame = frames_[f];
  if (frame.hop >= frame.route->link_indices.size()) {
    Deliver(f);
    return;
  }
  const std::size_t li = frame.route->link_indices[frame.hop];
  const Link& link = topology_.link(li);

  // Loss check per hop.
  if (link.loss_rate > 0.0 && rng_.NextBool(link.loss_rate)) {
    ++dropped_;
    if (telemetry::Enabled()) {
      telemetry::Global().metrics.Add("myrtus_net_drops_total");
    }
    ReleaseFrame(f);
    return;
  }

  LinkState& state = StateOf(li);
  if (state.busy) {
    // Enqueue by (priority desc, seq asc); vector kept sorted on insert so
    // the next frame to send is always at the back.
    const PendingTx pending{frame.msg.priority, next_tx_seq_++, f};
    auto it = std::lower_bound(
        state.waiting.begin(), state.waiting.end(), pending,
        [](const PendingTx& a, const PendingTx& b) {
          if (a.priority != b.priority) return a.priority < b.priority;
          return a.seq > b.seq;  // older (smaller seq) closer to the back
        });
    state.waiting.insert(it, pending);
    return;
  }
  StartTransmission(li, f);
}

void Network::StartTransmission(std::size_t link_index, std::uint32_t f) {
  Frame& frame = frames_[f];
  const Link& link = topology_.link(link_index);
  const std::size_t wire_bytes =
      frame.msg.body_bytes + ProtocolOverheadBytes(frame.msg.protocol);
  const sim::SimTime serialization = sim::SimTime::FromSeconds(
      static_cast<double>(wire_bytes) * 8.0 / link.bandwidth_bps);
  const sim::SimTime jitter =
      link.jitter.ns > 0
          ? sim::SimTime::Nanos(static_cast<std::int64_t>(
                rng_.NextDouble() * static_cast<double>(link.jitter.ns)))
          : sim::SimTime::Zero();

  StateOf(link_index).busy = true;
  bytes_sent_ += wire_bytes;
  if (telemetry::Enabled()) {
    telemetry::Global().metrics.Add(
        "myrtus_net_bytes_total", static_cast<double>(wire_bytes),
        {{"protocol", std::string(ProtocolName(frame.msg.protocol))}});
  }

  const sim::SimTime tx_done = engine_.Now() + serialization;
  const sim::SimTime arrival = tx_done + link.latency + jitter;
  ++frame.hop;
  // The link frees when the last bit leaves; the frame arrives after the
  // propagation delay.
  engine_.ScheduleAt(tx_done, [this, link_index] { OnLinkFree(link_index); });
  engine_.ScheduleAt(arrival, [this, f] { DeliverHop(f); });
}

Network::LinkState& Network::StateOf(std::size_t link_index) {
  if (link_index >= link_state_.size()) {
    link_state_.resize(topology_.link_count());
  }
  return link_state_[link_index];
}

void Network::OnLinkFree(std::size_t link_index) {
  LinkState& state = link_state_[link_index];
  state.busy = false;
  if (state.waiting.empty()) return;
  const std::uint32_t next = state.waiting.back().frame;
  state.waiting.pop_back();
  StartTransmission(link_index, next);
}

void Network::Deliver(std::uint32_t f) {
  ++delivered_;
  if (telemetry::Enabled()) {
    telemetry::Global().metrics.Add("myrtus_net_delivered_total");
  }
  // The slab is a deque, so `frame` stays valid while handlers send.
  Frame& frame = frames_[f];
  if (frame.to == Topology::kNoHost && frame.kind != FrameKind::kRpcReply) {
    // A loopback to a host unknown at send time may have registered since.
    frame.to = topology_.HostIndex(frame.msg.to);
  }
  switch (frame.kind) {
    case FrameKind::kRpcRequest:
      HandleRpcRequest(frame);
      break;
    case FrameKind::kRpcReply:
      HandleRpcReply(frame);
      break;
    case FrameKind::kDatagram:
      if (frame.to < handlers_.size() && handlers_[frame.to]) {
        handlers_[frame.to](frame.msg);
      }
      break;
  }
  ReleaseFrame(f);
}

Network::MethodId Network::InternMethod(const std::string& method) {
  const auto [it, inserted] = method_ids_.try_emplace(
      method, static_cast<MethodId>(method_names_.size()));
  if (inserted) method_names_.push_back(method);
  return it->second;
}

void Network::RegisterRpc(const HostId& host, const std::string& method,
                          RpcHandler handler) {
  RegisterAsyncRpc(host, method,
                   [handler = std::move(handler)](const HostId& caller,
                                                  const util::Json& request,
                                                  RpcResponder respond) {
                     respond(handler(caller, request));
                   });
}

void Network::RegisterAsyncRpc(const HostId& host, const std::string& method,
                               AsyncRpcHandler handler) {
  topology_.AddHost(host);
  const std::size_t h = topology_.HostIndex(host);
  const MethodId m = InternMethod(method);
  if (h >= rpc_slots_.size()) rpc_slots_.resize(h + 1);
  std::vector<std::uint32_t>& slots = rpc_slots_[h];
  if (m >= slots.size()) slots.resize(m + 1, 0);
  if (slots[m] != 0) {
    rpc_handlers_[slots[m] - 1] = std::move(handler);
    return;
  }
  rpc_handlers_.push_back(std::move(handler));
  slots[m] = static_cast<std::uint32_t>(rpc_handlers_.size());
}

void Network::Call(const HostId& from, const HostId& to,
                   const std::string& method, util::Json request,
                   RpcCallback on_reply, sim::SimTime timeout,
                   Protocol protocol, std::size_t body_bytes, int priority) {
  Call(from, to, InternMethod(method), std::move(request), std::move(on_reply),
       timeout, protocol, body_bytes, priority);
}

void Network::Call(const HostId& from, const HostId& to, MethodId method_id,
                   util::Json request, RpcCallback on_reply,
                   sim::SimTime timeout, Protocol protocol,
                   std::size_t body_bytes, int priority) {
  // Nothing below interns a method, so the name stays put.
  const std::string& method = method_names_[method_id];
  const std::uint64_t call_id = next_call_id_++;

  PendingCall pending;
  pending.callback = std::move(on_reply);
  pending.timeout_event = engine_.ScheduleAfter(timeout, [this, call_id] {
    const auto it = pending_calls_.find(call_id);
    if (it == pending_calls_.end()) return;
    PendingCall call = std::move(it->second);
    pending_calls_.erase(it);
    const util::Status timed_out = util::Status::DeadlineExceeded("rpc timed out");
    FinishCallTelemetry(call, timed_out);
    call.callback(timed_out);
  });
  if (telemetry::Enabled()) {
    // Client span: child of whatever context is current at call time. Its
    // context rides in the request envelope so the server span links to it.
    auto& tel = telemetry::Global();
    pending.span = tel.tracer.StartSpan("rpc.call " + method, "net",
                                        tel.tracer.current(), engine_.Now().ns);
    tel.tracer.SetAttribute(pending.span, "from", from);
    tel.tracer.SetAttribute(pending.span, "to", to);
    pending.method = method;
    pending.started_ns = engine_.Now().ns;
  }
  const telemetry::SpanContext call_span = pending.span;
  pending_calls_[call_id] = std::move(pending);

  const std::uint32_t f = AcquireFrame();
  Frame& frame = frames_[f];
  frame.kind = FrameKind::kRpcRequest;
  frame.loopback = from == to;
  frame.msg.from = from;
  frame.msg.to = to;
  frame.from = topology_.HostIndex(from);
  frame.to = topology_.HostIndex(to);
  frame.msg.protocol = protocol;
  frame.msg.priority = priority;
  frame.call_id = call_id;
  frame.method = method_id;
  frame.tctx = call_span;
  frame.msg.body_bytes =
      body_bytes != 0 ? body_bytes
                      : RequestEnvelopeBytes(call_id, method, request, call_span);
  frame.msg.payload = std::move(request);
  auto sent = Launch(f);
  if (!sent.ok()) {
    const auto it = pending_calls_.find(call_id);
    if (it != pending_calls_.end()) {
      engine_.Cancel(it->second.timeout_event);
      auto call = std::make_shared<PendingCall>(std::move(it->second));
      pending_calls_.erase(it);
      // No route is a transient condition (links flap), so surface it as
      // UNAVAILABLE, and always complete asynchronously: a synchronous
      // callback would re-enter the caller's stack mid-Call, which breaks
      // retry loops and Raft's per-peer append serialization.
      const util::Status unroutable =
          util::Status::Unavailable("unroutable: " + sent.status().message());
      FinishCallTelemetry(*call, unroutable);
      engine_.ScheduleAfter(sim::SimTime::Zero(), [call, unroutable] {
        call->callback(unroutable);
      });
    }
  }
}

void Network::HandleRpcRequest(const Frame& frame) {
  // Read before the handler runs: it may intern methods.
  const std::string& method = method_names_[frame.method];

  // Server span: parented on the remote client span via the propagated
  // context, current while the handler runs, ended when the handler responds
  // (which for async handlers may be much later than the dispatch).
  telemetry::SpanContext server_span;
  if (telemetry::Enabled()) {
    auto& tel = telemetry::Global();
    server_span = tel.tracer.StartSpan("rpc.serve " + method, "net",
                                       frame.tctx, engine_.Now().ns);
    tel.tracer.SetAttribute(server_span, "host", frame.msg.to);
  }

  // The responder may run immediately (sync handlers) or later (replicated
  // writes). A shared fired-flag makes double responses harmless.
  auto fired = std::make_shared<bool>(false);
  RpcResponder respond = [this, fired, responder = frame.to, caller = frame.from,
                          loopback = frame.loopback,
                          protocol = frame.msg.protocol,
                          priority = frame.msg.priority,
                          call_id = frame.call_id,
                          server_span](util::StatusOr<util::Json> result) {
    if (*fired) return;
    *fired = true;
    if (server_span.valid()) {
      auto& tel = telemetry::Global();
      tel.tracer.SetAttribute(
          server_span, "status",
          std::string(util::StatusCodeName(result.status().code())));
      tel.tracer.EndSpan(server_span, engine_.Now().ns);
    }
    SendReply(responder, caller, loopback, protocol, priority, call_id,
              std::move(result));
  };

  std::uint32_t slot = 0;
  if (frame.to < rpc_slots_.size() && frame.method < rpc_slots_[frame.to].size()) {
    slot = rpc_slots_[frame.to][frame.method];
  }
  if (slot == 0) {
    respond(util::Status::Unimplemented("no handler for " + method + " on " +
                                        frame.msg.to));
    return;
  }
  // The server span is the current context while the handler runs, so spans
  // it starts (scheduler passes, nested RPCs, pubsub fan-out) nest under it.
  if (server_span.valid()) telemetry::Global().tracer.PushContext(server_span);
  rpc_handlers_[slot - 1](frame.msg.from, frame.msg.payload, std::move(respond));
  if (server_span.valid()) telemetry::Global().tracer.PopContext();
}

void Network::SendReply(std::size_t from, std::size_t to, bool loopback,
                        Protocol protocol, int priority, std::uint64_t call_id,
                        util::StatusOr<util::Json> result) {
  const std::uint32_t f = AcquireFrame();
  Frame& reply = frames_[f];
  reply.kind = FrameKind::kRpcReply;
  reply.loopback = loopback;
  reply.from = from;
  reply.to = to;
  reply.msg.protocol = protocol;
  reply.msg.priority = priority;
  reply.call_id = call_id;
  reply.ok = result.ok();
  reply.code = result.status().code();
  if (reply.ok) {
    reply.msg.payload = std::move(result).value();
  } else {
    reply.error = result.status().message();
  }
  reply.msg.body_bytes = ReplyEnvelopeBytes(call_id, reply.ok, reply.msg.payload,
                                            reply.code, reply.error);
  // LINT: discard(reply send failure behaves like a timeout at the caller)
  (void)Launch(f);
}

void Network::HandleRpcReply(Frame& frame) {
  const auto it = pending_calls_.find(frame.call_id);
  if (it == pending_calls_.end()) return;  // raced with timeout
  engine_.Cancel(it->second.timeout_event);
  PendingCall call = std::move(it->second);
  pending_calls_.erase(it);
  if (frame.ok) {
    FinishCallTelemetry(call, util::Status::Ok());
    call.callback(std::exchange(frame.msg.payload, util::Json()));
  } else {
    const util::Status error(frame.code, frame.error);
    FinishCallTelemetry(call, error);
    call.callback(error);
  }
}

}  // namespace myrtus::net
