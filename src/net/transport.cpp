#include "net/transport.hpp"

#include <algorithm>
#include <utility>

namespace myrtus::net {

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
  handlers_[host] = std::move(handler);
}

util::StatusOr<std::uint64_t> Network::Send(Message msg) {
  msg.id = next_msg_id_++;
  if (msg.body_bytes == 0) {
    msg.body_bytes = msg.payload.Dump().size();
  }
  if (msg.from == msg.to) {
    // Loopback: deliver on the next event-loop turn, zero cost.
    Message local = std::move(msg);
    const std::uint64_t id = local.id;
    engine_.ScheduleAfter(sim::SimTime::Zero(),
                          [this, m = std::move(local)] { Dispatch(m); });
    return id;
  }
  auto route = topology_.FindRoute(msg.from, msg.to);
  if (!route.ok()) return route.status();
  const std::uint64_t id = msg.id;
  DeliverHop(std::move(msg), std::move(route).value(), 0);
  return id;
}

void Network::DeliverHop(Message msg, Route route, std::size_t hop_index) {
  if (hop_index >= route.link_indices.size()) {
    Dispatch(msg);
    return;
  }
  const std::size_t li = route.link_indices[hop_index];
  const Link& link = topology_.link(li);

  // Loss check per hop.
  if (link.loss_rate > 0.0 && rng_.NextBool(link.loss_rate)) {
    ++dropped_;
    if (telemetry::Enabled()) {
      telemetry::Global().metrics.Add("myrtus_net_drops_total");
    }
    return;
  }

  LinkState& state = StateOf(li);
  if (state.busy) {
    // Enqueue by (priority desc, seq asc); vector kept sorted on insert so
    // the next frame to send is always at the back.
    PendingTx pending{msg.priority, next_tx_seq_++, std::move(msg),
                      std::move(route), hop_index};
    auto it = std::lower_bound(
        state.waiting.begin(), state.waiting.end(), pending,
        [](const PendingTx& a, const PendingTx& b) {
          if (a.priority != b.priority) return a.priority < b.priority;
          return a.seq > b.seq;  // older (smaller seq) closer to the back
        });
    state.waiting.insert(it, std::move(pending));
    return;
  }
  StartTransmission(li, std::move(msg), std::move(route), hop_index);
}

void Network::StartTransmission(std::size_t link_index, Message msg,
                                Route route, std::size_t hop_index) {
  const Link& link = topology_.link(link_index);
  const std::size_t wire_bytes =
      msg.body_bytes + ProtocolOverheadBytes(msg.protocol);
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
        {{"protocol", std::string(ProtocolName(msg.protocol))}});
  }

  const sim::SimTime tx_done = engine_.Now() + serialization;
  const sim::SimTime arrival = tx_done + link.latency + jitter;
  // The link frees when the last bit leaves; the frame arrives after the
  // propagation delay.
  engine_.ScheduleAt(tx_done, [this, link_index] { OnLinkFree(link_index); });
  engine_.ScheduleAt(arrival,
                     [this, m = std::move(msg), route = std::move(route),
                      hop_index]() mutable {
                       DeliverHop(std::move(m), std::move(route), hop_index + 1);
                     });
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
  PendingTx next = std::move(state.waiting.back());
  state.waiting.pop_back();
  StartTransmission(link_index, std::move(next.msg), std::move(next.route),
                    next.hop_index);
}

void Network::Dispatch(const Message& msg) {
  ++delivered_;
  if (telemetry::Enabled()) {
    telemetry::Global().metrics.Add("myrtus_net_delivered_total");
  }
  if (msg.kind == "rpc.request") {
    HandleRpcRequest(msg);
    return;
  }
  if (msg.kind == "rpc.reply") {
    HandleRpcReply(msg);
    return;
  }
  const auto it = handlers_.find(msg.to);
  if (it != handlers_.end() && it->second) {
    it->second(msg);
  }
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
  rpc_handlers_[{host, method}] = std::move(handler);
}

void Network::Call(const HostId& from, const HostId& to,
                   const std::string& method, util::Json request,
                   RpcCallback on_reply, sim::SimTime timeout,
                   Protocol protocol, std::size_t body_bytes, int priority) {
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
    // context rides in the request header so the server span links to it.
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

  Message msg;
  msg.from = from;
  msg.to = to;
  msg.protocol = protocol;
  msg.kind = "rpc.request";
  msg.body_bytes = body_bytes;
  msg.priority = priority;
  msg.payload = util::Json::MakeObject()
                    .Set("call_id", call_id)
                    .Set("method", method)
                    .Set("request", std::move(request));
  if (call_span.valid()) {
    msg.payload.Set("tctx", call_span.ToJson());
  }
  auto sent = Send(std::move(msg));
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

void Network::HandleRpcRequest(const Message& msg) {
  const std::string method = msg.payload.at("method").as_string();
  const std::int64_t call_id = msg.payload.at("call_id").as_int();

  // Server span: parented on the remote client span via the propagated
  // header, current while the handler runs, ended when the handler responds
  // (which for async handlers may be much later than the dispatch).
  telemetry::SpanContext server_span;
  if (telemetry::Enabled()) {
    auto& tel = telemetry::Global();
    server_span = tel.tracer.StartSpan(
        "rpc.serve " + method, "net",
        telemetry::SpanContext::FromJson(msg.payload.at("tctx")),
        engine_.Now().ns);
    tel.tracer.SetAttribute(server_span, "host", msg.to);
  }

  // The responder may run immediately (sync handlers) or later (replicated
  // writes). A shared fired-flag makes double responses harmless.
  auto fired = std::make_shared<bool>(false);
  const HostId responder_host = msg.to;
  const HostId caller_host = msg.from;
  const Protocol protocol = msg.protocol;
  const int priority = msg.priority;
  RpcResponder respond = [this, fired, responder_host, caller_host, protocol,
                          priority, call_id,
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
    Message reply;
    reply.from = responder_host;
    reply.to = caller_host;
    reply.protocol = protocol;
    reply.priority = priority;
    reply.kind = "rpc.reply";
    util::Json body = util::Json::MakeObject();
    body.Set("call_id", call_id);
    if (result.ok()) {
      body.Set("ok", true).Set("result", std::move(result).value());
    } else {
      body.Set("ok", false)
          .Set("code", static_cast<std::int64_t>(result.status().code()))
          .Set("error", result.status().message());
    }
    reply.payload = std::move(body);
    // LINT: discard(reply send failure behaves like a timeout at the caller)
    (void)Send(std::move(reply));
  };

  const auto it = rpc_handlers_.find({msg.to, method});
  if (it == rpc_handlers_.end()) {
    respond(util::Status::Unimplemented("no handler for " + method + " on " +
                                        msg.to));
    return;
  }
  // The server span is the current context while the handler runs, so spans
  // it starts (scheduler passes, nested RPCs, pubsub fan-out) nest under it.
  if (server_span.valid()) telemetry::Global().tracer.PushContext(server_span);
  it->second(msg.from, msg.payload.at("request"), std::move(respond));
  if (server_span.valid()) telemetry::Global().tracer.PopContext();
}

void Network::HandleRpcReply(const Message& msg) {
  const auto call_id = static_cast<std::uint64_t>(msg.payload.at("call_id").as_int());
  const auto it = pending_calls_.find(call_id);
  if (it == pending_calls_.end()) return;  // raced with timeout
  engine_.Cancel(it->second.timeout_event);
  PendingCall call = std::move(it->second);
  pending_calls_.erase(it);
  if (msg.payload.at("ok").as_bool()) {
    FinishCallTelemetry(call, util::Status::Ok());
    call.callback(msg.payload.at("result"));
  } else {
    const util::Status error(
        static_cast<util::StatusCode>(msg.payload.at("code").as_int()),
        msg.payload.at("error").as_string());
    FinishCallTelemetry(call, error);
    call.callback(error);
  }
}

}  // namespace myrtus::net
