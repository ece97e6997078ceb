#include "telemetry/span.hpp"

#include <algorithm>

#include "telemetry/export.hpp"

namespace myrtus::telemetry {
namespace {

/// Filename-safe rendering of a trigger reason ("chaos.inject:link-a" ->
/// "chaos.inject_link-a").
std::string SanitizeReason(std::string_view reason) {
  std::string out;
  out.reserve(reason.size());
  for (const char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

util::Json SpanContext::ToJson() const {
  return util::Json::MakeObject()
      .Set("t", static_cast<std::int64_t>(trace_id))
      .Set("s", static_cast<std::int64_t>(span_id));
}

SpanContext Tracer::StartSpan(std::string name, std::string category,
                              SpanContext parent, std::int64_t start_ns) {
  SpanRecord record;
  record.span_id = next_span_id_++;
  record.trace_id = parent.valid() ? parent.trace_id : next_trace_id_++;
  record.parent_id = parent.valid() ? parent.span_id : 0;
  record.name = std::move(name);
  record.category = std::move(category);
  record.start_ns = start_ns;
  const SpanContext ctx{record.trace_id, record.span_id};
  open_.emplace(record.span_id, std::move(record));
  return ctx;
}

SpanContext Tracer::StartSpan(std::string name, std::string category) {
  return StartSpan(std::move(name), std::move(category), current(), NowNs());
}

void Tracer::SetAttribute(const SpanContext& ctx, std::string key,
                          std::string value) {
  const auto it = open_.find(ctx.span_id);
  if (it == open_.end()) return;
  it->second.attrs.emplace_back(std::move(key), std::move(value));
}

void Tracer::EndSpan(const SpanContext& ctx, std::int64_t end_ns) {
  const auto it = open_.find(ctx.span_id);
  if (it == open_.end()) return;  // already ended or cleared
  it->second.end_ns = end_ns;
  finished_.Push(std::move(it->second));
  open_.erase(it);
}

std::string Tracer::Trigger(std::string_view reason) {
  ++triggers_;
  last_trigger_.assign(reason);
  if (dump_prefix_.empty()) return "";
  const std::string path = dump_prefix_ + std::to_string(triggers_) + "_" +
                           SanitizeReason(reason) + ".json";
  // A failed dump must never abort the run that tripped it; the trigger is
  // still counted and the empty path tells the caller nothing was written.
  return WriteChromeTrace(*this, path).ok() ? path : "";
}

void Tracer::Clear() {
  clock_ = nullptr;
  open_.clear();
  // Keeps the ring's storage, so the next world reuses it instead of
  // growing it again.
  finished_.Restart(SpanRing::kDefaultCapacity);
  finished_.dropped_ = 0;
  stack_.clear();
  next_trace_id_ = 1;
  next_span_id_ = 1;
  dump_prefix_.clear();
  triggers_ = 0;
  last_trigger_.clear();
}

void SpanRing::Push(SpanRecord&& span) {
  if (slots_.size() < capacity_) {
    slots_.push_back(std::move(span));
    return;
  }
  slots_[head_] = std::move(span);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void SpanRing::Restart(std::size_t capacity) {
  dropped_ += slots_.size();
  slots_.clear();
  capacity_ = std::max<std::size_t>(1, capacity);
  head_ = 0;
}

}  // namespace myrtus::telemetry
