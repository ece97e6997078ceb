#include "telemetry/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "util/json.hpp"

namespace myrtus::telemetry {
namespace {

/// Prometheus sample rendering: integers without a decimal point, everything
/// else in shortest round-trippable %g form.
std::string FormatSample(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string FormatBound(double v) { return FormatSample(v); }

util::Status WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return util::Status::Internal("cannot open " + path + " for writing");
  }
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    return util::Status::DataLoss("short write to " + path);
  }
  return util::Status::Ok();
}

// Appends " <value>\n" to a sample line. Built by append:
// GCC 12 at -O3 flags `" " + FormatSample(v)` with a false-positive
// -Wrestrict.
void AppendSample(std::string& out, double value) {
  out += ' ';
  out += FormatSample(value);
  out += '\n';
}

}  // namespace

std::string ChromeTraceJson(const Tracer& tracer) {
  util::Json events = util::Json::MakeArray();
  events.Append(util::Json::MakeObject()
                    .Set("name", "process_name")
                    .Set("ph", "M")
                    .Set("pid", 1)
                    .Set("args", util::Json::MakeObject().Set("name", "myrtus-sim")));
  for (const SpanRecord& span : tracer.finished()) {
    util::Json args = util::Json::MakeObject()
                          .Set("span_id", static_cast<std::int64_t>(span.span_id))
                          .Set("parent_id",
                               static_cast<std::int64_t>(span.parent_id));
    for (const auto& [k, v] : span.attrs) args.Set(k, v);
    events.Append(
        util::Json::MakeObject()
            .Set("name", span.name)
            .Set("cat", span.category.empty() ? std::string("span") : span.category)
            .Set("ph", "X")
            .Set("ts", static_cast<double>(span.start_ns) * 1e-3)
            .Set("dur", static_cast<double>(span.end_ns - span.start_ns) * 1e-3)
            .Set("pid", 1)
            .Set("tid", static_cast<std::int64_t>(span.trace_id))
            .Set("args", std::move(args)));
  }
  return util::Json::MakeObject()
      .Set("traceEvents", std::move(events))
      .Set("displayTimeUnit", "ms")
      .Dump();
}

util::Status WriteChromeTrace(const Tracer& tracer, const std::string& path) {
  return WriteFile(path, ChromeTraceJson(tracer));
}

std::string PrometheusText(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& [name, family] : registry.families()) {
    out += "# TYPE " + name + " " + std::string(MetricKindName(family.kind)) +
           "\n";
    for (const auto& [encoded, series] : family.series) {
      if (family.kind != MetricKind::kHistogram) {
        out += name;
        if (!encoded.empty()) out += "{" + encoded + "}";
        AppendSample(out, series.value);
        continue;
      }
      if (series.histogram == nullptr) continue;
      const Histogram& h = *series.histogram;
      const std::string sep = encoded.empty() ? "" : ",";
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.bounds().size(); ++i) {
        cumulative += h.bucket_counts()[i];
        out += name + "_bucket{" + encoded + sep + "le=\"" +
               FormatBound(h.bounds()[i]) + "\"} " +
               FormatSample(static_cast<double>(cumulative)) + "\n";
      }
      cumulative += h.bucket_counts().back();
      out += name + "_bucket{" + encoded + sep + "le=\"+Inf\"} " +
             FormatSample(static_cast<double>(cumulative)) + "\n";
      out += name + "_sum";
      if (!encoded.empty()) out += "{" + encoded + "}";
      AppendSample(out, h.sum());
      out += name + "_count";
      if (!encoded.empty()) out += "{" + encoded + "}";
      AppendSample(out, static_cast<double>(h.count()));
    }
  }
  return out;
}

util::Status WritePrometheusText(const MetricsRegistry& registry,
                                 const std::string& path) {
  return WriteFile(path, PrometheusText(registry));
}

}  // namespace myrtus::telemetry
