// benchdiff: compares two BENCH_*.json artifacts (bench/report.hpp schema)
// and exits nonzero when a gated metric regressed past its threshold. CI runs
// it as the regression tripwire; humans run it to quantify a change:
//
//   benchdiff BASELINE.json CANDIDATE.json [--threshold=10]
//             [--metric=<name>=<pct>]...
//
// --threshold is the default allowed regression in percent; --metric
// overrides it per metric. Direction comes from each metric's
// higher_is_better flag. A gated metric whose unit is "hash" is an identity
// witness: any difference is a regression, whatever the threshold. Exit codes: 0 ok, 1 regression (including a gated
// baseline metric missing from the candidate), 2 usage or parse error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "util/json.hpp"
#include "util/status.hpp"

namespace {

using myrtus::util::Json;

constexpr int kExitOk = 0;
constexpr int kExitRegression = 1;
constexpr int kExitUsage = 2;

myrtus::util::StatusOr<Json> LoadArtifact(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return myrtus::util::Status::NotFound("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = Json::Parse(buf.str());
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object() || !parsed->has("metrics")) {
    return myrtus::util::Status::InvalidArgument(
        path + " is not a bench artifact (no \"metrics\" object)");
  }
  return parsed;
}

int Usage() {
  std::fprintf(stderr,
               "usage: benchdiff BASELINE.json CANDIDATE.json"
               " [--threshold=PCT] [--metric=NAME=PCT]...\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path;
  std::string cand_path;
  double default_threshold = 10.0;
  std::map<std::string, double> per_metric;

  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--threshold=", 0) == 0) {
      default_threshold =
          std::strtod(arg.c_str() + std::strlen("--threshold="), nullptr);
    } else if (arg.rfind("--metric=", 0) == 0) {
      const std::string spec = arg.substr(std::strlen("--metric="));
      const std::size_t eq = spec.rfind('=');
      if (eq == std::string::npos || eq == 0) return Usage();
      per_metric[spec.substr(0, eq)] =
          std::strtod(spec.c_str() + eq + 1, nullptr);
    } else if (base_path.empty()) {
      base_path = arg;
    } else if (cand_path.empty()) {
      cand_path = arg;
    } else {
      return Usage();
    }
  }
  if (base_path.empty() || cand_path.empty()) return Usage();

  const auto base = LoadArtifact(base_path);
  const auto cand = LoadArtifact(cand_path);
  if (!base.ok() || !cand.ok()) {
    std::fprintf(stderr, "benchdiff: %s\n",
                 (!base.ok() ? base.status() : cand.status()).ToString().c_str());
    return kExitUsage;
  }
  const std::int64_t base_schema = base->at("schema_version").as_int(-1);
  const std::int64_t cand_schema = cand->at("schema_version").as_int(-1);
  if (base_schema != cand_schema) {
    std::fprintf(stderr,
                 "benchdiff: schema_version mismatch (%lld vs %lld)\n",
                 static_cast<long long>(base_schema),
                 static_cast<long long>(cand_schema));
    return kExitUsage;
  }

  std::printf("benchdiff %s (%s) -> %s (%s)\n", base_path.c_str(),
              base->at("git_sha").as_string().c_str(), cand_path.c_str(),
              cand->at("git_sha").as_string().c_str());
  std::printf("%-34s | %12s | %12s | %9s | %s\n", "metric", "baseline",
              "candidate", "delta %", "verdict");

  int regressions = 0;
  for (const auto& [name, row] : base->at("metrics").fields()) {
    if (!row.at("gate").as_bool(true)) continue;
    const double base_value = row.at("value").as_double();
    const bool higher_is_better = row.at("higher_is_better").as_bool(false);
    const Json& cand_row = cand->at("metrics").at(name);
    if (cand_row.is_null()) {
      std::printf("%-34s | %12.4g | %12s | %9s | MISSING\n", name.c_str(),
                  base_value, "-", "-");
      ++regressions;
      continue;
    }
    const double cand_value = cand_row.at("value").as_double();
    // Delta in the "bad" direction: positive means the candidate is worse.
    const double denom = std::max(std::fabs(base_value), 1e-9);
    const double delta_pct = (higher_is_better ? base_value - cand_value
                                               : cand_value - base_value) /
                             denom * 100.0;
    const auto it = per_metric.find(name);
    const double threshold = it != per_metric.end() ? it->second
                                                    : default_threshold;
    const bool regressed = row.at("unit").as_string() == "hash"
                               ? cand_value != base_value
                               : delta_pct > threshold;
    if (regressed) ++regressions;
    std::printf("%-34s | %12.4g | %12.4g | %+9.2f | %s\n", name.c_str(),
                base_value, cand_value,
                higher_is_better ? -delta_pct : delta_pct,
                regressed ? "REGRESSED" : "ok");
  }
  for (const auto& [name, row] : cand->at("metrics").fields()) {
    if (row.at("gate").as_bool(true) && base->at("metrics").at(name).is_null()) {
      std::printf("%-34s | %12s | %12.4g | %9s | new\n", name.c_str(), "-",
                  row.at("value").as_double(), "-");
    }
  }

  if (regressions > 0) {
    std::printf("%d gated metric(s) regressed past threshold\n", regressions);
    return kExitRegression;
  }
  std::printf("no regressions\n");
  return kExitOk;
}
