// Shared BENCH_*.json artifact writer: every bench serializes its headline
// numbers through this one schema so runs are comparable across commits and
// machines. The schema is versioned (kBenchSchemaVersion) and diffed by
// tools/benchdiff, which exits nonzero when a gated metric regresses past its
// threshold — the artifact IS the regression gate, the printed tables are
// for humans.
//
// Schema (myrtus.bench.v1):
//   {
//     "schema_version": 1,
//     "experiment": "A7_parallel_ablation",   // experiment index name
//     "bench": "parallel",                    // artifact short name
//     "mode": "full" | "quick",
//     "seed": 1,
//     "workers": 1,                           // util::ParallelWorkers()
//     "git_sha": "<MYRTUS_GIT_SHA env or unknown>",
//     "wall_ms": 123.4,                       // construction -> write
//     "sim_ms": 456.7,                        // simulated time covered (0 = n/a)
//     "metrics": { "<name>": { "value": 1.0, "unit": "ms",
//                              "higher_is_better": false, "gate": true } },
//                  // unit "hash": an identity witness, gated for equality
//     "extra": { ... }                        // free-form, never diffed
//   }
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "util/json.hpp"
#include "util/status.hpp"

namespace myrtus::bench {

inline constexpr int kBenchSchemaVersion = 1;

/// The commit under test: $MYRTUS_GIT_SHA when set (CI exports it), else
/// "unknown". Never shells out — benches must run without git present.
std::string GitSha();

/// Strips `flag` (exact match, e.g. "--quick") from argv; returns whether it
/// was present. Call before benchmark::Initialize, which rejects unknown flags.
bool StripFlag(int& argc, char** argv, std::string_view flag);

/// Strips `prefix`-style value flags (e.g. "--out=") from argv; returns the
/// value of the last occurrence, or `fallback` when absent.
std::string StripValueFlag(int& argc, char** argv, std::string_view prefix,
                           std::string fallback);

/// One run's artifact. Construct early (wall_ms counts from construction),
/// add metrics as the experiment produces them, Write() at the end.
class Report {
 public:
  /// `experiment` names the experiment-index row (e.g. "F3_mirto_loop");
  /// `bench` is the artifact short name — the default output file is
  /// BENCH_<bench>.json in the working directory.
  Report(std::string experiment, std::string bench);

  void set_mode(std::string mode) { mode_ = std::move(mode); }
  void set_seed(std::uint64_t seed) { seed_ = seed; }
  /// Simulated time the experiment covered; 0 for pure wall-clock benches.
  void set_sim_ms(double sim_ms) { sim_ms_ = sim_ms; }

  /// Adds one metric row. `gate` metrics are compared by benchdiff;
  /// non-gated ones are informational (timings that vary across hardware).
  void AddMetric(const std::string& name, double value, std::string unit,
                 bool higher_is_better = false, bool gate = true);
  /// Attaches free-form context under "extra" (never diffed).
  void SetExtra(const std::string& key, util::Json value);

  [[nodiscard]] std::string default_path() const {
    return "BENCH_" + bench_ + ".json";
  }
  [[nodiscard]] util::Json ToJson() const;
  /// Serializes to `path` (empty = default_path()). Prints the destination
  /// so CI logs show where the artifact landed.
  [[nodiscard]] util::Status Write(const std::string& path = "") const;

 private:
  std::string experiment_;
  std::string bench_;
  std::string mode_ = "full";
  std::uint64_t seed_ = 0;
  double sim_ms_ = 0.0;
  std::chrono::steady_clock::time_point started_;
  util::Json metrics_ = util::Json::MakeObject();
  util::Json extra_ = util::Json::MakeObject();
};

}  // namespace myrtus::bench
