// Driver for myrtus_lint: walks the tree, runs the rule engine, applies the
// checked-in suppression list, and reports `file:line: rule: message` lines
// with CI-friendly exit semantics (see main.cpp / docs/LINTING.md).
#pragma once

#include <string>
#include <vector>

#include "rules.hpp"
#include "util/status.hpp"

namespace myrtus::lint {

/// One entry of tools/lint/suppressions.txt:
///   <rule-id> <path[:line]> -- <reason>
/// Three path-pattern shapes:
///   * exact:        src/kb/registry.cpp
///   * prefix:       src/kb/*           (a single TRAILING '*' and no other
///                                       wildcard — matches across '/')
///   * glob:         src/sched/*.cpp    ('*' = any run of non-'/' chars,
///                                       '?' = one non-'/' char)
/// The reason is mandatory — a suppression without a written justification
/// is a parse error, by design. An exact entry whose path is also matched by
/// a glob/prefix entry for the same rule is rejected at parse time: one of
/// the two is redundant, and redundant suppressions rot.
struct Suppression {
  std::string rule;
  std::string path_pattern;
  int line = 0;  // 0 = any line
  std::string reason;
  bool used = false;
};

/// True when `path` matches `pattern` under the shape rules above.
bool PathPatternMatches(const std::string& pattern, const std::string& path);

/// True when the suppression covers the finding (rule, path pattern, line).
bool SuppressionMatches(const Suppression& sup, const Finding& f);

struct Options {
  /// All scanned paths are reported relative to this root, so suppressions
  /// stay stable regardless of where the binary runs.
  std::string repo_root = ".";
  /// Path prefixes where host time/threads are legitimate: bench drivers
  /// measure wall-clock by design, the telemetry exporters (which also write
  /// the span ring's fault dumps) are the designated boundary where host
  /// timestamps may enter exported artifacts, and util/parallel is the one
  /// sanctioned home for std::thread — its fork-join pool guarantees results
  /// independent of thread scheduling, which is the property the rule exists
  /// to protect. Everything else draws parallelism through
  /// util::ParallelFor/ParallelMap.
  std::vector<std::string> determinism_allowlist = {
      "bench/", "src/telemetry/export.", "src/util/parallel."};
  /// --timings: collect the per-family wall-time breakdown into
  /// LintResult::timings.
  bool collect_timings = false;
};

struct LintResult {
  std::vector<Finding> findings;  // unsuppressed only
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;
  /// In-scope suppressions that matched nothing this run: stale entries,
  /// which fail the run.
  std::vector<Suppression> unused_suppressions;
  /// Per-rule-family wall time (only populated under Options::collect_timings).
  std::vector<FamilyTiming> timings;
};

util::StatusOr<std::vector<Suppression>> ParseSuppressions(
    const std::string& text, const std::string& origin);

/// Renders a run as a SARIF 2.1.0 log (one run, driver "myrtus-lint", every
/// rule in the metadata table, one result per unsuppressed finding). File
/// paths are emitted repo-relative with uriBaseId "SRCROOT" so the log stays
/// portable across checkouts; CI uploads it for PR annotations. The console
/// GCC-diagnostic format stays the default — SARIF is opt-in via --sarif=.
std::string SarifReport(const LintResult& result);

/// Walks `paths` (files or directories, relative to Options::repo_root),
/// lexes every .cpp/.hpp (skipping lint fixture trees), runs all rules, and
/// filters through <repo_root>/tools/lint/suppressions.txt when present.
util::StatusOr<LintResult> LintPaths(const std::vector<std::string>& paths,
                                     const Options& options);

}  // namespace myrtus::lint
