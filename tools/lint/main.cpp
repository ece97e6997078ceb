// myrtus_lint — project-invariant static analyzer for the MYRTUS tree.
//
//   myrtus_lint [--repo-root=DIR] [--max-ms=N] [--sarif=FILE] [--timings]
//               <path>...
//
// Prints one `file:line:col: rule-id: message` per unsuppressed finding
// (column omitted when the rule only knows the line) — the GCC diagnostic
// shape, so editors and CI annotators parse it natively. --sarif=FILE
// additionally writes the run as a SARIF 2.1.0 log for PR-annotation
// uploads; the console format stays the source of truth.
//
// --timings prints a per-rule-family wall-time breakdown to stderr.
//
// Exit codes: 0 = clean, 1 = findings, stale suppressions, or the --max-ms
// budget blown, 2 = usage or I/O error. A suppression that matched nothing is
// stale: it outlived the finding it justified and must be deleted.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "lint.hpp"

int main(int argc, char** argv) {
  myrtus::lint::Options options;
  std::vector<std::string> paths;
  long max_ms = 0;
  std::string sarif_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--repo-root=", 0) == 0) {
      options.repo_root = arg.substr(12);
    } else if (arg.rfind("--max-ms=", 0) == 0) {
      max_ms = std::strtol(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg == "--timings") {
      options.collect_timings = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: myrtus_lint [--repo-root=DIR] [--max-ms=N] [--sarif=FILE] "
          "[--timings] <path>...\n");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "myrtus_lint: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "myrtus_lint: no paths given (try: src tests bench)\n");
    return 2;
  }

  // The analyzer is host tooling, not simulation code: wall time here gates
  // its own latency budget (--max-ms), it never feeds a computed result.
  // LINT: allow(determinism, lint CLI measures its own runtime for --max-ms)
  const auto start = std::chrono::steady_clock::now();
  auto result = myrtus::lint::LintPaths(paths, options);
  // LINT: allow(determinism, lint CLI measures its own runtime for --max-ms)
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const long elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
  if (!result.ok()) {
    std::fprintf(stderr, "myrtus_lint: %s\n", result.status().ToString().c_str());
    return 2;
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "myrtus_lint: cannot write SARIF log to '%s'\n",
                   sarif_path.c_str());
      return 2;
    }
    out << myrtus::lint::SarifReport(*result) << "\n";
  }

  if (options.collect_timings) {
    for (const myrtus::lint::FamilyTiming& t : result->timings) {
      std::fprintf(stderr, "myrtus_lint: timing: %-26s %9.2f ms\n",
                   t.family.c_str(), t.ms);
    }
  }

  for (const myrtus::lint::Finding& f : result->findings) {
    if (f.col > 0) {
      std::printf("%s:%d:%d: %s: %s\n", f.file.c_str(), f.line, f.col,
                  f.rule.c_str(), f.message.c_str());
    } else {
      std::printf("%s:%d: %s: %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    }
  }
  bool failed = !result->findings.empty();
  for (const myrtus::lint::Suppression& sup : result->unused_suppressions) {
    std::fprintf(stderr,
                 "myrtus_lint: error: suppression matched nothing this run: "
                 "%s %s (%s)\n",
                 sup.rule.c_str(), sup.path_pattern.c_str(),
                 sup.reason.c_str());
    failed = true;
  }
  if (max_ms > 0 && elapsed_ms > max_ms) {
    std::fprintf(stderr,
                 "myrtus_lint: error: run took %ldms, over the --max-ms=%ld "
                 "budget\n",
                 elapsed_ms, max_ms);
    failed = true;
  }
  std::fprintf(stderr,
               "myrtus_lint: %zu files scanned, %zu finding(s), %zu "
               "suppressed, %ldms\n",
               result->files_scanned, result->findings.size(),
               result->suppressed, elapsed_ms);
  return failed ? 1 : 0;
}
