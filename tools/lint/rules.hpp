// Rule engine for myrtus_lint. Each rule checks one project invariant the
// compiler cannot see (see docs/LINTING.md for the rationale and examples):
//
//   determinism     — sim-driven code must not read wall clocks, ambient
//                     randomness, or spawn threads; only util::Rng streams
//                     and sim::Clock keep chaos timelines byte-reproducible.
//   layering        — #include "<module>/..." edges must follow the DESIGN
//                     layer DAG (mirrors src/CMakeLists.txt DEPS).
//   status-discard  — `(void)` / static_cast<void> discards of calls that
//                     return util::Status / util::StatusOr must carry a
//                     `// LINT: discard(<reason>)` justification.
//   pragma-once     — every header carries `#pragma once`.
//   hygiene-banned  — strcpy/sprintf/atoi-class functions are banned.
//
// Three flow-aware families run on top of the AST/CFG front-end
// (tools/lint/ast.hpp, tools/lint/cfg.hpp, tools/lint/flow_rules.hpp):
//
//   parallel-capture-race    — writes through by-reference captures inside
//                              util::Parallel* bodies must be shard-indexed.
//   statusor-use-before-ok   — .value()/operator*/operator-> on a StatusOr
//                              must be dominated by an ok()/MustOk check on
//                              every CFG path within the function.
//   rng-substream-discipline — no ambient util::Rng construction inside
//                              parallel bodies; no duplicate literal
//                              (seed, stream) pairs across src/.
//
// The capture-lifetime family (tools/lint/lifetime_rules.hpp) closes a
// deferred-sink registry over the cross-TU call graph and flags stack-scoped
// state flowing into callbacks that outlive their frame:
//
//   deferred-ref-capture     — [&] defaults / explicit &name captures into a
//                              deferred sink (waive per capture with
//                              `LINT: deferred-capture-ok(<name>) -- why`).
//   deferred-this-capture    — [this] registrations called on block-scoped
//                              receivers.
//   deferred-pointer-capture — by-value captures holding a stack address
//                              (second severity; SARIF level "warning").
//
// Any rule can additionally be waived at a single site with
// `// LINT: allow(<rule-id>, <reason>)` on the finding line or the line above.
#pragma once

#include <set>
#include <string>
#include <vector>

namespace myrtus::lint {

struct Finding {
  std::string file;  // repo-relative path
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
  int col = 0;  // 1-based; 0 = unknown (whole-line finding). Last on purpose:
                // the line-only rules brace-init the first four fields.
};

/// One analyzed file: raw text for annotation lookup, stripped "code view"
/// for token matching. Paths are repo-relative with forward slashes. The
/// joined `raw`/`code` buffers are byte-for-byte the same geometry (the lexer
/// guarantees it), so offsets found in the code view address the raw text.
struct FileContext {
  std::string path;
  std::string module;  // "util", "net", ... for src/<module>/ files, else ""
  bool is_header = false;
  std::string raw;   // original source
  std::string code;  // stripped source (comments/literal contents blanked)
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;
};

/// Lexes `source` into a context. `path` must be repo-relative.
FileContext MakeFileContext(std::string path, const std::string& source);

/// Pass 1 of the Status-discipline rule: names of functions declared to
/// return util::Status or util::StatusOr anywhere in the scanned set.
std::set<std::string> CollectStatusReturningFunctions(
    const std::vector<FileContext>& files);

/// Wall-time spent in one rule family during a RunRules pass, for the CLI's
/// --timings breakdown. Families: "front-end" (lexing regex + ASTs + call
/// graph + fact tables), "lexical" (the per-line token rules), then one entry
/// per flow/interprocedural family.
struct FamilyTiming {
  std::string family;
  double ms = 0.0;
};

/// Runs every rule over `files` (two passes: Status registry, then checks).
/// `determinism_allowlist` holds path prefixes exempt from the determinism
/// rule — the designated host-time boundaries (bench drivers, exporters).
/// Findings are ordered by (file, line, rule).
///
/// `timings`, when non-null, receives the per-family wall-time breakdown.
std::vector<Finding> RunRules(const std::vector<FileContext>& files,
                              const std::vector<std::string>& determinism_allowlist,
                              std::vector<FamilyTiming>* timings = nullptr);

/// True when the finding at `line` (1-based) carries a
/// `LINT: allow(<rule>` or — for status-discard — `LINT: discard(`
/// annotation on that raw line or up to three lines above (justification
/// comments may wrap).
bool HasSiteAnnotation(const FileContext& file, int line, const std::string& rule);

}  // namespace myrtus::lint
