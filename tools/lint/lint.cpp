#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/json.hpp"

namespace myrtus::lint {
namespace fs = std::filesystem;

namespace {

util::StatusOr<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound("cannot open " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

bool IsLintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

/// Fixture trees contain deliberately-violating files driven by unit tests.
bool InFixtureTree(const std::string& repo_relative) {
  return repo_relative.find("lint_fixtures") != std::string::npos;
}

std::string RepoRelative(const fs::path& path, const fs::path& root) {
  const fs::path rel = fs::relative(path, root);
  return rel.generic_string();
}

std::string Trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

bool HasWildcard(const std::string& pattern) {
  return pattern.find_first_of("*?") != std::string::npos;
}

/// Legacy shape: a single trailing '*' and no other wildcard. Kept as a
/// whole-subtree prefix match (crosses '/') so existing entries like
/// `src/kb/*` keep covering nested directories.
bool IsPrefixPattern(const std::string& pattern) {
  return !pattern.empty() && pattern.back() == '*' &&
         pattern.find_first_of("*?") == pattern.size() - 1;
}

/// Segment-aware glob: '*' matches any run of non-'/' characters, '?' one
/// non-'/' character. Iterative match with single-star backtracking.
bool GlobMatch(const std::string& pattern, const std::string& path) {
  std::size_t p = 0;
  std::size_t s = 0;
  std::size_t star = std::string::npos;  // position of last '*' in pattern
  std::size_t mark = 0;                  // path position that star matched to
  while (s < path.size()) {
    if (p < pattern.size() &&
        (pattern[p] == path[s] || (pattern[p] == '?' && path[s] != '/'))) {
      ++p;
      ++s;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = s;
    } else if (star != std::string::npos && path[mark] != '/') {
      // Widen the last '*' by one character — but never across a '/'.
      p = star + 1;
      s = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace

bool PathPatternMatches(const std::string& pattern, const std::string& path) {
  if (!HasWildcard(pattern)) return path == pattern;
  if (IsPrefixPattern(pattern)) {
    return path.rfind(pattern.substr(0, pattern.size() - 1), 0) == 0;
  }
  return GlobMatch(pattern, path);
}

bool SuppressionMatches(const Suppression& sup, const Finding& f) {
  if (sup.rule != f.rule) return false;
  if (!PathPatternMatches(sup.path_pattern, f.file)) return false;
  return sup.line == 0 || sup.line == f.line;
}

util::StatusOr<std::vector<Suppression>> ParseSuppressions(
    const std::string& text, const std::string& origin) {
  std::vector<Suppression> out;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const auto where = origin + ":" + std::to_string(lineno);
    const std::size_t sep = line.find(" -- ");
    if (sep == std::string::npos) {
      return util::Status::InvalidArgument(
          where + ": suppression needs a ' -- <reason>' justification");
    }
    Suppression sup;
    sup.reason = Trim(line.substr(sep + 4));
    if (sup.reason.empty()) {
      return util::Status::InvalidArgument(where + ": empty reason");
    }
    std::istringstream head(line.substr(0, sep));
    std::string target;
    if (!(head >> sup.rule >> target) || !(head >> std::ws).eof()) {
      return util::Status::InvalidArgument(
          where + ": expected '<rule-id> <path[:line]> -- <reason>'");
    }
    const std::size_t colon = target.rfind(':');
    if (colon != std::string::npos &&
        target.find_first_not_of("0123456789", colon + 1) == std::string::npos &&
        colon + 1 < target.size()) {
      sup.line = std::stoi(target.substr(colon + 1));
      target.resize(colon);
    }
    sup.path_pattern = target;
    out.push_back(std::move(sup));
  }
  // Reject exact entries shadowed by a wildcard entry for the same rule: one
  // of the two is redundant, and a redundant suppression never goes stale, so
  // it would hide a fixed finding forever.
  for (const Suppression& exact : out) {
    if (HasWildcard(exact.path_pattern)) continue;
    for (const Suppression& wild : out) {
      if (&wild == &exact || wild.rule != exact.rule) continue;
      if (!HasWildcard(wild.path_pattern)) continue;
      if (PathPatternMatches(wild.path_pattern, exact.path_pattern)) {
        return util::Status::InvalidArgument(
            origin + ": exact suppression '" + exact.rule + " " +
            exact.path_pattern + "' is already covered by pattern '" +
            wild.path_pattern + "' for the same rule; drop one of the two");
      }
    }
  }
  return out;
}

std::string SarifReport(const LintResult& result) {
  using util::Json;
  // Rule metadata table: every rule the engine can emit, not just the ones
  // that fired, so result.ruleIndex-free consumers can still enumerate the
  // gate set from the log alone.
  static const struct {
    const char* id;
    const char* description;
  } kRules[] = {
      {"determinism",
       "Host clocks, ambient entropy, and raw std::thread are banned outside "
       "the allowlisted boundary modules; simulation results must be pure "
       "functions of their inputs."},
      {"layering",
       "#include edges must follow the module DAG; lower layers never reach "
       "up."},
      {"status-discard",
       "util::Status/StatusOr returns (including one-deep wrappers that "
       "forward them) must be consumed, not silently dropped."},
      {"pragma-once", "Headers open with #pragma once."},
      {"hygiene-banned",
       "Banned calls (printf-family in library code, abort, system, getenv "
       "outside config loading)."},
      {"parallel-capture-race",
       "ParallelFor bodies must not capture and mutate shared state without "
       "per-shard ownership."},
      {"statusor-use-before-ok",
       "StatusOr values must be checked ok() on every path before "
       "dereference."},
      {"rng-substream-discipline",
       "Randomness is drawn from named util::Rng substreams; ad-hoc seeding "
       "breaks run reproducibility."},
      {"unsigned-underflow",
       "Unsigned subtraction needs a dominating guard (a >= b branch, "
       "std::min clamp) or util::SubSat; otherwise the difference can wrap."},
      {"deferred-ref-capture",
       "Lambdas flowing into deferred callback sinks (ScheduleAt, Subscribe, "
       "Watch, member std::function stores, and their forwarders via the "
       "call-graph fixpoint) must not capture stack-scoped state by "
       "reference; the callback can outlive the frame."},
      {"deferred-this-capture",
       "Calling a method that registers [this]-capturing deferred callbacks "
       "on a block-scoped receiver leaves the callback pointing at a dead "
       "object."},
      {"deferred-pointer-capture",
       "By-value captures that smuggle the address of a stack object "
       "([p = &local], or a captured T* initialized from &local) into a "
       "deferred callback; second-severity tier of the capture-lifetime "
       "family."},
  };

  Json rules = Json::MakeArray();
  for (const auto& r : kRules) {
    Json rule = Json::MakeObject();
    rule.Set("id", r.id);
    rule.Set("shortDescription",
             Json::MakeObject().Set("text", r.description));
    rules.Append(std::move(rule));
  }

  Json results = Json::MakeArray();
  for (const Finding& f : result.findings) {
    Json region = Json::MakeObject();
    region.Set("startLine", f.line);
    if (f.col > 0) region.Set("startColumn", f.col);
    Json location = Json::MakeObject();
    location.Set(
        "physicalLocation",
        Json::MakeObject()
            .Set("artifactLocation", Json::MakeObject()
                                         .Set("uri", f.file)
                                         .Set("uriBaseId", "SRCROOT"))
            .Set("region", std::move(region)));
    Json entry = Json::MakeObject();
    entry.Set("ruleId", f.rule);
    // Severity tiers: the pointer-smuggling shape needs one more hop (a
    // dereference after the frame dies) to become UB, so it reports at
    // "warning"; everything else is an "error".
    entry.Set("level",
              f.rule == "deferred-pointer-capture" ? "warning" : "error");
    entry.Set("message", Json::MakeObject().Set("text", f.message));
    entry.Set("locations", Json::MakeArray().Append(std::move(location)));
    results.Append(std::move(entry));
  }

  Json driver = Json::MakeObject();
  driver.Set("name", "myrtus-lint");
  driver.Set("informationUri",
             "https://github.com/myrtus-project/myrtus/blob/main/docs/"
             "LINTING.md");
  driver.Set("rules", std::move(rules));
  Json run = Json::MakeObject();
  run.Set("tool", Json::MakeObject().Set("driver", std::move(driver)));
  run.Set("results", std::move(results));
  run.Set("columnKind", "utf16CodeUnits");

  Json log = Json::MakeObject();
  log.Set("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
  log.Set("version", "2.1.0");
  log.Set("runs", Json::MakeArray().Append(std::move(run)));
  return log.Pretty();
}

util::StatusOr<LintResult> LintPaths(const std::vector<std::string>& paths,
                                     const Options& options) {
  const fs::path root = fs::absolute(options.repo_root);
  if (!fs::is_directory(root)) {
    return util::Status::InvalidArgument("repo root " + root.string() +
                                         " is not a directory");
  }

  // Collect the file set (sorted for deterministic reports).
  std::vector<fs::path> files;
  for (const std::string& arg : paths) {
    const fs::path p = fs::path(arg).is_absolute() ? fs::path(arg) : root / arg;
    if (fs::is_regular_file(p)) {
      if (IsLintable(p)) files.push_back(p);
      continue;
    }
    if (!fs::is_directory(p)) {
      return util::Status::NotFound("no such file or directory: " + arg);
    }
    for (const auto& entry : fs::recursive_directory_iterator(p)) {
      if (entry.is_regular_file() && IsLintable(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<FileContext> contexts;
  contexts.reserve(files.size());
  for (const fs::path& file : files) {
    const std::string rel = RepoRelative(file, root);
    if (InFixtureTree(rel)) continue;
    auto source = ReadFile(file);
    if (!source.ok()) return source.status();
    contexts.push_back(MakeFileContext(rel, *source));
  }

  std::vector<Suppression> suppressions;
  const fs::path sup_path = root / "tools" / "lint" / "suppressions.txt";
  if (fs::exists(sup_path)) {
    auto text = ReadFile(sup_path);
    if (!text.ok()) return text.status();
    auto parsed = ParseSuppressions(*text, RepoRelative(sup_path, root));
    if (!parsed.ok()) return parsed.status();
    suppressions = std::move(parsed).value();
  }

  LintResult result;
  result.files_scanned = contexts.size();
  for (Finding& f : RunRules(contexts, options.determinism_allowlist,
                             options.collect_timings ? &result.timings
                                                     : nullptr)) {
    bool suppressed = false;
    for (Suppression& sup : suppressions) {
      if (SuppressionMatches(sup, f)) {
        sup.used = true;
        suppressed = true;
      }
    }
    if (suppressed) {
      ++result.suppressed;
    } else {
      result.findings.push_back(std::move(f));
    }
  }
  for (const Suppression& sup : suppressions) {
    if (sup.used) continue;
    // Staleness is judged against the scanned scope: an entry for a path this
    // run never looked at (lint_self scans only tools/lint; a targeted run
    // scans one subtree) is out of scope, not stale. Only a full-tree run —
    // lint_repo — can convict an entry of having outlived its finding.
    const bool in_scope =
        std::any_of(contexts.begin(), contexts.end(), [&](const FileContext& f) {
          return PathPatternMatches(sup.path_pattern, f.path);
        });
    if (in_scope) result.unused_suppressions.push_back(sup);
  }
  return result;
}

}  // namespace myrtus::lint
