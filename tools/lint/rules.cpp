#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <map>
#include <regex>

#include "ast.hpp"
#include "callgraph.hpp"
#include "flow_rules.hpp"
#include "lexer.hpp"
#include "lifetime_rules.hpp"
#include "underflow_rules.hpp"

namespace myrtus::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Finds `token` in `line` with identifier boundaries on both sides.
/// Returns npos when absent. `token` may itself contain "::" (qualified
/// names); only its first and last characters get boundary checks.
std::size_t FindToken(const std::string& line, const std::string& token,
                      std::size_t from = 0) {
  for (std::size_t pos = line.find(token, from); pos != std::string::npos;
       pos = line.find(token, pos + 1)) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string::npos;
}

std::size_t SkipSpaces(const std::string& line, std::size_t pos) {
  while (pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[pos])) != 0) {
    ++pos;
  }
  return pos;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// --- determinism ------------------------------------------------------------

/// Identifiers that are banned outright wherever they appear.
const char* const kBannedDeterminismTokens[] = {
    "system_clock",   "steady_clock", "high_resolution_clock",
    "random_device",  "mt19937",      "mt19937_64",
    "minstd_rand",    "srand",        "std::rand",
    "std::thread",    "std::jthread", "std::async",
    "std::time",      "std::clock",
};

void CheckDeterminism(const FileContext& file, std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    const auto report = [&](const std::string& what) {
      findings.push_back(
          {file.path, lineno, "determinism",
           "'" + what +
               "' breaks byte-reproducible timelines; draw time from "
               "sim::Clock and randomness from a named util::Rng stream"});
    };
    for (const char* token : kBannedDeterminismTokens) {
      if (FindToken(line, token) != std::string::npos) report(token);
    }
    // `clock()` / `rand()` — C library wall clock and ambient PRNG; the
    // nullary-call shape keeps clock_ghz, set_clock(...), rand_idx legal.
    for (const char* fn : {"clock", "rand"}) {
      const std::string name(fn);
      for (std::size_t pos = FindToken(line, name); pos != std::string::npos;
           pos = FindToken(line, name, pos + 1)) {
        if (pos >= 1 && line[pos - 1] == ':') continue;  // std:: form above
        std::size_t p = SkipSpaces(line, pos + name.size());
        if (p < line.size() && line[p] == '(') {
          p = SkipSpaces(line, p + 1);
          if (p < line.size() && line[p] == ')') report(name + "()");
        }
      }
    }
    // `time(nullptr)` / `time(NULL)` / `time(0)` without a std:: prefix
    // (the qualified form is caught by the token list above).
    for (std::size_t pos = FindToken(line, "time"); pos != std::string::npos;
         pos = FindToken(line, "time", pos + 1)) {
      if (pos >= 1 && line[pos - 1] == ':') continue;  // std::time, reported above
      std::size_t p = SkipSpaces(line, pos + 4);
      if (p >= line.size() || line[p] != '(') continue;
      p = SkipSpaces(line, p + 1);
      for (const char* arg : {"nullptr", "NULL", "0"}) {
        const std::string a(arg);
        if (line.compare(p, a.size(), a) == 0 &&
            SkipSpaces(line, p + a.size()) < line.size() &&
            line[SkipSpaces(line, p + a.size())] == ')') {
          report("time(" + a + ")");
          break;
        }
      }
    }
    // `.detach(` / `->detach(` — orphaning a thread.
    for (std::size_t pos = FindToken(line, "detach"); pos != std::string::npos;
         pos = FindToken(line, "detach", pos + 1)) {
      const bool member = (pos >= 1 && line[pos - 1] == '.') ||
                          (pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>');
      const std::size_t p = SkipSpaces(line, pos + 6);
      if (member && p < line.size() && line[p] == '(') report(".detach()");
    }
  }
}

// --- layering ---------------------------------------------------------------

/// Direct dependency edges, mirroring the myrtus_library(... DEPS ...) calls
/// in src/CMakeLists.txt (the DESIGN.md layer table). Keep the two in sync.
const std::map<std::string, std::vector<std::string>>& DirectDeps() {
  static const std::map<std::string, std::vector<std::string>> deps = {
      {"util", {}},
      {"telemetry", {"util"}},
      {"sim", {"telemetry", "util"}},
      {"security", {"util"}},
      {"net", {"sim", "util"}},
      {"kb", {"net", "sim", "util"}},
      {"continuum", {"net", "security", "sim", "util"}},
      {"sched", {"continuum", "security", "util"}},
      {"tosca", {"sched", "security", "util"}},
      {"swarm", {"sim", "util"}},
      {"fl", {"net", "util"}},
      {"dpe", {"tosca", "continuum", "swarm", "security", "util"}},
      {"mirto",
       {"kb", "sched", "tosca", "swarm", "fl", "security", "dpe", "net",
        "continuum", "sim", "util"}},
      {"usecases", {"mirto", "dpe", "util"}},
  };
  return deps;
}

/// Transitive closure of DirectDeps(), each module also allowing itself.
const std::map<std::string, std::set<std::string>>& AllowedIncludes() {
  static const std::map<std::string, std::set<std::string>> closure = [] {
    std::map<std::string, std::set<std::string>> out;
    for (const auto& [mod, _] : DirectDeps()) {
      // Iterative DFS; the DAG is tiny.
      std::set<std::string>& reach = out[mod];
      std::vector<std::string> stack{mod};
      while (!stack.empty()) {
        const std::string cur = stack.back();
        stack.pop_back();
        if (!reach.insert(cur).second) continue;
        const auto it = DirectDeps().find(cur);
        if (it == DirectDeps().end()) continue;
        for (const std::string& d : it->second) stack.push_back(d);
      }
    }
    return out;
  }();
  return closure;
}

void CheckLayering(const FileContext& file, std::vector<Finding>& findings) {
  if (file.module.empty()) return;  // tests/bench/tools may include anything
  const auto allowed_it = AllowedIncludes().find(file.module);
  if (allowed_it == AllowedIncludes().end()) return;  // unknown module
  const std::set<std::string>& allowed = allowed_it->second;
  static const std::regex include_re("^\\s*#\\s*include\\s+\"([^\"]+)\"");
  for (std::size_t i = 0; i < file.raw_lines.size(); ++i) {
    // The include token survives stripping; the quoted path does not, so the
    // match runs on the raw line gated on the code view (this also keeps
    // includes inside comments from firing).
    if (file.code_lines[i].find("include") == std::string::npos) continue;
    std::smatch m;
    if (!std::regex_search(file.raw_lines[i], m, include_re)) continue;
    const std::string target = m[1].str();
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos) continue;  // relative/local include
    const std::string target_module = target.substr(0, slash);
    if (DirectDeps().count(target_module) == 0) continue;  // not a layer path
    if (allowed.count(target_module) == 0) {
      findings.push_back(
          {file.path, static_cast<int>(i) + 1, "layering",
           "module '" + file.module + "' must not include '" + target +
               "': '" + target_module +
               "' is not beneath it in the DESIGN layer DAG"});
    }
  }
}

// --- status-discard ---------------------------------------------------------

void CheckStatusDiscard(const FileContext& file,
                        const std::set<std::string>& status_fns,
                        std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    for (const std::string& marker : {std::string("(void)"),
                                      std::string("static_cast<void>(")}) {
      for (std::size_t pos = line.find(marker); pos != std::string::npos;
           pos = line.find(marker, pos + 1)) {
        // Extract the call expression after the discard marker: everything up
        // to the first '(' names the callee; its trailing identifier is the
        // function name (handles obj.f(...), ptr->f(...), ns::f(...)).
        const std::size_t expr_begin = pos + marker.size();
        const std::size_t call_paren = line.find('(', expr_begin);
        if (call_paren == std::string::npos) continue;  // variable discard
        std::size_t name_end = call_paren;
        while (name_end > expr_begin &&
               std::isspace(static_cast<unsigned char>(line[name_end - 1])) != 0) {
          --name_end;
        }
        std::size_t name_begin = name_end;
        while (name_begin > expr_begin && IsIdentChar(line[name_begin - 1])) {
          --name_begin;
        }
        if (name_begin == name_end) continue;
        const std::string callee = line.substr(name_begin, name_end - name_begin);
        if (status_fns.count(callee) == 0) continue;
        const int lineno = static_cast<int>(i) + 1;
        if (HasSiteAnnotation(file, lineno, "status-discard")) continue;
        findings.push_back(
            {file.path, lineno, "status-discard",
             "result of Status-returning '" + callee +
                 "' discarded; handle the error or justify with "
                 "// LINT: discard(<reason>)"});
      }
    }
  }
}

// --- pragma-once ------------------------------------------------------------

void CheckPragmaOnce(const FileContext& file, std::vector<Finding>& findings) {
  if (!file.is_header) return;
  for (const std::string& line : file.code_lines) {
    std::size_t p = SkipSpaces(line, 0);
    if (p < line.size() && line[p] == '#') {
      p = SkipSpaces(line, p + 1);
      if (line.compare(p, 6, "pragma") == 0 &&
          line.find("once", p + 6) != std::string::npos) {
        return;
      }
    }
  }
  findings.push_back({file.path, 1, "pragma-once",
                      "header is missing '#pragma once'"});
}

// --- hygiene-banned ---------------------------------------------------------

const std::map<std::string, std::string>& BannedFunctions() {
  static const std::map<std::string, std::string> banned = {
      {"strcpy", "use std::string or std::copy"},
      {"strcat", "use std::string::append"},
      {"sprintf", "use std::snprintf or std::format"},
      {"vsprintf", "use std::vsnprintf"},
      {"gets", "use std::getline"},
      {"atoi", "use std::from_chars or std::strtol (error-aware)"},
      {"atol", "use std::from_chars or std::strtol (error-aware)"},
      {"atoll", "use std::from_chars or std::strtoll (error-aware)"},
      {"atof", "use std::from_chars or std::strtod (error-aware)"},
      {"strtok", "use std::string_view splitting (strtok is stateful)"},
  };
  return banned;
}

void CheckBannedFunctions(const FileContext& file, std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    for (const auto& [fn, alternative] : BannedFunctions()) {
      for (std::size_t pos = FindToken(line, fn); pos != std::string::npos;
           pos = FindToken(line, fn, pos + 1)) {
        // Only calls: the token must be followed by '('. Member access
        // (obj.atoi) would be a different function; still suspicious, still
        // matched — there are no such members in this codebase.
        const std::size_t p = SkipSpaces(line, pos + fn.size());
        if (p < line.size() && line[p] == '(') {
          findings.push_back({file.path, static_cast<int>(i) + 1,
                              "hygiene-banned",
                              "'" + fn + "' is banned: " + alternative});
        }
      }
    }
  }
}

}  // namespace

FileContext MakeFileContext(std::string path, const std::string& source) {
  FileContext ctx;
  ctx.path = std::move(path);
  ctx.is_header = ctx.path.size() >= 4 &&
                  ctx.path.compare(ctx.path.size() - 4, 4, ".hpp") == 0;
  if (StartsWith(ctx.path, "src/")) {
    const std::size_t slash = ctx.path.find('/', 4);
    if (slash != std::string::npos) ctx.module = ctx.path.substr(4, slash - 4);
  }
  ctx.raw = source;
  ctx.code = StripCommentsAndStrings(source);
  ctx.raw_lines = SplitLines(ctx.raw);
  ctx.code_lines = SplitLines(ctx.code);
  return ctx;
}

std::set<std::string> CollectStatusReturningFunctions(
    const std::vector<FileContext>& files) {
  // Matches `Status Foo(`, `util::StatusOr<T> Class::Foo(`, etc. on a single
  // stripped line. Multi-line declarations (return type alone on its line)
  // are a documented limitation — the codebase style keeps them together.
  static const std::regex decl_re(
      "(?:^|[^\\w])Status(?:Or\\s*<[^;{}()]*>)?\\s+"
      "(?:[A-Za-z_]\\w*::)*([A-Za-z_]\\w*)\\s*\\(");
  std::set<std::string> names;
  for (const FileContext& file : files) {
    for (const std::string& line : file.code_lines) {
      for (std::sregex_iterator it(line.begin(), line.end(), decl_re), end;
           it != end; ++it) {
        names.insert((*it)[1].str());
      }
    }
  }
  return names;
}

bool HasSiteAnnotation(const FileContext& file, int line, const std::string& rule) {
  const std::string allow = "LINT: allow(" + rule;
  const std::string discard = "LINT: discard(";
  const int first = std::max(1, line - 3);
  for (int l = first; l <= line && l <= static_cast<int>(file.raw_lines.size());
       ++l) {
    const std::string& raw = file.raw_lines[static_cast<std::size_t>(l) - 1];
    if (raw.find(allow) != std::string::npos) return true;
    if (rule == "status-discard" && raw.find(discard) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::vector<Finding> RunRules(const std::vector<FileContext>& files,
                              const std::vector<std::string>& determinism_allowlist,
                              std::vector<FamilyTiming>* timings) {
  // Per-family wall-time accounting for the CLI's --timings breakdown. The
  // analyzer is host tooling measuring its own latency, never feeding a
  // simulated result.
  std::map<std::string, double> family_ms;
  std::vector<std::string> family_order;
  const auto timed = [&](const char* family, auto&& body) {
    // LINT: allow(determinism, --timings measures the analyzer's own latency)
    const auto t0 = std::chrono::steady_clock::now();
    body();
    // LINT: allow(determinism, --timings measures the analyzer's own latency)
    const auto t1 = std::chrono::steady_clock::now();
    if (family_ms.emplace(family, 0.0).second) family_order.push_back(family);
    family_ms[family] +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  std::set<std::string> status_fns;
  std::set<std::string> statusor_fns;
  std::vector<FileAst> asts;
  CallGraph graph;
  TypeFacts type_facts;
  timed("front-end", [&] {
    status_fns = CollectStatusReturningFunctions(files);
    statusor_fns = CollectStatusOrReturningFunctions(files);
    asts.reserve(files.size());
    for (const FileContext& file : files) asts.push_back(BuildFileAst(file));
    // Interprocedural front-end: the cross-TU symbol table / call graph, the
    // unsignedness fact tables, and the status-registry closure (wrappers
    // that forward a Status become status-returning themselves, so
    // status-discard sees through one or more call hops).
    graph = BuildCallGraph(files, asts);
    type_facts = CollectTypeFacts(files, asts, graph);
    AugmentStatusRegistry(files, asts, graph, &status_fns);
  });
  std::vector<Finding> findings;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const FileContext& file = files[fi];
    const FileAst& ast = asts[fi];
    std::vector<Finding> file_findings;
    timed("lexical", [&] {
      const bool time_allowed = std::any_of(
          determinism_allowlist.begin(), determinism_allowlist.end(),
          [&](const std::string& prefix) {
            return StartsWith(file.path, prefix);
          });
      if (!time_allowed) CheckDeterminism(file, file_findings);
      CheckLayering(file, file_findings);
      CheckStatusDiscard(file, status_fns, file_findings);
      CheckPragmaOnce(file, file_findings);
      CheckBannedFunctions(file, file_findings);
    });
    timed("parallel-capture-race", [&] {
      for (Finding& f : CheckParallelCaptureRace(file, ast)) {
        file_findings.push_back(std::move(f));
      }
    });
    timed("statusor-use-before-ok", [&] {
      for (Finding& f : CheckStatusOrFlow(file, ast, statusor_fns)) {
        file_findings.push_back(std::move(f));
      }
    });
    for (Finding& f : file_findings) {
      // status-discard already consulted its annotation; every other rule
      // honors the generic `LINT: allow(<rule>, reason)` escape hatch here.
      if (f.rule != "status-discard" && HasSiteAnnotation(file, f.line, f.rule)) {
        continue;
      }
      findings.push_back(std::move(f));
    }
  }
  // The cross-file families run once over the whole set (duplicate stream
  // identities, guards and sinks across TUs); annotations are honored per
  // site.
  std::map<std::string, const FileContext*> by_path;
  for (const FileContext& file : files) by_path[file.path] = &file;
  std::vector<Finding> cross;
  timed("rng-substream-discipline", [&] {
    for (Finding& f : CheckRngDiscipline(files, asts)) {
      cross.push_back(std::move(f));
    }
  });
  timed("unsigned-underflow", [&] {
    for (Finding& f : CheckUnsignedUnderflow(files, asts, graph, type_facts)) {
      cross.push_back(std::move(f));
    }
  });
  timed("deferred-capture", [&] {
    const DeferredSinkTable table = BuildDeferredSinkTable(files, asts, graph);
    for (Finding& f :
         CheckDeferredCaptureLifetime(files, asts, graph, table)) {
      cross.push_back(std::move(f));
    }
  });
  for (Finding& f : cross) {
    const auto it = by_path.find(f.file);
    if (it != by_path.end() && HasSiteAnnotation(*it->second, f.line, f.rule)) {
      continue;
    }
    findings.push_back(std::move(f));
  }
  if (timings != nullptr) {
    for (const std::string& family : family_order) {
      timings->push_back({family, family_ms[family]});
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

}  // namespace myrtus::lint
