#include "lifetime_rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <tuple>

namespace myrtus::lint {
namespace {

/// Seed registry: the repo's known deferred entry points, (unqualified name,
/// 0-based callable-argument index). Keep in sync with docs/LINTING.md.
struct SeedSink {
  const char* name;
  int arg;
};
constexpr std::array<SeedSink, 13> kSeedSinks = {{
    {"ScheduleAt", 1},       // sim::Engine
    {"ScheduleAfter", 1},    // sim::Engine
    {"SchedulePeriodic", 1}, // sim::Engine
    {"Subscribe", 2},        // mirto::Broker
    {"Watch", 1},            // kb::Store
    {"Call", 4},             // net::Network RPC reply callback
    {"CallWithRetry", 4},    // net::Network
    {"Propose", 1},          // continuum::RaftNode
    {"RegisterTarget", 1},   // sim::ChaosController inject hook
    {"RegisterTarget", 2},   // sim::ChaosController restore hook
    {"Attach", 1},           // net::Transport datagram handler
    {"RegisterRpc", 2},      // net::Transport
    {"RegisterAsyncRpc", 2}, // net::Transport
}};

/// Callees that accept a callable but invoke it before returning (fork-join
/// pools included: Pool::Run stores the shard body in a member yet joins
/// before return). Never classified as sinks, seed or structural.
bool IsImmediateCallee(const std::string& name) {
  static const std::array<const char*, 5> kImmediate = {
      "ParallelFor", "ParallelMap", "Run", "RunUntil", "Step"};
  return std::find_if(kImmediate.begin(), kImmediate.end(),
                      [&](const char* n) { return name == n; }) !=
         kImmediate.end();
}

/// Parameter types whose callables the scheduler invokes synchronously
/// (FilterFn filters run inside Schedule(), before it returns).
bool IsImmediateParamType(const std::string& decl_text) {
  return FindTokenInRange(decl_text, "FilterFn", 0, decl_text.size()) !=
         std::string::npos;
}

/// Container members that keep the inserted callable alive.
bool IsContainerInsert(const std::string& name) {
  static const std::array<const char*, 7> kInserts = {
      "push_back", "emplace_back", "emplace", "insert",
      "try_emplace", "assign", "push"};
  return std::find_if(kInserts.begin(), kInserts.end(),
                      [&](const char* n) { return name == n; }) !=
         kInserts.end();
}

std::size_t PrevNonWsAt(const std::string& s, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(s[pos])) == 0) return pos;
  }
  return std::string::npos;
}

std::string StripWs(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) out.push_back(c);
  }
  return out;
}

/// Drain discharge: true when [from, to) contains a member call to one of the
/// engine-drain methods — Run/RunUntil/Step, plus Settle, the test-fixture
/// wrapper around RunUntil. A drain after the registration means the pending
/// callbacks fire (or are destroyed) while the registering frame is still
/// alive, so stack captures cannot dangle. Heuristic by design: a drain does
/// not cancel periodic re-arms past its horizon, but every such event dies
/// with the engine, which shares the frame at all flagged sites.
bool DrainedAfter(const std::string& code, std::size_t from, std::size_t to) {
  for (const char* drain : {"Run", "RunUntil", "Step", "Settle"}) {
    for (std::size_t pos = FindTokenInRange(code, drain, from, to);
         pos != std::string::npos;
         pos = FindTokenInRange(code, drain, pos + 1, to)) {
      const std::size_t prev = PrevNonWsAt(code, pos);
      const bool member =
          prev != std::string::npos &&
          (code[prev] == '.' ||
           (code[prev] == '>' && prev > 0 && code[prev - 1] == '-'));
      std::size_t after = pos;
      while (after < code.size() && IsIdentifierChar(code[after])) ++after;
      after = SkipWsForward(code, after, code.size());
      if (member && after < code.size() && code[after] == '(') return true;
    }
  }
  return false;
}

/// Offset of the '>' matching the '<' at `lt`, or npos.
std::size_t MatchAngleForward(const std::string& code, std::size_t lt) {
  int depth = 0;
  for (std::size_t i = lt; i < code.size(); ++i) {
    if (code[i] == '<') ++depth;
    if (code[i] == '>') {
      --depth;
      if (depth == 0) return i;
    }
    if (code[i] == ';') break;  // a stray comparison, not a template list
  }
  return std::string::npos;
}

/// One deferred store discovered syntactically: the RHS span of a member
/// std::function assignment, or one argument span of a callback-container
/// insertion. `reg` is the registration offset (the '=' or the call name).
struct StoreSpan {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t reg = 0;
  std::string sink;  // the member/field name, for diagnostics
};

/// True when [b, e) holds exactly `name` or `std::move(name)`; extracts the
/// identifier.
bool ExtractBareIdent(const std::string& code, std::size_t b, std::size_t e,
                      std::string* ident) {
  std::string text = StripWs(code.substr(b, e - b));
  const std::string kMove = "std::move(";
  if (text.size() > kMove.size() + 1 && text.compare(0, kMove.size(), kMove) == 0 &&
      text.back() == ')') {
    text = text.substr(kMove.size(), text.size() - kMove.size() - 1);
  }
  if (text.empty()) return false;
  for (char c : text) {
    if (!IsIdentifierChar(c)) return false;
  }
  if (std::isdigit(static_cast<unsigned char>(text[0])) != 0) return false;
  *ident = std::move(text);
  return true;
}

/// Collects `using X = std::function<...>` alias names in one file.
void CollectCallbackAliases(const std::string& code,
                            std::set<std::string>* aliases) {
  for (std::size_t pos = FindTokenInRange(code, "using", 0, code.size());
       pos != std::string::npos;
       pos = FindTokenInRange(code, "using", pos + 1, code.size())) {
    std::size_t p = SkipWsForward(code, pos + 5, code.size());
    std::size_t ne = p;
    while (ne < code.size() && IsIdentifierChar(code[ne])) ++ne;
    if (ne == p) continue;
    const std::string alias = code.substr(p, ne - p);
    p = SkipWsForward(code, ne, code.size());
    if (p >= code.size() || code[p] != '=') continue;
    const std::size_t semi = code.find(';', p);
    if (semi == std::string::npos) continue;
    const std::size_t fn = FindTokenInRange(code, "function", p, semi);
    if (fn == std::string::npos) continue;
    const std::size_t lt = SkipWsForward(code, fn + 8, semi);
    if (lt < semi && code[lt] == '<') aliases->insert(alias);
  }
}

/// Class-scope spans are "everything outside a symbol body" — good enough to
/// separate member declarations from locals.
bool InsideAnyBody(const std::vector<std::pair<std::size_t, std::size_t>>& bodies,
                   std::size_t offset) {
  for (const auto& [b, e] : bodies) {
    if (offset > b && offset < e) return true;
  }
  return false;
}

/// Collects std::function-typed (and alias-typed) member names declared at
/// class scope in one file.
void CollectFunctionFields(
    const std::string& code,
    const std::vector<std::pair<std::size_t, std::size_t>>& bodies,
    const std::set<std::string>& aliases, std::set<std::string>* fields) {
  const auto field_after = [&](std::size_t p) -> std::string {
    std::size_t ne = p;
    while (ne < code.size() && IsIdentifierChar(code[ne])) ++ne;
    if (ne == p) return "";
    const std::size_t after = SkipWsForward(code, ne, code.size());
    if (after >= code.size()) return "";
    const char n = code[after];
    const bool declish =
        n == ';' || (n == '=' && (after + 1 >= code.size() ||
                                  code[after + 1] != '='));
    if (!declish) return "";
    return code.substr(p, ne - p);
  };
  for (std::size_t pos = FindTokenInRange(code, "function", 0, code.size());
       pos != std::string::npos;
       pos = FindTokenInRange(code, "function", pos + 1, code.size())) {
    if (InsideAnyBody(bodies, pos)) continue;
    const std::size_t lt = SkipWsForward(code, pos + 8, code.size());
    if (lt >= code.size() || code[lt] != '<') continue;
    const std::size_t gt = MatchAngleForward(code, lt);
    if (gt == std::string::npos) continue;
    const std::size_t p = SkipWsForward(code, gt + 1, code.size());
    const std::string name = field_after(p);
    if (!name.empty()) fields->insert(name);
  }
  for (const std::string& alias : aliases) {
    for (std::size_t pos = FindTokenInRange(code, alias, 0, code.size());
         pos != std::string::npos;
         pos = FindTokenInRange(code, alias, pos + 1, code.size())) {
      if (InsideAnyBody(bodies, pos)) continue;
      const std::size_t p =
          SkipWsForward(code, pos + alias.size(), code.size());
      const std::string name = field_after(p);
      if (!name.empty()) fields->insert(name);
    }
  }
}

/// Scans one file for deferred member stores. Two shapes:
///   * assignment whose LHS trailing identifier ends in '_' (house-style
///     member) or is a dotted access to a known std::function field
///     (`hooks.on_bound = ...`), including subscripted maps
///     (`pending_[id] = ...`), and
///   * container insertions on an '_'-suffixed receiver
///     (`subs_.push_back(fn)`).
void CollectStores(const std::string& code,
                   const std::vector<CallSite>& sites,
                   const std::set<std::string>& fields,
                   std::vector<StoreSpan>* stores) {
  static const std::string kOpBefore = "=!<>+-*/%&|^~";
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] != '=') continue;
    if (i + 1 < code.size() && code[i + 1] == '=') continue;
    if (i > 0 && kOpBefore.find(code[i - 1]) != std::string::npos) continue;
    // LHS: an optional subscript group, then the trailing identifier.
    std::size_t le = i;
    while (le > 0 &&
           std::isspace(static_cast<unsigned char>(code[le - 1])) != 0) {
      --le;
    }
    if (le == 0) continue;
    if (code[le - 1] == ']') {
      int depth = 0;
      std::size_t p = le;
      bool matched = false;
      while (p > 0) {
        --p;
        if (code[p] == ']') ++depth;
        if (code[p] == '[' && --depth == 0) {
          matched = true;
          break;
        }
      }
      if (!matched) continue;
      le = p;
    }
    std::size_t nb = 0;
    const std::string name = IdentifierBefore(code, le, &nb);
    if (name.empty()) continue;
    const bool dotted =
        nb > 0 && (code[nb - 1] == '.' ||
                   (nb > 1 && code[nb - 1] == '>' && code[nb - 2] == '-'));
    const bool member = (name.back() == '_') ||
                        (dotted && fields.count(name) != 0);
    if (!member) continue;
    // RHS: up to the statement end at delimiter depth zero.
    std::size_t j = i + 1;
    int depth = 0;
    while (j < code.size()) {
      const char c = code[j];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') {
        if (depth == 0) break;
        --depth;
      }
      if (c == ';' && depth == 0) break;
      ++j;
    }
    stores->push_back({i + 1, j, i, name});
  }
  for (const CallSite& site : sites) {
    if (!site.member_call || !IsContainerInsert(site.name)) continue;
    const std::size_t rp = PrevNonWsAt(code, site.pos);
    if (rp == std::string::npos) continue;
    std::size_t recv_end = std::string::npos;
    if (code[rp] == '.') {
      recv_end = rp;
    } else if (code[rp] == '>' && rp > 0 && code[rp - 1] == '-') {
      recv_end = rp - 1;
    }
    if (recv_end == std::string::npos) continue;
    std::size_t rb = 0;
    const std::string recv = IdentifierBefore(code, recv_end, &rb);
    if (recv.empty() || recv.back() != '_') continue;
    for (const auto& [b, e] : site.args) {
      stores->push_back({b, e, site.pos, recv});
    }
  }
}

/// `// LINT: deferred-capture-ok(<name>) -- reason` on the finding line or
/// up to three lines above.
bool CaptureAllowed(const FileContext& file, int line,
                    const std::string& name) {
  const std::string needle = "deferred-capture-ok(" + name + ")";
  const int first = std::max(1, line - 3);
  for (int l = first;
       l <= line && l <= static_cast<int>(file.raw_lines.size()); ++l) {
    if (file.raw_lines[static_cast<std::size_t>(l) - 1].find(needle) !=
        std::string::npos) {
      return true;
    }
  }
  return false;
}

/// One lambda that flows into a deferred sink.
struct FlowHit {
  std::size_t fi = 0;
  const LambdaInfo* lam = nullptr;
  std::string sink;     // callee or member name, for messages
  std::size_t reg = 0;  // registration offset (drain discharge anchors here)
};

}  // namespace

DeferredSinkTable BuildDeferredSinkTable(const std::vector<FileContext>& files,
                                         const std::vector<FileAst>& asts,
                                         const CallGraph& graph) {
  DeferredSinkTable table;
  for (const SeedSink& seed : kSeedSinks) {
    table.sinks.insert({seed.name, seed.arg});
  }

  // Pass 1: callback aliases and std::function fields, whole-set (class
  // declarations live in headers; stores live in .cpp files).
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> bodies(
      files.size());
  for (const Symbol& sym : graph.symbols) {
    bodies[sym.file_index].emplace_back(sym.body_begin, sym.body_end);
  }
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    CollectCallbackAliases(asts[fi].code, &table.callback_aliases);
  }
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    CollectFunctionFields(asts[fi].code, bodies[fi], table.callback_aliases,
                          &table.function_fields);
  }

  // Pass 2: member/container stores, attributed to their enclosing symbol.
  std::vector<std::vector<StoreSpan>> stores(files.size());
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    CollectStores(asts[fi].code, graph.file_calls[fi], table.function_fields,
                  &stores[fi]);
  }
  const auto classify_param = [&](const Symbol& sym, std::size_t span_begin,
                                  std::size_t span_end,
                                  const std::string& code) {
    bool changed = false;
    if (IsImmediateCallee(sym.name)) return false;
    for (std::size_t i = 0; i < sym.params.size(); ++i) {
      const ParamInfo& param = sym.params[i];
      if (param.name.empty() || IsImmediateParamType(param.text)) continue;
      const std::pair<std::string, int> key{sym.name, static_cast<int>(i)};
      if (table.sinks.count(key) != 0) continue;
      if (FindTokenInRange(code, param.name, span_begin, span_end) !=
          std::string::npos) {
        table.sinks.insert(key);
        changed = true;
      }
    }
    return changed;
  };
  // A parameter stored into a member (directly, or wrapped in a lambda that
  // is itself stored) marks its (symbol, index) deferred.
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::string& code = asts[fi].code;
    for (const StoreSpan& store : stores[fi]) {
      const int owner = InnermostSymbolAt(graph, fi, store.reg);
      if (owner < 0) continue;
      classify_param(graph.symbols[static_cast<std::size_t>(owner)],
                     store.begin, store.end, code);
    }
  }
  // Fixpoint over the call graph: a parameter passed into a deferred sink
  // argument (possibly wrapped: `[cb = std::move(cb)] { cb(); }`) makes the
  // forwarder a sink too, N hops deep and across TUs. Terminates because the
  // registry only grows.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
      const std::string& code = asts[fi].code;
      for (const CallSite& site : graph.file_calls[fi]) {
        if (site.caller < 0) continue;
        const Symbol& caller =
            graph.symbols[static_cast<std::size_t>(site.caller)];
        for (std::size_t j = 0; j < site.args.size(); ++j) {
          if (!table.IsSink(site.name, static_cast<int>(j))) continue;
          if (classify_param(caller, site.args[j].first, site.args[j].second,
                             code)) {
            changed = true;
          }
        }
      }
    }
  }
  return table;
}

std::vector<Finding> CheckDeferredCaptureLifetime(
    const std::vector<FileContext>& files, const std::vector<FileAst>& asts,
    const CallGraph& graph, const DeferredSinkTable& table) {
  std::vector<Finding> findings;

  // Re-derive the store spans (cheap; keeps the table a pure value).
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> bodies(
      files.size());
  for (const Symbol& sym : graph.symbols) {
    bodies[sym.file_index].emplace_back(sym.body_begin, sym.body_end);
  }
  std::vector<std::vector<StoreSpan>> stores(files.size());
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    CollectStores(asts[fi].code, graph.file_calls[fi], table.function_fields,
                  &stores[fi]);
  }

  // --- lambda-value-flow collection ---------------------------------------
  std::vector<FlowHit> hits;
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> seen;
  const auto add_hit = [&](std::size_t fi, const LambdaInfo* lam,
                           const std::string& sink, std::size_t reg) {
    if (seen.insert({fi, lam->intro, reg}).second) {
      hits.push_back({fi, lam, sink, reg});
    }
  };
  const auto lambda_at_intro = [&](std::size_t fi,
                                   std::size_t intro) -> const LambdaInfo* {
    for (const LambdaInfo& lam : asts[fi].lambdas) {
      if (lam.intro == intro) return &lam;
    }
    return nullptr;
  };
  // A named lambda variable flowing by identifier: `auto cb = [&x]{...};
  // sink(cb)` / `sink(std::move(cb))`. Only accepted when the variable is a
  // unique lambda symbol declared inside the same enclosing symbol as the
  // use — name collisions across TUs must not alias.
  const auto lambda_by_ident =
      [&](std::size_t fi, const std::string& ident,
          int enclosing) -> const LambdaInfo* {
    if (enclosing < 0) return nullptr;
    const Symbol& outer = graph.symbols[static_cast<std::size_t>(enclosing)];
    const std::vector<int>& cands = graph.Resolve(ident);
    const Symbol* found = nullptr;
    for (int c : cands) {
      const Symbol& sym = graph.symbols[static_cast<std::size_t>(c)];
      if (!sym.is_lambda || sym.file_index != fi) continue;
      if (sym.body_begin <= outer.body_begin || sym.body_end >= outer.body_end) {
        continue;
      }
      if (found != nullptr) return nullptr;  // ambiguous
      found = &sym;
    }
    if (found == nullptr) return nullptr;
    for (const LambdaInfo& lam : asts[fi].lambdas) {
      if (lam.body_begin == found->body_begin) return &lam;
    }
    return nullptr;
  };

  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::string& code = asts[fi].code;
    for (const CallSite& site : graph.file_calls[fi]) {
      for (std::size_t j = 0; j < site.args.size(); ++j) {
        if (!table.IsSink(site.name, static_cast<int>(j))) continue;
        const auto [ab, ae] = site.args[j];
        const std::size_t p0 = SkipWsForward(code, ab, ae);
        if (p0 < ae && code[p0] == '[') {
          if (const LambdaInfo* lam = lambda_at_intro(fi, p0)) {
            add_hit(fi, lam, site.name, site.pos);
          }
          continue;
        }
        std::string ident;
        if (ExtractBareIdent(code, ab, ae, &ident)) {
          if (const LambdaInfo* lam =
                  lambda_by_ident(fi, ident, site.caller)) {
            add_hit(fi, lam, site.name, site.pos);
          }
        }
      }
    }
    for (const StoreSpan& store : stores[fi]) {
      // Direct RHS lambda, or a lambda sitting in a brace-init/argument
      // position of the stored value (`targets_[k] = T{inject, [..]{}}`).
      for (const LambdaInfo& lam : asts[fi].lambdas) {
        if (lam.intro < store.begin || lam.intro >= store.end) continue;
        if (lam.intro == SkipWsForward(code, store.begin, store.end)) {
          add_hit(fi, &lam, store.sink, store.reg);
          continue;
        }
        const std::size_t prev = PrevNonWsAt(code, lam.intro);
        if (prev != std::string::npos &&
            (code[prev] == '{' || code[prev] == ',' || code[prev] == '(')) {
          add_hit(fi, &lam, store.sink, store.reg);
        }
      }
      std::string ident;
      if (ExtractBareIdent(code, store.begin, store.end, &ident)) {
        if (const LambdaInfo* lam = lambda_by_ident(
                fi, ident, InnermostSymbolAt(graph, fi, store.reg))) {
          add_hit(fi, lam, store.sink, store.reg);
        }
      }
    }
  }

  // --- per-hit capture checks ----------------------------------------------
  // Methods that register this-capturing deferred callbacks; checked against
  // block-scoped receivers in a second pass.
  std::set<std::string> risky_methods;
  std::set<std::tuple<std::size_t, std::size_t, std::string, std::string>>
      emitted;
  const auto emit = [&](std::size_t fi, std::size_t anchor,
                        const std::string& rule, const std::string& subject,
                        int line, int col, const std::string& message) {
    if (emitted.insert({fi, anchor, rule, subject}).second) {
      findings.push_back({files[fi].path, line, rule, message, col});
    }
  };

  for (const FlowHit& hit : hits) {
    const FileContext& file = files[hit.fi];
    const FileAst& ast = asts[hit.fi];
    const std::string& code = ast.code;
    const LambdaInfo& lam = *hit.lam;
    const int line = ast.index.LineOf(lam.intro);
    const int col = ast.index.ColOf(lam.intro);

    // Drain discharge: the outermost enclosing function drains the engine
    // after the registration, so the callback cannot outlive the frame.
    const FunctionInfo* outer = nullptr;
    for (const FunctionInfo& fn : ast.functions) {
      if (hit.reg > fn.body_begin && hit.reg < fn.body_end &&
          (outer == nullptr ||
           fn.body_end - fn.body_begin > outer->body_end - outer->body_begin)) {
        outer = &fn;
      }
    }
    const bool drained =
        outer != nullptr && DrainedAfter(code, hit.reg, outer->body_end);
    // A capture belonging to an inner lambda's frame dies during the drain,
    // not after it — the discharge does not apply to it.
    const auto dies_with_inner_frame = [&](const std::string& name) {
      for (const LambdaInfo& encl : ast.lambdas) {
        if (lam.intro <= encl.body_begin || lam.intro >= encl.body_end) {
          continue;
        }
        if (std::find(encl.param_names.begin(), encl.param_names.end(),
                      name) != encl.param_names.end()) {
          return true;
        }
        if (FindLocalDeclaration(code, name, encl.body_begin + 1, lam.intro) !=
            std::string::npos) {
          return true;
        }
      }
      return false;
    };

    if (lam.default_ref && !CaptureAllowed(file, line, "default") && !drained) {
      emit(hit.fi, lam.intro, "deferred-ref-capture", "default", line, col,
           "[&] default capture flows into deferred sink '" + hit.sink +
               "'; capture the needed state by value or own it via a shared "
               "owner (deferred-capture-ok(default) to waive)");
    }
    for (const std::string& name : lam.ref_captures) {
      if (std::find(lam.init_ref_captures.begin(), lam.init_ref_captures.end(),
                    name) != lam.init_ref_captures.end()) {
        continue;  // [&alias = expr] may denote a member or heap object
      }
      if (CaptureAllowed(file, line, name)) continue;
      if (drained && !dies_with_inner_frame(name)) continue;
      emit(hit.fi, lam.intro, "deferred-ref-capture", name, line, col,
           "'&" + name + "' captures a stack-scoped variable by reference "
           "into deferred sink '" + hit.sink +
               "'; the callback may outlive the frame");
    }
    // Second severity: by-value captures that smuggle a stack address.
    for (const auto& [name, init] : lam.init_value_captures) {
      if (init.size() < 2 || init[0] != '&' || !IsIdentifierChar(init[1])) {
        continue;
      }
      if (CaptureAllowed(file, line, name)) continue;
      if (drained) continue;
      emit(hit.fi, lam.intro, "deferred-pointer-capture", name, line, col,
           "'" + name + " = " + init + "' stores the address of a stack "
           "object in a callback deferred by '" + hit.sink + "'");
    }
    if (outer != nullptr && !drained) {
      for (const std::string& name : lam.value_captures) {
        if (name == "this") continue;
        if (CaptureAllowed(file, line, name)) continue;
        // Declared `T* name = &...` in the enclosing scope?
        bool pointer_to_local = false;
        for (std::size_t pos = FindTokenInRange(code, name,
                                                outer->body_begin + 1,
                                                lam.intro);
             pos != std::string::npos;
             pos = FindTokenInRange(code, name, pos + 1, lam.intro)) {
          const std::size_t prev = PrevNonWsAt(code, pos);
          if (prev == std::string::npos || code[prev] != '*') continue;
          std::size_t after = pos + name.size();
          after = SkipWsForward(code, after, code.size());
          if (after >= code.size() || code[after] != '=') continue;
          if (after + 1 < code.size() && code[after + 1] == '=') continue;
          const std::size_t v = SkipWsForward(code, after + 1, code.size());
          if (v + 1 < code.size() && code[v] == '&' &&
              IsIdentifierChar(code[v + 1])) {
            pointer_to_local = true;
            break;
          }
        }
        if (pointer_to_local) {
          emit(hit.fi, lam.intro, "deferred-pointer-capture", name, line, col,
               "'" + name + "' is a pointer to a stack object captured by "
               "value into a callback deferred by '" + hit.sink + "'");
        }
      }
    }
    // this-capture: remember the enclosing method; the danger materializes
    // at call sites whose receiver is block-scoped.
    const bool captures_this =
        lam.default_ref || lam.default_copy ||
        std::find(lam.value_captures.begin(), lam.value_captures.end(),
                  "this") != lam.value_captures.end();
    if (captures_this && !CaptureAllowed(file, line, "this")) {
      int encl = -1;
      std::size_t best_span = std::string::npos;
      for (std::size_t s = 0; s < graph.symbols.size(); ++s) {
        const Symbol& sym = graph.symbols[s];
        if (sym.file_index != hit.fi || sym.is_lambda) continue;
        if (lam.intro <= sym.body_begin || lam.intro >= sym.body_end) continue;
        const std::size_t span = sym.body_end - sym.body_begin;
        if (span < best_span) {
          best_span = span;
          encl = static_cast<int>(s);
        }
      }
      if (encl >= 0) {
        risky_methods.insert(graph.symbols[static_cast<std::size_t>(encl)].name);
      }
    }
  }

  // --- deferred-this-capture call-site pass --------------------------------
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::string& code = asts[fi].code;
    for (const CallSite& site : graph.file_calls[fi]) {
      if (!site.member_call || site.caller < 0) continue;
      if (risky_methods.count(site.name) == 0) continue;
      const std::size_t dot = PrevNonWsAt(code, site.pos);
      if (dot == std::string::npos || code[dot] != '.') continue;  // skip '->'
      std::size_t rb = 0;
      const std::string recv = IdentifierBefore(code, dot, &rb);
      if (recv.empty() || recv == "this") continue;
      // Simple identifiers only: obj.a.Method() / f().Method() receivers
      // have unknowable lifetime here.
      const std::size_t before = PrevNonWsAt(code, rb);
      if (before != std::string::npos &&
          (code[before] == '.' || code[before] == ')' || code[before] == ']' ||
           code[before] == ':')) {
        continue;
      }
      const Symbol& caller =
          graph.symbols[static_cast<std::size_t>(site.caller)];
      bool is_param = false;
      for (const ParamInfo& p : caller.params) {
        if (p.name == recv) is_param = true;
      }
      if (is_param) continue;
      const std::size_t decl = FindLocalDeclaration(
          code, recv, caller.body_begin + 1, site.pos);
      if (decl == std::string::npos) continue;  // member or global: long-lived
      // Block-scoped: at least one brace still open between the body's '{'
      // and the declaration.
      int depth = 0;
      for (std::size_t p = caller.body_begin + 1; p < decl; ++p) {
        if (code[p] == '{') ++depth;
        if (code[p] == '}') --depth;
      }
      if (depth <= 0) continue;
      // Same discharge as the ref-capture rule: a drain after the arming call
      // fires the pending events while the receiver is still in scope.
      if (DrainedAfter(code, site.pos, caller.body_end)) continue;
      if (CaptureAllowed(files[fi], site.line, recv)) continue;
      emit(fi, site.pos, "deferred-this-capture", recv, site.line, site.col,
           "'" + recv + "." + site.name + "(...)' registers a deferred "
           "callback capturing 'this', but '" + recv + "' is a block-scoped "
           "local here; the callback outlives the object");
    }
  }

  return findings;
}

}  // namespace myrtus::lint
