#include "flow_rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <deque>
#include <map>
#include <regex>

#include "cfg.hpp"

namespace myrtus::lint {
namespace {

std::size_t IdentEnd(const std::string& s, std::size_t pos) {
  while (pos < s.size() && IsIdentifierChar(s[pos])) ++pos;
  return pos;
}

/// Last non-whitespace offset strictly before `pos`, or npos.
std::size_t PrevNonWs(const std::string& s, std::size_t pos, std::size_t floor) {
  while (pos > floor) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(s[pos])) == 0) return pos;
  }
  return std::string::npos;
}

/// True when `pos` starts a mutation operator applied to the lvalue that just
/// ended: =, +=, -=, *=, /=, %=, &=, |=, ^=, <<=, >>=, ++, --. Comparison
/// operators (==, <=, >=, !=) are excluded.
bool IsWriteOpAt(const std::string& code, std::size_t pos) {
  const auto at = [&](const char* op) {
    return code.compare(pos, std::char_traits<char>::length(op), op) == 0;
  };
  if (at("==") || at("<=") || at(">=") || at("!=")) return false;
  if (at("<<=") || at(">>=") || at("++") || at("--")) return true;
  for (const char* op : {"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="}) {
    if (at(op)) return true;
  }
  return code[pos] == '=' && (pos + 1 >= code.size() || code[pos + 1] != '=');
}

bool IsMutatingMethod(const std::string& name) {
  static const std::set<std::string> kMutating = {
      "push_back", "emplace_back", "emplace",    "insert",    "erase",
      "clear",     "resize",       "assign",     "append",    "pop_back",
      "push",      "pop",          "push_front", "pop_front", "reserve"};
  return kMutating.count(name) != 0;
}

bool IsAtomicMethod(const std::string& name) {
  static const std::set<std::string> kAtomic = {
      "fetch_add", "fetch_sub",
      "fetch_and", "fetch_or",
      "fetch_xor", "store",
      "exchange",  "compare_exchange_weak",
      "compare_exchange_strong"};
  return kAtomic.count(name) != 0;
}

bool IsKeywordNotType(const std::string& word) {
  static const std::set<std::string> kNot = {
      "return",   "delete",   "new",  "throw",    "case",    "goto",
      "using",    "typedef",  "else", "do",       "operator", "sizeof",
      "co_return", "co_await", "co_yield", "not",  "and",     "or"};
  return kNot.count(word) != 0;
}

/// Heuristic local-declaration scan over [begin, end): an identifier preceded
/// by a type-ish token (identifier that is not a statement keyword, or a
/// closing '>'), possibly through '&'/'*', and followed by one of
/// `= ; { ( , ) : [`. Catches `T name = ...`, `auto& name : range`,
/// `std::vector<int> probe;` — the declaration shapes this codebase uses.
void CollectDeclaredNames(const std::string& code, std::size_t begin,
                          std::size_t end, std::set<std::string>* names) {
  for (std::size_t i = begin; i < end;) {
    if (!IsIdentifierChar(code[i])) {
      ++i;
      continue;
    }
    const std::size_t s = i;
    const std::size_t e = IdentEnd(code, i);
    i = e;
    if (std::isdigit(static_cast<unsigned char>(code[s])) != 0) continue;
    std::size_t p = s;
    while (p > begin &&
           std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
      --p;
    }
    while (p > begin && (code[p - 1] == '&' || code[p - 1] == '*')) --p;
    while (p > begin &&
           std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
      --p;
    }
    if (p == begin) continue;
    const char prev = code[p - 1];
    bool type_before = false;
    if (prev == '>') {
      type_before = true;
    } else if (IsIdentifierChar(prev)) {
      std::size_t b = p;
      while (b > begin && IsIdentifierChar(code[b - 1])) --b;
      const std::string word = code.substr(b, p - b);
      if (!IsKeywordNotType(word) &&
          std::isdigit(static_cast<unsigned char>(word[0])) == 0) {
        type_before = true;
      }
    }
    if (!type_before) continue;
    const std::size_t q = SkipWsForward(code, e, end);
    if (q >= end) continue;
    const char next = code[q];
    if (next == '=' && q + 1 < end && code[q + 1] == '=') continue;
    if (next == ':' && q + 1 < end && code[q + 1] == ':') continue;
    if (next == '=' || next == ';' || next == '{' || next == '(' ||
        next == ',' || next == ')' || next == ':' || next == '[') {
      names->insert(code.substr(s, e - s));
    }
  }
}

// --- parallel-capture-race --------------------------------------------------

/// The parsed postfix chain of an lvalue expression starting at a base
/// identifier: subscript texts encountered, whether the chain itself mutates
/// (mutating method / write operator / ++ / --), and whether it bottoms out
/// in an atomic operation (always allowed).
struct LvalueChain {
  bool is_write = false;
  bool is_atomic = false;
  std::vector<std::string> subscripts;
};

LvalueChain WalkLvalueChain(const std::string& code, std::size_t after_base,
                            std::size_t end, bool prefix_incdec) {
  LvalueChain chain;
  chain.is_write = prefix_incdec;
  std::size_t p = after_base;
  while (true) {
    p = SkipWsForward(code, p, end);
    if (p >= end) break;
    if (code[p] == '[') {
      const std::size_t close = MatchForward(code, p);
      if (close == std::string::npos || close >= end) break;
      chain.subscripts.push_back(code.substr(p + 1, close - p - 1));
      p = close + 1;
      continue;
    }
    const bool dot = code[p] == '.';
    const bool arrow = code.compare(p, 2, "->") == 0;
    if (dot || arrow) {
      std::size_t m = SkipWsForward(code, p + (dot ? 1 : 2), end);
      const std::size_t mend = IdentEnd(code, m);
      if (mend == m) break;
      const std::string member = code.substr(m, mend - m);
      const std::size_t call = SkipWsForward(code, mend, end);
      if (call < end && code[call] == '(') {
        if (IsAtomicMethod(member)) {
          chain.is_atomic = true;
        } else if (IsMutatingMethod(member)) {
          chain.is_write = true;
        }
        return chain;  // a call ends the lvalue chain either way
      }
      p = mend;  // plain field access, keep walking
      continue;
    }
    break;
  }
  if (p < end && IsWriteOpAt(code, p)) chain.is_write = true;
  return chain;
}

/// True when any lambda nested inside [outer_begin, outer_end) whose body
/// contains `pos` captures `name` by value — writes there hit a copy.
bool CapturedByValueInNested(const FileAst& ast, std::size_t outer_begin,
                             std::size_t outer_end, std::size_t pos,
                             const std::string& name) {
  for (const LambdaInfo& nested : ast.lambdas) {
    if (nested.body_begin <= outer_begin || nested.body_end >= outer_end) {
      continue;
    }
    if (pos <= nested.body_begin || pos >= nested.body_end) continue;
    const auto& refs = nested.ref_captures;
    if (std::find(refs.begin(), refs.end(), name) != refs.end()) continue;
    const auto& vals = nested.value_captures;
    if (std::find(vals.begin(), vals.end(), name) != vals.end()) return true;
    if (nested.default_copy) return true;
  }
  return false;
}

}  // namespace

std::vector<Finding> CheckParallelCaptureRace(const FileContext& file,
                                              const FileAst& ast) {
  std::vector<Finding> findings;
  const std::string& code = ast.code;
  for (const LambdaInfo& lambda : ast.lambdas) {
    if (lambda.parallel_callee.empty()) continue;
    const std::size_t bb = lambda.body_begin + 1;
    const std::size_t be = lambda.body_end;

    // The shard parameter (ParallelFor).
    std::string shard_name;
    for (std::size_t i = 0; i < lambda.param_texts.size(); ++i) {
      if (FindTokenInRange(lambda.param_texts[i], "Shard", 0,
                           lambda.param_texts[i].size()) != std::string::npos) {
        shard_name = lambda.param_names[i];
      }
    }

    // Tokens whose presence in a subscript marks the slot as shard-owned:
    // the shard itself (shard.index / shard.begin arithmetic), induction
    // variables initialised from <shard>.begin, and — for ParallelMap,
    // whose body receives a per-item index — the first parameter.
    std::set<std::string> safe_tokens;
    if (!shard_name.empty()) safe_tokens.insert(shard_name);
    if (lambda.parallel_callee != "ParallelFor" &&
        !lambda.param_names.empty() && !lambda.param_names[0].empty()) {
      safe_tokens.insert(lambda.param_names[0]);
    }
    if (!shard_name.empty()) {
      const std::string begin_token = shard_name + ".begin";
      for (std::size_t f = FindTokenInRange(code, "for", bb, be);
           f != std::string::npos;
           f = FindTokenInRange(code, "for", f + 1, be)) {
        const std::size_t open = SkipWsForward(code, f + 3, be);
        if (open >= be || code[open] != '(') continue;
        const std::size_t close = MatchForward(code, open);
        if (close == std::string::npos || close > be) continue;
        const std::size_t eq = code.find('=', open);
        if (eq == std::string::npos || eq > close) continue;
        const std::size_t semi = code.find(';', eq);
        const std::size_t init_end = std::min(
            semi == std::string::npos ? close : semi, close);
        if (FindTokenInRange(code, begin_token, eq, init_end) ==
            std::string::npos) {
          continue;
        }
        std::size_t name_begin = 0;
        const std::string ind = IdentifierBefore(code, eq, &name_begin);
        if (!ind.empty()) safe_tokens.insert(ind);
      }
    }
    const auto subscript_safe = [&](const std::vector<std::string>& subs) {
      for (const std::string& sub : subs) {
        for (const std::string& token : safe_tokens) {
          if (FindTokenInRange(sub, token, 0, sub.size()) !=
              std::string::npos) {
            return true;
          }
        }
      }
      return false;
    };

    // Locals: declarations inside the body, this lambda's parameters and
    // value captures (copies), and every nested lambda's parameters.
    std::set<std::string> locals;
    CollectDeclaredNames(code, bb, be, &locals);
    for (const std::string& p : lambda.param_names) {
      if (!p.empty()) locals.insert(p);
    }
    for (const std::string& v : lambda.value_captures) locals.insert(v);
    for (const LambdaInfo& nested : ast.lambdas) {
      if (nested.body_begin <= lambda.body_begin ||
          nested.body_end >= lambda.body_end) {
        continue;
      }
      for (const std::string& p : nested.param_names) {
        if (!p.empty()) locals.insert(p);
      }
    }

    // Reference aliases: `T& name = expr;`. An alias of a shard-owned slot is
    // free to mutate; an alias of anything else captured by reference is as
    // racy as the capture itself.
    std::map<std::string, bool> alias_safe;
    for (std::size_t i = bb; i < be;) {
      if (!IsIdentifierChar(code[i])) {
        ++i;
        continue;
      }
      const std::size_t s = i;
      const std::size_t e = IdentEnd(code, i);
      i = e;
      std::size_t p = PrevNonWs(code, s, bb);
      if (p == std::string::npos || code[p] != '&') continue;
      const std::size_t before_amp = PrevNonWs(code, p, bb);
      if (before_amp == std::string::npos ||
          (!IsIdentifierChar(code[before_amp]) && code[before_amp] != '>')) {
        continue;  // address-of / logical-and, not a reference declarator
      }
      if (IsIdentifierChar(code[before_amp])) {
        std::size_t b = before_amp + 1;
        while (b > bb && IsIdentifierChar(code[b - 1])) --b;
        if (IsKeywordNotType(code.substr(b, before_amp + 1 - b))) continue;
      }
      const std::size_t eq = SkipWsForward(code, e, be);
      if (eq >= be || code[eq] != '=' ||
          (eq + 1 < be && code[eq + 1] == '=')) {
        continue;
      }
      const std::size_t semi = code.find(';', eq);
      if (semi == std::string::npos || semi > be) continue;
      const std::string rhs = code.substr(eq + 1, semi - eq - 1);
      bool safe = false;
      for (const std::string& token : safe_tokens) {
        if (FindTokenInRange(rhs, token, 0, rhs.size()) != std::string::npos) {
          safe = true;
        }
      }
      alias_safe[code.substr(s, e - s)] = safe;
    }

    const auto is_ref_capture = [&](const std::string& name) {
      const auto& refs = lambda.ref_captures;
      if (std::find(refs.begin(), refs.end(), name) != refs.end()) return true;
      if (!lambda.default_ref) return false;
      const auto& vals = lambda.value_captures;
      return std::find(vals.begin(), vals.end(), name) == vals.end();
    };

    // Scan every identifier in the body for write sites.
    for (std::size_t i = bb; i < be;) {
      if (!IsIdentifierChar(code[i])) {
        ++i;
        continue;
      }
      const std::size_t s = i;
      const std::size_t e = IdentEnd(code, i);
      i = e;
      if (std::isdigit(static_cast<unsigned char>(code[s])) != 0) continue;
      const std::size_t prev = PrevNonWs(code, s, bb);
      if (prev != std::string::npos &&
          (code[prev] == '.' || code[prev] == ':' ||
           (code[prev] == '>' && prev > bb && code[prev - 1] == '-'))) {
        continue;  // member or qualified name — not a chain base
      }
      const bool prefix_incdec =
          s >= bb + 2 && (code.compare(s - 2, 2, "++") == 0 ||
                          code.compare(s - 2, 2, "--") == 0);
      const std::string name = code.substr(s, e - s);
      const LvalueChain chain = WalkLvalueChain(code, e, be, prefix_incdec);
      if (!chain.is_write || chain.is_atomic) continue;
      // Alias resolution first: a reference alias is also a declared local,
      // but writes through it go wherever it was bound.
      const auto alias = alias_safe.find(name);
      if (alias != alias_safe.end()) {
        if (alias->second) continue;  // alias of a shard-owned slot
      } else if (locals.count(name) != 0) {
        continue;
      } else if (!is_ref_capture(name)) {
        continue;
      }
      if (subscript_safe(chain.subscripts)) continue;
      if (CapturedByValueInNested(ast, lambda.body_begin, lambda.body_end, s,
                                  name)) {
        continue;
      }
      findings.push_back(
          {file.path, ast.index.LineOf(s), "parallel-capture-race",
           "write to by-reference capture '" + name + "' inside " +
               lambda.parallel_callee +
               " body is not shard-indexed; commit results to a slot keyed "
               "by the shard (out[shard.index], out[i] for i in "
               "shard.begin..end) or use an atomic",
           ast.index.ColOf(s)});
    }
  }
  return findings;
}

// --- statusor-use-before-ok -------------------------------------------------

namespace {

enum class SoState { kUnchecked, kChecked, kUnknown };

SoState Meet(SoState a, SoState b) {
  return static_cast<SoState>(std::min(static_cast<int>(a),
                                       static_cast<int>(b)));
}

struct SoEvent {
  // kCondCheck is an ok() check inside a condition whose short-circuit
  // structure guards the rest of the expression (`v.ok() && use(*v)`,
  // `!v.ok() || use(*v)`): it discharges later uses within the same node but
  // does NOT flow out along the edges — those get branch facts instead.
  enum class Kind { kDecl, kCheck, kCondCheck, kUse, kAssign };
  std::size_t pos = 0;
  Kind kind = Kind::kDecl;
  std::string var;
};

/// One analysis unit: a function or lambda body with the interiors of its
/// directly nested lambdas blanked out (they are separate units).
struct SoUnit {
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::string code;  // full-file geometry, nested lambda bodies blanked
};

std::vector<SoUnit> BuildUnits(const FileAst& ast) {
  std::vector<SoUnit> units;
  const auto add = [&](std::size_t bb, std::size_t be) {
    SoUnit unit;
    unit.body_begin = bb;
    unit.body_end = be;
    unit.code = ast.code;
    for (const LambdaInfo& nested : ast.lambdas) {
      if (nested.body_begin <= bb || nested.body_end >= be) continue;
      for (std::size_t p = nested.body_begin + 1; p < nested.body_end; ++p) {
        if (unit.code[p] != '\n') unit.code[p] = ' ';
      }
    }
    units.push_back(std::move(unit));
  };
  for (const FunctionInfo& fn : ast.functions) add(fn.body_begin, fn.body_end);
  for (const LambdaInfo& lambda : ast.lambdas) {
    add(lambda.body_begin, lambda.body_end);
  }
  return units;
}

/// Finds StatusOr variable declarations in [begin, end):
/// `StatusOr<T> name ...` and `auto name = <statusor-fn>(...)`.
void CollectSoDecls(const std::string& code, std::size_t begin, std::size_t end,
                    const std::set<std::string>& statusor_fns,
                    std::vector<SoEvent>* events) {
  for (std::size_t pos = FindTokenInRange(code, "StatusOr", begin, end);
       pos != std::string::npos;
       pos = FindTokenInRange(code, "StatusOr", pos + 1, end)) {
    std::size_t p = pos + 8;
    p = SkipWsForward(code, p, end);
    if (p < end && code[p] == '<') {
      int depth = 0;
      while (p < end) {
        if (code[p] == '<') ++depth;
        if (code[p] == '>' && --depth == 0) {
          ++p;
          break;
        }
        ++p;
      }
    }
    p = SkipWsForward(code, p, end);
    const std::size_t name_end = IdentEnd(code, p);
    if (name_end == p) continue;
    const std::string name = code.substr(p, name_end - p);
    const std::size_t next = SkipWsForward(code, name_end, end);
    if (next < end && (code[next] == '=' || code[next] == ';' ||
                       code[next] == '(' || code[next] == '{')) {
      events->push_back({p, SoEvent::Kind::kDecl, name});
    }
  }
  for (std::size_t pos = FindTokenInRange(code, "auto", begin, end);
       pos != std::string::npos;
       pos = FindTokenInRange(code, "auto", pos + 1, end)) {
    std::size_t p = SkipWsForward(code, pos + 4, end);
    while (p < end && (code[p] == '&' || code[p] == '*')) ++p;
    p = SkipWsForward(code, p, end);
    const std::size_t name_end = IdentEnd(code, p);
    if (name_end == p) continue;
    const std::string name = code.substr(p, name_end - p);
    std::size_t eq = SkipWsForward(code, name_end, end);
    if (eq >= end || code[eq] != '=' || (eq + 1 < end && code[eq + 1] == '=')) {
      continue;
    }
    const std::size_t stop = std::min(end, code.find(';', eq));
    const std::size_t call = code.find('(', eq);
    if (call == std::string::npos || call >= stop) continue;
    const std::string callee = IdentifierBefore(code, call, nullptr);
    if (statusor_fns.count(callee) != 0) {
      events->push_back({p, SoEvent::Kind::kDecl, name});
    }
  }
}

/// Scans [begin, end) for events on variable `var`. `lenient_check` controls
/// whether a textual `.ok()` counts as a check (statement nodes — covers
/// ASSERT_TRUE(v.ok()) and opaque switch bodies); condition nodes pass false
/// and get branch-edge facts instead.
void CollectVarEvents(const std::string& code, std::size_t begin,
                      std::size_t end, const std::string& var,
                      bool lenient_check, std::vector<SoEvent>* events) {
  for (std::size_t pos = FindTokenInRange(code, var, begin, end);
       pos != std::string::npos;
       pos = FindTokenInRange(code, var, pos + 1, end)) {
    const std::size_t after = pos + var.size();
    const std::size_t prev = PrevNonWs(code, pos, begin);
    if (prev != std::string::npos &&
        (code[prev] == '.' || code[prev] == ':')) {
      continue;  // member or qualified name that merely ends in `var`
    }
    // `*var` — dereference unless the '*' reads as multiplication.
    if (prev != std::string::npos && code[prev] == '*') {
      const std::size_t before = PrevNonWs(code, prev, begin);
      bool mul = false;
      if (before != std::string::npos) {
        const char c = code[before];
        if (c == ')' || c == ']') mul = true;
        if (IsIdentifierChar(c)) {
          std::size_t b = before + 1;
          while (b > begin && IsIdentifierChar(code[b - 1])) --b;
          mul = !IsKeywordNotType(code.substr(b, before + 1 - b));
        }
      }
      if (!mul) {
        events->push_back({pos, SoEvent::Kind::kUse, var});
        continue;
      }
    }
    std::size_t p = SkipWsForward(code, after, end);
    if (p >= end) continue;
    if (code.compare(p, 2, "->") == 0) {
      events->push_back({pos, SoEvent::Kind::kUse, var});
      continue;
    }
    if (code[p] == '.') {
      const std::size_t m = SkipWsForward(code, p + 1, end);
      const std::size_t mend = IdentEnd(code, m);
      const std::string member = code.substr(m, mend - m);
      if (member == "value") {
        events->push_back({pos, SoEvent::Kind::kUse, var});
      } else if (member == "ok" && lenient_check) {
        events->push_back({pos, SoEvent::Kind::kCheck, var});
      }
      continue;
    }
    if (IsWriteOpAt(code, p) && code[p] == '=') {
      events->push_back({pos, SoEvent::Kind::kAssign, var});
      continue;
    }
    // `)` closing a std::move(var) — the wrapper forwards the deref; and
    // MustOk(var) / MustOk(std::move(var)) is the sanctioned assertion.
    if (code[p] == ')') {
      std::size_t open = prev;
      if (open != std::string::npos && code[open] == '(') {
        std::size_t callee_begin = 0;
        const std::string callee = IdentifierBefore(code, open, &callee_begin);
        if (callee == "move") {
          const std::size_t q = SkipWsForward(code, p + 1, end);
          if (q < end && (code[q] == '.' || code.compare(q, 2, "->") == 0)) {
            const std::size_t m = SkipWsForward(
                code, q + (code[q] == '.' ? 1 : 2), end);
            const std::size_t mend = IdentEnd(code, m);
            if (code[q] != '.' || code.substr(m, mend - m) == "value") {
              events->push_back({pos, SoEvent::Kind::kUse, var});
            }
          }
          // MustOk(std::move(var))
          const std::size_t before_move = PrevNonWs(code, callee_begin, begin);
          if (before_move != std::string::npos && code[before_move] == '(') {
            const std::string outer =
                IdentifierBefore(code, before_move, nullptr);
            if (outer == "MustOk") {
              events->push_back({pos, SoEvent::Kind::kCheck, var});
            }
          }
        } else if (callee == "MustOk") {
          events->push_back({pos, SoEvent::Kind::kCheck, var});
        }
      }
    }
  }
}

/// Branch facts and intra-condition short-circuit checks for one condition
/// span. Edge facts: `v.ok()` in a &&-only condition makes the true edge
/// checked; `!v.ok()` in a ||-only condition makes the false edge checked
/// (mixed &&/|| conditions yield no edge facts — sound, conservative). The
/// same structures guarantee everything textually after the check only
/// evaluates when v is ok, so each qualifying check also becomes a
/// kCondCheck event discharging later uses within the condition itself.
void BranchFacts(const std::string& code, std::size_t begin, std::size_t end,
                 const std::vector<std::string>& vars,
                 std::vector<std::string>* true_checked,
                 std::vector<std::string>* false_checked,
                 std::vector<SoEvent>* cond_checks) {
  bool has_and = false;
  bool has_or = false;
  int depth = 0;
  for (std::size_t p = begin; p < end; ++p) {
    const char c = code[p];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (depth != 0 || p + 1 >= end) continue;
    if (c == '&' && code[p + 1] == '&') has_and = true;
    if (c == '|' && code[p + 1] == '|') has_or = true;
  }
  for (const std::string& var : vars) {
    const std::string probe = var + ".ok";
    for (std::size_t pos = FindTokenInRange(code, probe, begin, end);
         pos != std::string::npos;
         pos = FindTokenInRange(code, probe, pos + 1, end)) {
      const std::size_t prev = PrevNonWs(code, pos, begin);
      const bool negated = prev != std::string::npos && code[prev] == '!';
      if (negated && !has_and) {
        false_checked->push_back(var);
        cond_checks->push_back({pos, SoEvent::Kind::kCondCheck, var});
      }
      if (!negated && !has_or) {
        true_checked->push_back(var);
        cond_checks->push_back({pos, SoEvent::Kind::kCondCheck, var});
      }
    }
  }
}

}  // namespace

std::set<std::string> CollectStatusOrReturningFunctions(
    const std::vector<FileContext>& files) {
  static const std::regex decl_re(
      "(?:^|[^\\w])StatusOr\\s*<[^;{}()]*>\\s+"
      "(?:[A-Za-z_]\\w*::)*([A-Za-z_]\\w*)\\s*\\(");
  std::set<std::string> names;
  for (const FileContext& file : files) {
    for (std::sregex_iterator it(file.code.begin(), file.code.end(), decl_re),
         end;
         it != end; ++it) {
      names.insert((*it)[1].str());
    }
  }
  return names;
}

std::vector<Finding> CheckStatusOrFlow(
    const FileContext& file, const FileAst& ast,
    const std::set<std::string>& statusor_fns) {
  std::vector<Finding> findings;
  for (const SoUnit& unit : BuildUnits(ast)) {
    const std::string& code = unit.code;
    const Cfg cfg =
        BuildCfg(code, unit.body_begin, unit.body_end, ast.index);

    // Pass 1: the StatusOr variables of this unit.
    std::vector<SoEvent> decls;
    for (const CfgNode& node : cfg.nodes) {
      if (node.end > node.begin) {
        CollectSoDecls(code, node.begin, node.end, statusor_fns, &decls);
      }
    }
    if (decls.empty()) continue;
    std::vector<std::string> vars;
    for (const SoEvent& d : decls) {
      if (std::find(vars.begin(), vars.end(), d.var) == vars.end()) {
        vars.push_back(d.var);
      }
    }

    // Pass 2: per-node event lists (position-ordered) and branch facts.
    const std::size_t n = cfg.nodes.size();
    std::vector<std::vector<SoEvent>> events(n);
    std::vector<std::vector<std::string>> true_checked(n);
    std::vector<std::vector<std::string>> false_checked(n);
    for (std::size_t i = 0; i < n; ++i) {
      const CfgNode& node = cfg.nodes[i];
      if (node.end <= node.begin) continue;
      const bool is_cond = node.kind == CfgNode::Kind::kCondition;
      CollectSoDecls(code, node.begin, node.end, statusor_fns, &events[i]);
      for (const std::string& var : vars) {
        CollectVarEvents(code, node.begin, node.end, var,
                         /*lenient_check=*/!is_cond, &events[i]);
      }
      std::sort(events[i].begin(), events[i].end(),
                [](const SoEvent& a, const SoEvent& b) {
                  return a.pos < b.pos;
                });
      // Drop duplicate (pos, var) pairs the decl scans can both emit.
      events[i].erase(
          std::unique(events[i].begin(), events[i].end(),
                      [](const SoEvent& a, const SoEvent& b) {
                        return a.pos == b.pos && a.var == b.var &&
                               a.kind == b.kind;
                      }),
          events[i].end());
      if (is_cond) {
        std::vector<SoEvent> cond_checks;
        BranchFacts(code, node.begin, node.end, vars, &true_checked[i],
                    &false_checked[i], &cond_checks);
        events[i].insert(events[i].end(), cond_checks.begin(),
                         cond_checks.end());
        std::sort(events[i].begin(), events[i].end(),
                  [](const SoEvent& a, const SoEvent& b) {
                    return a.pos < b.pos;
                  });
      }
    }

    using State = std::map<std::string, SoState>;
    const auto transfer = [&](std::size_t i, State s) {
      for (const SoEvent& ev : events[i]) {
        switch (ev.kind) {
          case SoEvent::Kind::kDecl:
          case SoEvent::Kind::kAssign:
            s[ev.var] = SoState::kUnchecked;
            break;
          case SoEvent::Kind::kCheck:
            s[ev.var] = SoState::kChecked;
            break;
          case SoEvent::Kind::kCondCheck:
            break;  // discharges in-node uses only; edges get branch facts
          case SoEvent::Kind::kUse:
            break;  // state-neutral; reported in the final pass
        }
      }
      return s;
    };
    const auto merge_into = [&](State& dst, const State& src) {
      bool changed = false;
      for (const std::string& var : vars) {
        const auto sit = src.find(var);
        const SoState sv =
            sit == src.end() ? SoState::kUnknown : sit->second;
        const auto dit = dst.find(var);
        const SoState dv =
            dit == dst.end() ? SoState::kUnknown : dit->second;
        const SoState m = Meet(sv, dv);
        if (m != dv) {
          dst[var] = m;
          changed = true;
        }
      }
      return changed;
    };

    // Fixpoint: forward worklist from entry.
    std::vector<State> in(n);
    std::vector<bool> reached(n, false);
    reached[static_cast<std::size_t>(cfg.entry)] = true;
    std::deque<std::size_t> work{static_cast<std::size_t>(cfg.entry)};
    while (!work.empty()) {
      const std::size_t i = work.front();
      work.pop_front();
      const State out = transfer(i, in[i]);
      const CfgNode& node = cfg.nodes[i];
      for (std::size_t k = 0; k < node.succ.size(); ++k) {
        const auto succ = static_cast<std::size_t>(node.succ[k]);
        State edge = out;
        if (node.kind == CfgNode::Kind::kCondition) {
          const auto& facts = k == 0 ? true_checked[i] : false_checked[i];
          for (const std::string& var : facts) edge[var] = SoState::kChecked;
        }
        const bool first = !reached[succ];
        reached[succ] = true;
        if (merge_into(in[succ], edge) || first) work.push_back(succ);
      }
    }

    // Reporting pass over the stable states. A reported variable is treated
    // as checked for the rest of the node, so one broken path yields one
    // finding per variable, not one per dereference.
    for (std::size_t i = 0; i < n; ++i) {
      if (!reached[i]) continue;
      State s = in[i];
      for (const SoEvent& ev : events[i]) {
        switch (ev.kind) {
          case SoEvent::Kind::kDecl:
          case SoEvent::Kind::kAssign:
            s[ev.var] = SoState::kUnchecked;
            break;
          case SoEvent::Kind::kCheck:
          case SoEvent::Kind::kCondCheck:
            s[ev.var] = SoState::kChecked;
            break;
          case SoEvent::Kind::kUse: {
            const auto it = s.find(ev.var);
            if (it != s.end() && it->second == SoState::kUnchecked) {
              findings.push_back(
                  {file.path, ast.index.LineOf(ev.pos),
                   "statusor-use-before-ok",
                   "'" + ev.var +
                       "' may hold an error here: value()/operator*/"
                       "operator-> is not dominated by an ok()/MustOk check "
                       "on every path",
                   ast.index.ColOf(ev.pos)});
              s[ev.var] = SoState::kChecked;
            }
            break;
          }
        }
      }
    }
  }
  return findings;
}

// --- rng-substream-discipline -----------------------------------------------

namespace {

struct RngSite {
  std::size_t file_index = 0;
  std::size_t pos = 0;  // offset of the Rng token
  int line = 0;
  int col = 0;
  int argc = 0;
  bool in_parallel = false;
  std::string seed;    // normalized integer literal, "" when not literal
  std::string stream;  // string literal contents, "" when not literal
};

std::string NormalizeIntLiteral(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\'') continue;
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) return "";
    out.push_back(c);
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) == 0) {
    return "";
  }
  // Strip integer suffixes (u, l, ll, ull, ...).
  while (!out.empty()) {
    const char c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(out.back())));
    if (c == 'u' || c == 'l') {
      out.pop_back();
    } else {
      break;
    }
  }
  return out;
}

void CollectRngSites(const FileContext& file, const FileAst& ast,
                     std::size_t file_index, std::vector<RngSite>* sites) {
  const std::string& code = ast.code;
  for (std::size_t pos = FindTokenInRange(code, "Rng", 0, code.size());
       pos != std::string::npos;
       pos = FindTokenInRange(code, "Rng", pos + 1, code.size())) {
    const std::size_t prev = PrevNonWs(code, pos, 0);
    if (prev != std::string::npos && code[prev] == '.') continue;
    // `class Rng {` / `struct Rng` — the definition, not a construction.
    if (prev != std::string::npos && IsIdentifierChar(code[prev])) {
      std::size_t b = prev + 1;
      while (b > 0 && IsIdentifierChar(code[b - 1])) --b;
      const std::string word = code.substr(b, prev + 1 - b);
      if (word == "class" || word == "struct" || word == "enum") continue;
    }
    std::size_t p = SkipWsForward(code, pos + 3, code.size());
    if (p < code.size() && IsIdentifierChar(code[p])) {
      p = IdentEnd(code, p);  // `Rng name(...)` declaration form
      p = SkipWsForward(code, p, code.size());
    }
    if (p >= code.size() || (code[p] != '(' && code[p] != '{')) continue;
    const std::size_t open = p;
    const std::size_t close = MatchForward(code, open);
    if (close == std::string::npos) continue;

    // Top-level argument spans.
    std::vector<std::pair<std::size_t, std::size_t>> arg_spans;
    std::size_t arg_begin = open + 1;
    int depth = 0;
    for (std::size_t q = open + 1; q < close; ++q) {
      const char c = code[q];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      if (c == ',' && depth == 0) {
        arg_spans.emplace_back(arg_begin, q);
        arg_begin = q + 1;
      }
    }
    if (SkipWsForward(code, arg_begin, close) < close || !arg_spans.empty()) {
      arg_spans.emplace_back(arg_begin, close);
    }
    if (arg_spans.empty()) continue;  // `Rng r;` or `Rng()` declaration

    RngSite site;
    site.file_index = file_index;
    site.pos = pos;
    site.line = ast.index.LineOf(pos);
    site.col = ast.index.ColOf(pos);
    site.argc = static_cast<int>(arg_spans.size());
    for (const LambdaInfo& lambda : ast.lambdas) {
      if (!lambda.parallel_callee.empty() && pos > lambda.body_begin &&
          pos < lambda.body_end) {
        site.in_parallel = true;
      }
    }
    if (site.argc >= 2) {
      const std::size_t a0 = SkipWsForward(code, arg_spans[0].first,
                                           arg_spans[0].second);
      std::size_t a0_end = arg_spans[0].second;
      while (a0_end > a0 && std::isspace(static_cast<unsigned char>(
                                code[a0_end - 1])) != 0) {
        --a0_end;
      }
      site.seed = NormalizeIntLiteral(code.substr(a0, a0_end - a0));
      const std::size_t q1 = SkipWsForward(code, arg_spans[1].first,
                                           arg_spans[1].second);
      if (q1 < arg_spans[1].second && code[q1] == '"') {
        const std::size_t q2 = code.find('"', q1 + 1);
        if (q2 != std::string::npos && q2 < arg_spans[1].second) {
          // Literal contents are blanked in the code view; the geometry
          // guarantee lets us read them back from the raw text.
          site.stream = file.raw.substr(q1 + 1, q2 - q1 - 1);
        }
      }
    }
    sites->push_back(std::move(site));
  }
}

}  // namespace

std::vector<Finding> CheckRngDiscipline(const std::vector<FileContext>& files,
                                        const std::vector<FileAst>& asts) {
  std::vector<Finding> findings;
  std::vector<RngSite> all_sites;
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::vector<RngSite> sites;
    CollectRngSites(files[i], asts[i], i, &sites);
    for (const RngSite& site : sites) {
      if (site.in_parallel && site.argc < 3) {
        findings.push_back(
            {files[i].path, site.line, "rng-substream-discipline",
             "util::Rng constructed inside a parallel body without a shard "
             "substream; use the 3-arg indexed constructor "
             "util::Rng(seed, stream, shard.index)",
             site.col});
      }
      // The duplicate-identity half only covers production modules: tests
      // and fixtures reuse literal seeds on purpose.
      if (!files[i].module.empty() && !site.seed.empty() &&
          !site.stream.empty()) {
        all_sites.push_back(site);
      }
    }
  }
  std::map<std::string, std::vector<const RngSite*>> by_identity;
  for (const RngSite& site : all_sites) {
    by_identity[site.seed + '\x01' + site.stream].push_back(&site);
  }
  for (auto& [identity, group] : by_identity) {
    if (group.size() < 2) continue;
    std::sort(group.begin(), group.end(),
              [&](const RngSite* a, const RngSite* b) {
                return std::tie(files[a->file_index].path, a->line) <
                       std::tie(files[b->file_index].path, b->line);
              });
    const RngSite* first = group.front();
    for (std::size_t k = 1; k < group.size(); ++k) {
      const RngSite* site = group[k];
      findings.push_back(
          {files[site->file_index].path, site->line,
           "rng-substream-discipline",
           "duplicate RNG stream identity (" + site->seed + ", \"" +
               site->stream + "\"): also constructed at " +
               files[first->file_index].path + ":" +
               std::to_string(first->line) +
               "; correlated draws break stream independence — give each "
               "site its own stream name",
           site->col});
    }
  }
  return findings;
}

}  // namespace myrtus::lint
