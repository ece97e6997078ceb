#include "underflow_rules.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>

#include "cfg.hpp"

namespace myrtus::lint {
namespace {

bool IsUnsignedOperand(const Operand& op, const TypeFacts& facts) {
  if (!op.valid || op.is_literal) return false;
  if (op.is_call) return facts.unsigned_returning.count(op.last_ident) != 0;
  return facts.unsigned_names.count(op.last_ident) != 0;
}

/// `std::min(a, x)` as a subtrahend cannot exceed `a`.
bool IsMinClampOf(const Operand& sub, const Operand& minuend) {
  return sub.is_call && sub.last_ident == "min" &&
         sub.text.find(minuend.text) != std::string::npos;
}

struct Subtraction {
  std::size_t pos = 0;  // offset of '-'
  Operand left;
  Operand right;
};

/// All unsigned-unsigned binary subtractions (and -= compounds) in a file.
std::vector<Subtraction> CollectSubtractions(const std::string& code,
                                             const TypeFacts& facts) {
  std::vector<Subtraction> subs;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] != '-') continue;
    const char prev = i > 0 ? code[i - 1] : '\0';
    const char next = i + 1 < code.size() ? code[i + 1] : '\0';
    if (prev == '-' || next == '-' || next == '>') continue;
    const std::size_t rhs_begin = next == '=' ? i + 2 : i + 1;
    Subtraction sub;
    sub.pos = i;
    sub.left = ParseOperandBackward(code, i);
    if (!IsUnsignedOperand(sub.left, facts)) continue;
    sub.right = ParseOperandForward(code, rhs_begin, code.size());
    if (!IsUnsignedOperand(sub.right, facts)) continue;
    if (IsMinClampOf(sub.right, sub.left)) continue;
    subs.push_back(std::move(sub));
  }
  return subs;
}

// --- guard facts ------------------------------------------------------------

/// Fact key "A>=B" (both sides whitespace-stripped operand text).
std::string FactKey(const std::string& a, const std::string& b) {
  return a + ">=" + b;
}

std::string RootIdent(const std::string& text) {
  std::size_t e = 0;
  while (e < text.size() && IsIdentifierChar(text[e])) ++e;
  return text.substr(0, e);
}

struct Comparison {
  Operand left;
  Operand right;
  bool strict = false;       // `<` / `>` rather than `<=` / `>=`
  bool left_greater = false;  // the condition asserts left >(=) right
};

/// Parses [begin, end) as a single relational comparison; nullopt otherwise.
std::optional<Comparison> ParseComparison(const std::string& code,
                                          std::size_t begin, std::size_t end) {
  int depth = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const char c = code[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (depth != 0 || (c != '<' && c != '>')) continue;
    const char prev = i > begin ? code[i - 1] : '\0';
    const char next = i + 1 < end ? code[i + 1] : '\0';
    if (next == c || prev == c || (c == '>' && prev == '-')) continue;
    Comparison cmp;
    cmp.strict = next != '=';
    cmp.left_greater = c == '>';
    const std::size_t op_end = cmp.strict ? i + 1 : i + 2;
    cmp.left = ParseOperandBackward(code, i);
    cmp.right = ParseOperandForward(code, op_end, end);
    if (!cmp.left.valid || !cmp.right.valid) return std::nullopt;
    // The comparison must span the whole range to be THE condition term.
    if (SkipWsForward(code, begin, end) != cmp.left.begin) return std::nullopt;
    if (SkipWsForward(code, cmp.right.end, end) != end) return std::nullopt;
    return cmp;
  }
  return std::nullopt;
}

/// `a >= b` (or `b <= a`) asserts FactKey(a, b) when true. Strictness only
/// strengthens the fact, so both map to >=.
std::string TrueFact(const Comparison& cmp) {
  return cmp.left_greater ? FactKey(cmp.left.text, cmp.right.text)
                          : FactKey(cmp.right.text, cmp.left.text);
}

/// The false edge of `a < b` asserts a >= b; of `a >= b` asserts b >= a only
/// in the non-strict reading (¬(a>=b) ⇒ b>a ⇒ b>=a) — both directions hold.
std::string FalseFact(const Comparison& cmp) {
  return cmp.left_greater ? FactKey(cmp.right.text, cmp.left.text)
                          : FactKey(cmp.left.text, cmp.right.text);
}

/// Splits [begin, end) on depth-0 `&&`; empty when a depth-0 `||` appears
/// (disjunctions guarantee nothing on either edge).
std::vector<std::pair<std::size_t, std::size_t>> SplitConjuncts(
    const std::string& code, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> parts;
  int depth = 0;
  std::size_t start = begin;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    const char c = code[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (depth != 0) continue;
    if (c == '|' && code[i + 1] == '|') return {};
    if (c == '&' && code[i + 1] == '&') {
      parts.emplace_back(start, i);
      start = i + 2;
      ++i;
    }
  }
  parts.emplace_back(start, end);
  return parts;
}

/// Per-condition facts: [0] = facts the true edge gains, [1] = false edge.
struct EdgeFacts {
  std::set<std::string> facts[2];
};

EdgeFacts ExtractEdgeFacts(const std::string& code, const CfgNode& node,
                           const std::set<std::string>& needed) {
  EdgeFacts out;
  const auto conjuncts = SplitConjuncts(code, node.begin, node.end);
  for (const auto& [b, e] : conjuncts) {
    const auto cmp = ParseComparison(code, b, e);
    if (!cmp) continue;
    const std::string fact = TrueFact(*cmp);
    if (needed.count(fact) != 0) out.facts[0].insert(fact);
    // Negation is only sound when the condition is exactly one comparison.
    if (conjuncts.size() == 1) {
      const std::string neg = FalseFact(*cmp);
      if (needed.count(neg) != 0) out.facts[1].insert(neg);
    }
  }
  return out;
}

/// True when [begin, end) writes to `root` (assignment, compound assignment,
/// or ++/--). Conservative: any write form counts; aliasing through
/// references/pointers is the documented envelope.
bool WritesTo(const std::string& code, std::size_t begin, std::size_t end,
              const std::string& root) {
  if (root.empty()) return false;
  for (std::size_t pos = FindTokenInRange(code, root, begin, end);
       pos != std::string::npos;
       pos = FindTokenInRange(code, root, pos + 1, end)) {
    const std::size_t after = SkipWsForward(code, pos + root.size(), end);
    if (after < end) {
      const char c = code[after];
      const char c2 = after + 1 < end ? code[after + 1] : '\0';
      if (c == '=' && c2 != '=') return true;
      if ((c == '+' || c == '-' || c == '*' || c == '/' || c == '%' ||
           c == '&' || c == '|' || c == '^') &&
          c2 == '=') {
        return true;
      }
      if ((c == '+' && c2 == '+') || (c == '-' && c2 == '-')) return true;
    }
    if (pos >= begin + 2 &&
        ((code[pos - 1] == '+' && code[pos - 2] == '+') ||
         (code[pos - 1] == '-' && code[pos - 2] == '-'))) {
      return true;
    }
  }
  return false;
}

/// Facts generated by `x = std::min(A, B)`-shaped assignments (declarations
/// included) in [begin, end): each simple argument A yields A >= x.
/// This is how `take = std::min(len, space); ...; len -= take;` passes.
void GenMinAssignFacts(const std::string& code, std::size_t begin,
                       std::size_t end, const std::set<std::string>& needed,
                       std::set<std::string>* out) {
  for (std::size_t pos = FindTokenInRange(code, "min", begin, end);
       pos != std::string::npos;
       pos = FindTokenInRange(code, "min", pos + 1, end)) {
    const std::size_t open = SkipWsForward(code, pos + 3, end);
    if (open >= end || code[open] != '(') continue;
    const std::size_t close = MatchForward(code, open);
    if (close == std::string::npos || close >= end) continue;
    // Walk back over the (possibly std::-qualified) callee to the '='.
    std::size_t b = pos;
    while (b > begin && (IsIdentifierChar(code[b - 1]) || code[b - 1] == ':')) {
      --b;
    }
    while (b > begin &&
           std::isspace(static_cast<unsigned char>(code[b - 1])) != 0) {
      --b;
    }
    if (b == begin || code[b - 1] != '=') continue;
    if (b >= begin + 2 &&
        (code[b - 2] == '=' || code[b - 2] == '<' || code[b - 2] == '>' ||
         code[b - 2] == '!' || code[b - 2] == '+' || code[b - 2] == '-')) {
      continue;
    }
    const Operand lhs = ParseOperandBackward(code, b - 1);
    if (!lhs.valid || lhs.is_call || lhs.is_literal) continue;
    // Two top-level arguments; each simple one bounds the lhs.
    int depth = 0;
    std::size_t arg_begin = open + 1;
    std::vector<std::pair<std::size_t, std::size_t>> arg_spans;
    for (std::size_t i = open + 1; i < close; ++i) {
      const char c = code[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      if (c == ',' && depth == 0) {
        arg_spans.emplace_back(arg_begin, i);
        arg_begin = i + 1;
      }
    }
    arg_spans.emplace_back(arg_begin, close);
    for (const auto& [ab, ae] : arg_spans) {
      const Operand arg = ParseOperandForward(code, ab, ae);
      if (!arg.valid || SkipWsForward(code, arg.end, ae) != ae) continue;
      const std::string fact = FactKey(arg.text, lhs.text);
      if (needed.count(fact) != 0) out->insert(fact);
    }
  }
}

/// One function-like body: run the guard dataflow and report unguarded
/// subtractions.
void CheckBody(const FileContext& file, const FileAst& ast,
               std::size_t body_begin, std::size_t body_end,
               const std::vector<Subtraction>& subs,
               std::vector<Finding>& findings) {
  std::set<std::string> needed;
  for (const Subtraction& sub : subs) {
    needed.insert(FactKey(sub.left.text, sub.right.text));
  }
  const Cfg cfg = BuildCfg(ast.code, body_begin, body_end, ast.index);
  const std::size_t n = cfg.nodes.size();
  std::vector<EdgeFacts> edges(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (cfg.nodes[i].kind == CfgNode::Kind::kCondition) {
      edges[i] = ExtractEdgeFacts(ast.code, cfg.nodes[i], needed);
    }
  }
  // Forward must-analysis: in-state = facts guaranteed on every path.
  std::vector<std::optional<std::set<std::string>>> in(n);
  in[static_cast<std::size_t>(cfg.entry)] = std::set<std::string>{};
  std::vector<int> worklist{cfg.entry};
  while (!worklist.empty()) {
    const int node = worklist.back();
    worklist.pop_back();
    const CfgNode& cur = cfg.nodes[static_cast<std::size_t>(node)];
    std::set<std::string> out = *in[static_cast<std::size_t>(node)];
    if (cur.end > cur.begin) {
      for (auto it = out.begin(); it != out.end();) {
        const std::size_t sep = it->find(">=");
        const std::string a = RootIdent(it->substr(0, sep));
        const std::string b = RootIdent(it->substr(sep + 2));
        if (WritesTo(ast.code, cur.begin, cur.end, a) ||
            WritesTo(ast.code, cur.begin, cur.end, b)) {
          it = out.erase(it);
        } else {
          ++it;
        }
      }
      GenMinAssignFacts(ast.code, cur.begin, cur.end, needed, &out);
    }
    for (std::size_t k = 0; k < cur.succ.size(); ++k) {
      const int succ = cur.succ[k];
      std::set<std::string> next = out;
      if (cur.kind == CfgNode::Kind::kCondition && k < 2) {
        const auto& gained = edges[static_cast<std::size_t>(node)].facts[k];
        next.insert(gained.begin(), gained.end());
      }
      auto& state = in[static_cast<std::size_t>(succ)];
      if (!state) {
        state = std::move(next);
        worklist.push_back(succ);
        continue;
      }
      // Meet = intersection; re-queue on shrink.
      std::set<std::string> met;
      std::set_intersection(state->begin(), state->end(), next.begin(),
                            next.end(), std::inserter(met, met.begin()));
      if (met != *state) {
        *state = std::move(met);
        worklist.push_back(succ);
      }
    }
  }
  for (const Subtraction& sub : subs) {
    // Innermost node containing the subtraction.
    std::size_t best = n;
    std::size_t best_span = std::string::npos;
    for (std::size_t i = 0; i < n; ++i) {
      const CfgNode& node = cfg.nodes[i];
      if (node.begin <= sub.pos && sub.pos < node.end &&
          node.end - node.begin < best_span) {
        best = i;
        best_span = node.end - node.begin;
      }
    }
    if (best == n || !in[best]) continue;  // outside / unreachable
    const std::string fact = FactKey(sub.left.text, sub.right.text);
    if (in[best]->count(fact) != 0) continue;
    Finding f;
    f.file = file.path;
    f.line = ast.index.LineOf(sub.pos);
    f.col = ast.index.ColOf(sub.pos);
    f.rule = "unsigned-underflow";
    f.message = "unsigned subtraction '" + sub.left.text + " - " +
                sub.right.text + "' can wrap: no dominating guard ensures " +
                sub.left.text + " >= " + sub.right.text +
                " on every path; guard the branch, clamp the subtrahend with "
                "std::min, or use util::SubSat(" +
                sub.left.text + ", " + sub.right.text + ")";
    findings.push_back(std::move(f));
  }
}

}  // namespace

std::vector<Finding> CheckUnsignedUnderflow(
    const std::vector<FileContext>& files, const std::vector<FileAst>& asts,
    const CallGraph& graph, const TypeFacts& facts) {
  (void)graph;
  std::vector<Finding> findings;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const FileAst& ast = asts[fi];
    const std::vector<Subtraction> subs =
        CollectSubtractions(ast.code, facts);
    if (subs.empty()) continue;
    // Group by innermost enclosing function-like body (smallest span).
    std::vector<std::pair<std::size_t, std::size_t>> bodies;
    for (const FunctionInfo& fn : ast.functions) {
      bodies.emplace_back(fn.body_begin, fn.body_end);
    }
    for (const LambdaInfo& lambda : ast.lambdas) {
      bodies.emplace_back(lambda.body_begin, lambda.body_end);
    }
    std::map<std::size_t, std::vector<Subtraction>> grouped;
    for (const Subtraction& sub : subs) {
      std::size_t best = bodies.size();
      std::size_t best_span = std::string::npos;
      for (std::size_t b = 0; b < bodies.size(); ++b) {
        if (bodies[b].first < sub.pos && sub.pos < bodies[b].second &&
            bodies[b].second - bodies[b].first < best_span) {
          best = b;
          best_span = bodies[b].second - bodies[b].first;
        }
      }
      // Namespace-scope subtractions (constexpr tables) have no CFG; skip.
      if (best < bodies.size()) grouped[best].push_back(sub);
    }
    for (const auto& [body, body_subs] : grouped) {
      CheckBody(files[fi], ast, bodies[body].first, bodies[body].second,
                body_subs, findings);
    }
  }
  return findings;
}

}  // namespace myrtus::lint
