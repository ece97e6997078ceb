#include "callgraph.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace myrtus::lint {
namespace {

std::size_t IdentEnd(const std::string& s, std::size_t pos) {
  while (pos < s.size() && IsIdentifierChar(s[pos])) ++pos;
  return pos;
}

std::size_t PrevNonWs(const std::string& s, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(s[pos])) == 0) return pos;
  }
  return std::string::npos;
}

std::string Trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

bool IsControlKeyword(const std::string& word) {
  static const std::set<std::string> kControl = {
      "if",     "while",  "for",      "switch",   "catch",  "return",
      "sizeof", "alignof", "decltype", "new",      "delete", "constexpr",
      "case",   "throw",  "co_return", "co_await", "co_yield"};
  return kControl.count(word) != 0;
}

/// Splits [begin, end) on commas at (), [], {}, <> depth zero (same angle
/// heuristic as the AST's capture/parameter splitter).
std::vector<std::pair<std::size_t, std::size_t>> SplitArgSpans(
    const std::string& code, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  int depth = 0;
  int angle = 0;
  std::size_t start = begin;
  for (std::size_t i = begin; i < end; ++i) {
    const char c = code[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c == ',' && depth == 0 && angle == 0) {
      spans.emplace_back(start, i);
      start = i + 1;
    }
  }
  if (SkipWsForward(code, start, end) < end || !spans.empty()) {
    spans.emplace_back(start, end);
  }
  return spans;
}

/// Trailing identifier of one parameter declaration (after cutting a default
/// argument); "" when the parameter is unnamed or the text is a bare type.
std::string ParamNameOf(const std::string& decl) {
  std::string d = decl;
  int depth = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const char c = d[i];
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if (c == '=' && depth == 0) {
      d.resize(i);
      break;
    }
  }
  d = Trimmed(d);
  std::size_t e = d.size();
  while (e > 0 && IsIdentifierChar(d[e - 1])) --e;
  const std::string name = d.substr(e);
  static const std::set<std::string> kTypeWords = {
      "int",   "auto",     "char",   "bool",  "double", "float",
      "long",  "short",    "unsigned", "signed", "size_t", "void",
      "const", "uint64_t", "uint32_t", "int64_t", "int32_t"};
  if (name.empty() || kTypeWords.count(name) != 0) return "";
  if (e == 0) return "";
  if (d[e - 1] == ':' || d[e - 1] == '.') return "";
  return name;
}

/// Collects the declaration text preceding the (possibly qualified) symbol
/// name: identifier/template/qualifier characters walked backwards until a
/// statement boundary. "std::uint64_t" for `std::uint64_t Free()`, "" at
/// file starts or after '}' (constructors, lambdas).
std::string ReturnTypeBefore(const std::string& code, std::size_t decl_begin) {
  std::size_t e = decl_begin;
  while (e > 0 && std::isspace(static_cast<unsigned char>(code[e - 1])) != 0) {
    --e;
  }
  std::size_t b = e;
  int angle = 0;
  while (b > 0) {
    const char c = code[b - 1];
    if (c == '>') ++angle;
    if (c == '<' && angle > 0) --angle;
    if (IsIdentifierChar(c) || c == ':' || c == '<' || c == '>' || c == '&' ||
        c == '*' || c == ',' ||
        std::isspace(static_cast<unsigned char>(c)) != 0) {
      // A ',' or space outside a template list ends the type walk: we only
      // want the innermost declaration specifier chain.
      if ((c == ',' || std::isspace(static_cast<unsigned char>(c)) != 0) &&
          angle == 0) {
        // Peek past the whitespace: another type-ish token keeps the walk
        // going ("const std::uint64_t"); anything else stops it.
        std::size_t p = b - 1;
        while (p > 0 &&
               (std::isspace(static_cast<unsigned char>(code[p - 1])) != 0)) {
          --p;
        }
        if (c == ',' || p == 0 ||
            (!IsIdentifierChar(code[p - 1]) && code[p - 1] != '>')) {
          break;
        }
      }
      --b;
      continue;
    }
    break;
  }
  return Trimmed(code.substr(b, e - b));
}

/// Walks a qualifier chain `A::B::` backwards from `name_begin`, returning
/// the offset where the qualified name starts (== name_begin when the name
/// is unqualified).
std::size_t QualifiedBegin(const std::string& code, std::size_t name_begin) {
  std::size_t b = name_begin;
  while (b >= 2 && code[b - 1] == ':' && code[b - 2] == ':') {
    std::size_t q = b - 2;
    // Skip a template argument list on the qualifier: Foo<T>::Bar.
    if (q > 0 && code[q - 1] == '>') {
      int angle = 0;
      std::size_t p = q;
      while (p > 0) {
        --p;
        if (code[p] == '>') ++angle;
        if (code[p] == '<' && --angle == 0) break;
      }
      if (angle != 0) break;
      q = p;
    }
    std::size_t qb = q;
    while (qb > 0 && IsIdentifierChar(code[qb - 1])) --qb;
    if (qb == q) break;  // `::name` with no qualifier identifier
    b = qb;
  }
  return b;
}

void AddFunctionSymbols(const std::vector<FileContext>& files,
                        const std::vector<FileAst>& asts, CallGraph* graph) {
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::string& code = asts[fi].code;
    for (const FunctionInfo& fn : asts[fi].functions) {
      Symbol sym;
      sym.name = fn.name;
      sym.file_index = fi;
      sym.name_begin = fn.name_begin;
      sym.body_begin = fn.body_begin;
      sym.body_end = fn.body_end;
      sym.line = asts[fi].index.LineOf(fn.name_begin);
      const std::size_t qb = QualifiedBegin(code, fn.name_begin);
      sym.qualified =
          qb < fn.name_begin
              ? code.substr(qb, IdentEnd(code, fn.name_begin) - qb)
              : fn.name;
      sym.return_type = ReturnTypeBefore(code, qb);
      const std::size_t open =
          SkipWsForward(code, IdentEnd(code, fn.name_begin), code.size());
      if (open < code.size() && code[open] == '(') {
        const std::size_t close = MatchForward(code, open);
        if (close != std::string::npos) {
          for (const auto& [b, e] : SplitArgSpans(code, open + 1, close)) {
            ParamInfo param;
            param.text = Trimmed(code.substr(b, e - b));
            param.name = ParamNameOf(param.text);
            sym.params.push_back(std::move(param));
          }
        }
      }
      graph->symbols.push_back(std::move(sym));
    }
  }
}

void AddLambdaSymbols(const std::vector<FileContext>& files,
                      const std::vector<FileAst>& asts, CallGraph* graph) {
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::string& code = asts[fi].code;
    for (const LambdaInfo& lambda : asts[fi].lambdas) {
      // `auto name = [..](..){..}` / `name = [..]...`: the '=' immediately
      // before the introducer, preceded by an identifier, names the lambda.
      const std::size_t eq = PrevNonWs(code, lambda.intro);
      if (eq == std::string::npos || code[eq] != '=') continue;
      if (eq > 0 && (code[eq - 1] == '=' || code[eq - 1] == '!' ||
                     code[eq - 1] == '<' || code[eq - 1] == '>')) {
        continue;  // comparison, not assignment
      }
      std::size_t name_begin = 0;
      const std::string name = IdentifierBefore(code, eq, &name_begin);
      if (name.empty() ||
          std::isdigit(static_cast<unsigned char>(name[0])) != 0) {
        continue;
      }
      Symbol sym;
      sym.name = name;
      sym.qualified = name;
      sym.file_index = fi;
      sym.name_begin = name_begin;
      sym.body_begin = lambda.body_begin;
      sym.body_end = lambda.body_end;
      sym.line = asts[fi].index.LineOf(name_begin);
      sym.is_lambda = true;
      for (std::size_t i = 0; i < lambda.param_names.size(); ++i) {
        sym.params.push_back({lambda.param_names[i], lambda.param_texts[i]});
      }
      graph->symbols.push_back(std::move(sym));
    }
  }
}

void CollectCallSites(const std::vector<FileContext>& files,
                      const std::vector<FileAst>& asts, CallGraph* graph) {
  // Definition positions are not call sites.
  std::vector<std::set<std::size_t>> defs(files.size());
  for (const Symbol& sym : graph->symbols) {
    defs[sym.file_index].insert(sym.name_begin);
  }
  // Innermost enclosing symbol per position, resolved by smallest span.
  std::vector<std::vector<int>> by_file(files.size());
  for (std::size_t s = 0; s < graph->symbols.size(); ++s) {
    by_file[graph->symbols[s].file_index].push_back(static_cast<int>(s));
  }
  graph->file_calls.resize(files.size());
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::string& code = asts[fi].code;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (code[i] != '(') continue;
      std::size_t name_begin = 0;
      const std::string name = IdentifierBefore(code, i, &name_begin);
      if (name.empty() || IsControlKeyword(name)) continue;
      if (std::isdigit(static_cast<unsigned char>(name[0])) != 0) continue;
      if (defs[fi].count(name_begin) != 0) continue;
      // Distinguish calls from declarations/definitions: a name directly
      // preceded by another identifier or '>' ('std::vector<T> foo(') is a
      // declarator unless the preceding word is a statement keyword.
      const std::size_t prev = name_begin == 0
                                   ? std::string::npos
                                   : PrevNonWs(code, name_begin);
      bool member_call = false;
      if (prev != std::string::npos) {
        const char c = code[prev];
        if (c == '.' ||
            (c == '>' && prev > 0 && code[prev - 1] == '-')) {
          member_call = true;
        } else if (IsIdentifierChar(c)) {
          std::size_t b = prev + 1;
          while (b > 0 && IsIdentifierChar(code[b - 1])) --b;
          const std::string word = code.substr(b, prev + 1 - b);
          if (!IsControlKeyword(word) && word != "else" && word != "in") {
            continue;  // `Type name(` — a declaration
          }
        } else if (c == '>' || c == '&' || c == '*') {
          // `vector<int> name(` / `T& name(` / `T* name(` declarators; a
          // '>' closing a comparison before a call is rare enough to accept
          // the false negative (documented envelope).
          continue;
        }
      }
      const std::size_t close = MatchForward(code, i);
      if (close == std::string::npos) continue;
      CallSite site;
      site.pos = name_begin;
      site.line = asts[fi].index.LineOf(name_begin);
      site.col = asts[fi].index.ColOf(name_begin);
      site.name = name;
      site.member_call = member_call;
      site.args = SplitArgSpans(code, i + 1, close);
      // Innermost enclosing symbol.
      std::size_t best_span = std::string::npos;
      for (int s : by_file[fi]) {
        const Symbol& sym = graph->symbols[static_cast<std::size_t>(s)];
        if (name_begin > sym.body_begin && name_begin < sym.body_end) {
          const std::size_t span = sym.body_end - sym.body_begin;
          if (span < best_span) {
            best_span = span;
            site.caller = s;
          }
        }
      }
      graph->file_calls[fi].push_back(std::move(site));
    }
  }
}

}  // namespace

const std::vector<int>& CallGraph::Resolve(const std::string& name) const {
  static const std::vector<int> kEmpty;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kEmpty : it->second;
}

CallGraph BuildCallGraph(const std::vector<FileContext>& files,
                         const std::vector<FileAst>& asts) {
  CallGraph graph;
  AddFunctionSymbols(files, asts, &graph);
  AddLambdaSymbols(files, asts, &graph);
  for (std::size_t s = 0; s < graph.symbols.size(); ++s) {
    graph.by_name[graph.symbols[s].name].push_back(static_cast<int>(s));
  }
  CollectCallSites(files, asts, &graph);
  graph.callees.assign(graph.symbols.size(), {});
  for (const auto& sites : graph.file_calls) {
    for (const CallSite& site : sites) {
      if (site.caller < 0) continue;
      for (int callee : graph.Resolve(site.name)) {
        graph.callees[static_cast<std::size_t>(site.caller)].push_back(callee);
      }
    }
  }
  for (auto& list : graph.callees) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return graph;
}

namespace {

bool IsExprKeyword(const std::string& word) {
  static const std::set<std::string> kKeywords = {
      "return",   "else",    "case",      "goto",    "co_return", "throw",
      "new",      "delete",  "if",        "while",   "for",       "do",
      "switch",   "break",   "continue",  "default", "public",    "private",
      "protected", "using",  "namespace", "template", "typename", "operator",
      "const",    "constexpr", "static",  "auto",    "void",      "struct",
      "class",    "enum",    "typedef",   "template"};
  return kKeywords.count(word) != 0;
}

std::string StripWs(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) out.push_back(c);
  }
  return out;
}

Operand FinishOperand(const std::string& code, Operand op) {
  if (op.end <= op.begin) return {};
  op.text = StripWs(code.substr(op.begin, op.end - op.begin));
  if (op.text.empty()) return {};
  if (IsExprKeyword(op.text)) return {};
  op.valid = true;
  return op;
}

}  // namespace

Operand ParseOperandBackward(const std::string& code, std::size_t end_pos) {
  Operand op;
  std::size_t e = end_pos;
  while (e > 0 && std::isspace(static_cast<unsigned char>(code[e - 1])) != 0) {
    --e;
  }
  if (e == 0) return {};
  op.end = e;
  std::size_t i = e;
  bool rightmost = true;
  while (true) {
    // Trailing () / [] groups of this segment.
    bool had_group = false;
    while (i > 0 && (code[i - 1] == ')' || code[i - 1] == ']')) {
      const char close = code[i - 1];
      const char open = close == ')' ? '(' : '[';
      int depth = 0;
      std::size_t p = i;
      bool matched = false;
      while (p > 0) {
        --p;
        if (code[p] == close) ++depth;
        if (code[p] == open && --depth == 0) {
          matched = true;
          break;
        }
      }
      if (!matched) return {};
      i = p;
      if (close == ')' && rightmost) op.is_call = true;
      had_group = true;
    }
    std::size_t ib = i;
    while (ib > 0 && IsIdentifierChar(code[ib - 1])) --ib;
    if (ib == i) {
      // A bare parenthesized expression `( ... )` is not simple.
      if (had_group) return {};
      return {};
    }
    const std::string ident = code.substr(ib, i - ib);
    if (op.last_ident.empty()) op.last_ident = ident;
    i = ib;
    rightmost = false;
    if (i > 0 && code[i - 1] == '.') {
      --i;
      continue;
    }
    if (i > 1 && code[i - 1] == '>' && code[i - 2] == '-') {
      i -= 2;
      continue;
    }
    if (i > 1 && code[i - 1] == ':' && code[i - 2] == ':') {
      i -= 2;
      continue;
    }
    break;
  }
  op.begin = i;
  op.is_literal = std::isdigit(static_cast<unsigned char>(code[i])) != 0;
  return FinishOperand(code, op);
}

Operand ParseOperandForward(const std::string& code, std::size_t pos,
                            std::size_t limit) {
  Operand op;
  std::size_t p = SkipWsForward(code, pos, limit);
  if (p >= limit) return {};
  op.begin = p;
  while (p < limit && (code[p] == '-' || code[p] == '+' || code[p] == '!' ||
                       code[p] == '~')) {
    // `--` / `++` prefixes are writes, not simple reads.
    if (p + 1 < limit && code[p + 1] == code[p] &&
        (code[p] == '-' || code[p] == '+')) {
      return {};
    }
    p = SkipWsForward(code, p + 1, limit);
  }
  if (p < limit && std::isdigit(static_cast<unsigned char>(code[p])) != 0) {
    while (p < limit && (IsIdentifierChar(code[p]) || code[p] == '.' ||
                         code[p] == '\'')) {
      ++p;
    }
    op.end = p;
    op.is_literal = true;
    return FinishOperand(code, op);
  }
  while (true) {
    const std::size_t ib = p;
    while (p < limit && IsIdentifierChar(code[p])) ++p;
    if (p == ib) return {};
    op.last_ident = code.substr(ib, p - ib);
    op.is_call = false;
    // Trailing groups: call parens, index brackets.
    while (p < limit && (code[p] == '(' || code[p] == '[')) {
      const std::size_t close = MatchForward(code, p);
      if (close == std::string::npos || close >= limit) return {};
      if (code[p] == '(') op.is_call = true;
      p = close + 1;
    }
    const std::size_t next = SkipWsForward(code, p, limit);
    if (next + 1 < limit && code[next] == ':' && code[next + 1] == ':') {
      p = next + 2;
      continue;
    }
    if (next + 1 < limit && code[next] == '-' && code[next + 1] == '>') {
      p = next + 2;
      continue;
    }
    if (next < limit && code[next] == '.' && next + 1 < limit &&
        IsIdentifierChar(code[next + 1]) &&
        std::isdigit(static_cast<unsigned char>(code[next + 1])) == 0) {
      p = next + 1;
      continue;
    }
    break;
  }
  op.end = p;
  return FinishOperand(code, op);
}

namespace {

/// The unsigned integer type heads the repo uses; `unsigned` itself may be
/// followed by int/long/char/short before the declared name.
bool IsUnsignedTypeWord(const std::string& word) {
  static const std::set<std::string> kUnsigned = {
      "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
      "uintptr_t", "size_t",   "unsigned"};
  return kUnsigned.count(word) != 0;
}

/// Signed / floating / other value types that veto a name's unsignedness
/// when they declare the same identifier elsewhere.
bool IsSignedTypeWord(const std::string& word) {
  static const std::set<std::string> kSigned = {
      "int",     "short",   "long",    "signed",  "double",   "float",
      "int8_t",  "int16_t", "int32_t", "int64_t", "ptrdiff_t"};
  return kSigned.count(word) != 0;
}

bool IsIntWidthWord(const std::string& word) {
  return word == "int" || word == "long" || word == "char" || word == "short";
}

/// Scans one file for `<type> name` declarator pairs and records the
/// variable / function names under the matching bucket.
void ScanTypedDecls(const std::string& code, std::set<std::string>* u_names,
                    std::set<std::string>* u_fns,
                    std::set<std::string>* s_names,
                    std::set<std::string>* s_fns) {
  for (std::size_t i = 0; i < code.size();) {
    if (!IsIdentifierChar(code[i])) {
      ++i;
      continue;
    }
    const std::size_t s = i;
    const std::size_t e = IdentEnd(code, i);
    i = e;
    const std::string word = code.substr(s, e - s);
    const bool is_unsigned = IsUnsignedTypeWord(word);
    const bool is_signed = IsSignedTypeWord(word);
    if (!is_unsigned && !is_signed) continue;
    std::size_t p = SkipWsForward(code, e, code.size());
    if (word == "unsigned" || word == "signed" || word == "long" ||
        word == "short") {
      // Consume width words: `unsigned long long x`.
      while (p < code.size() && IsIdentifierChar(code[p])) {
        const std::size_t we = IdentEnd(code, p);
        if (!IsIntWidthWord(code.substr(p, we - p))) break;
        p = SkipWsForward(code, we, code.size());
      }
    }
    while (p < code.size() && (code[p] == '&' || code[p] == '*')) {
      p = SkipWsForward(code, p + 1, code.size());
    }
    // `const` between type and name.
    if (code.compare(p, 5, "const") == 0 &&
        (p + 5 >= code.size() || !IsIdentifierChar(code[p + 5]))) {
      p = SkipWsForward(code, p + 5, code.size());
    }
    const std::size_t ne = IdentEnd(code, p);
    if (ne == p) continue;
    const std::string name = code.substr(p, ne - p);
    if (std::isdigit(static_cast<unsigned char>(name[0])) != 0) continue;
    const std::size_t after = SkipWsForward(code, ne, code.size());
    const char next = after < code.size() ? code[after] : '\0';
    if (next == '(') {
      (is_unsigned ? u_fns : s_fns)->insert(name);
    } else if (next == ';' || next == '=' || next == ',' || next == ')' ||
               next == '{' || next == '[' || next == ':') {
      if (next == '=' && after + 1 < code.size() && code[after + 1] == '=') {
        continue;
      }
      if (next == ':' && after + 1 < code.size() && code[after + 1] == ':') {
        continue;
      }
      (is_unsigned ? u_names : s_names)->insert(name);
    }
  }
}

}  // namespace

TypeFacts CollectTypeFacts(const std::vector<FileContext>& files,
                           const std::vector<FileAst>& asts,
                           const CallGraph& graph) {
  TypeFacts facts;
  std::set<std::string> u_names;
  std::set<std::string> u_fns;
  std::set<std::string> s_names;
  std::set<std::string> s_fns;
  for (const FileAst& ast : asts) {
    ScanTypedDecls(ast.code, &u_names, &u_fns, &s_names, &s_fns);
  }
  // Symbol return types refine the function buckets: every definition's
  // declared return type must agree for a name to count as unsigned.
  for (const Symbol& sym : graph.symbols) {
    if (sym.return_type.empty()) continue;
    bool has_unsigned = false;
    bool has_other = false;
    std::size_t i = 0;
    while (i < sym.return_type.size()) {
      if (!IsIdentifierChar(sym.return_type[i])) {
        ++i;
        continue;
      }
      const std::size_t b = i;
      i = IdentEnd(sym.return_type, i);
      const std::string word = sym.return_type.substr(b, i - b);
      if (IsUnsignedTypeWord(word)) has_unsigned = true;
      if (IsSignedTypeWord(word) || word == "auto" || word == "void" ||
          word == "bool" || word == "Status" || word == "StatusOr") {
        has_other = true;
      }
    }
    if (has_unsigned && !has_other) u_fns.insert(sym.name);
    if (has_other) s_fns.insert(sym.name);
  }
  (void)files;
  for (const std::string& name : u_names) {
    if (s_names.count(name) == 0) facts.unsigned_names.insert(name);
  }
  for (const std::string& name : u_fns) {
    if (s_fns.count(name) == 0) facts.unsigned_returning.insert(name);
  }
  return facts;
}

void AugmentStatusRegistry(const std::vector<FileContext>& files,
                           const std::vector<FileAst>& asts,
                           const CallGraph& graph,
                           std::set<std::string>* status_fns) {
  (void)files;
  // Per symbol: the callee names its body forwards via a bare
  // `return <callee>(...);` statement.
  std::vector<std::vector<std::string>> forwards(graph.symbols.size());
  for (std::size_t s = 0; s < graph.symbols.size(); ++s) {
    const Symbol& sym = graph.symbols[s];
    // Only symbols whose declared return type could carry a Status without
    // the declaration-regex already catching it: lambdas and `auto`
    // functions. Explicit Status/StatusOr returns are in the registry from
    // pass 1; explicit other types cannot forward a Status.
    if (!sym.is_lambda && sym.return_type.find("auto") == std::string::npos) {
      continue;
    }
    const std::string& code = asts[sym.file_index].code;
    for (std::size_t pos = FindTokenInRange(code, "return", sym.body_begin,
                                            sym.body_end);
         pos != std::string::npos;
         pos = FindTokenInRange(code, "return", pos + 1, sym.body_end)) {
      // `return <simple call>;` — the operand parser accepts qualified
      // and member callees alike, and rejects anything with extra operators
      // (`return F() + 1` does not forward a Status).
      const Operand ret = ParseOperandForward(code, pos + 6, sym.body_end);
      if (!ret.valid || !ret.is_call) continue;
      const std::size_t semi = SkipWsForward(code, ret.end, sym.body_end);
      if (semi >= sym.body_end || code[semi] != ';') continue;
      forwards[s].push_back(ret.last_ident);
    }
  }
  // Fixpoint: a forwarding symbol joins the registry once any forwarded
  // callee is (transitively) status-returning. Recursive and mutually
  // recursive chains terminate because the registry only grows.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < graph.symbols.size(); ++s) {
      const Symbol& sym = graph.symbols[s];
      if (status_fns->count(sym.name) != 0) continue;
      for (const std::string& callee : forwards[s]) {
        if (status_fns->count(callee) != 0) {
          status_fns->insert(sym.name);
          changed = true;
          break;
        }
      }
    }
  }
}

int InnermostSymbolAt(const CallGraph& graph, std::size_t file_index,
                      std::size_t offset) {
  int best = -1;
  std::size_t best_span = std::string::npos;
  for (std::size_t s = 0; s < graph.symbols.size(); ++s) {
    const Symbol& sym = graph.symbols[s];
    if (sym.file_index != file_index) continue;
    if (offset <= sym.body_begin || offset >= sym.body_end) continue;
    const std::size_t span = sym.body_end - sym.body_begin;
    if (span < best_span) {
      best_span = span;
      best = static_cast<int>(s);
    }
  }
  return best;
}

std::size_t FindLocalDeclaration(const std::string& code,
                                 const std::string& name, std::size_t from,
                                 std::size_t to) {
  static const std::set<std::string> kStatementWords = {
      "return", "new",      "delete", "throw", "else",     "case",
      "goto",   "co_return", "break",  "continue", "sizeof", "using",
      "typedef"};
  for (std::size_t pos = FindTokenInRange(code, name, from, to);
       pos != std::string::npos;
       pos = FindTokenInRange(code, name, pos + 1, to)) {
    const std::size_t prev = PrevNonWs(code, pos);
    if (prev == std::string::npos) continue;
    const char c = code[prev];
    bool type_before = false;
    if (c == '&' || c == '*' || c == '>') {
      // `T& x`, `T* x`, `vector<T> x`. A '>' closing a comparison before a
      // declaration-shaped name is accepted: the follow-set check below
      // rejects nearly every expression context.
      type_before = true;
    } else if (IsIdentifierChar(c)) {
      std::size_t b = prev + 1;
      while (b > 0 && IsIdentifierChar(code[b - 1])) --b;
      type_before = kStatementWords.count(code.substr(b, prev + 1 - b)) == 0;
    }
    if (!type_before) continue;
    const std::size_t after =
        SkipWsForward(code, pos + name.size(), code.size());
    if (after >= code.size()) continue;
    const char n = code[after];
    if (n == '=' && after + 1 < code.size() && code[after + 1] == '=') {
      continue;
    }
    if (n == ':' && after + 1 < code.size() && code[after + 1] == ':') {
      continue;
    }
    if (n == '=' || n == ';' || n == ',' || n == '{' || n == '(' || n == ':') {
      return pos;
    }
  }
  return std::string::npos;
}

}  // namespace myrtus::lint
