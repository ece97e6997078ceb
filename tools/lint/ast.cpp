#include "ast.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace myrtus::lint {
namespace {

/// Keywords that take a parenthesized head but never open a function body.
bool IsControlKeyword(const std::string& word) {
  static const std::array<const char*, 12> kControl = {
      "if",     "while",  "for",      "switch", "catch",  "return",
      "sizeof", "alignof", "decltype", "new",    "delete", "constexpr"};
  return std::find(kControl.begin(), kControl.end(), word) != kControl.end();
}

bool StartsWithToken(const std::string& text, std::size_t pos,
                     const char* token) {
  const std::size_t len = std::char_traits<char>::length(token);
  if (text.compare(pos, len, token) != 0) return false;
  const bool left_ok = pos == 0 || !IsIdentifierChar(text[pos - 1]);
  const bool right_ok =
      pos + len >= text.size() || !IsIdentifierChar(text[pos + len]);
  return left_ok && right_ok;
}

std::string Trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// Splits `text` on commas at (), [], {}, <> depth zero. Angle brackets are
/// tracked best-effort: good enough for capture lists and parameter lists,
/// which is all this is used for.
std::vector<std::string> SplitTopLevelCommas(const std::string& text) {
  std::vector<std::string> parts;
  int paren = 0;
  int angle = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[' || c == '{') ++paren;
    if (c == ')' || c == ']' || c == '}') --paren;
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c == ',' && paren == 0 && angle == 0) {
      parts.push_back(Trimmed(text.substr(start, i - start)));
      start = i + 1;
    }
  }
  const std::string tail = Trimmed(text.substr(start));
  if (!tail.empty() || !parts.empty()) parts.push_back(tail);
  if (parts.size() == 1 && parts[0].empty()) parts.clear();
  return parts;
}

/// Parameter name: the trailing identifier of the declaration, after cutting
/// a default argument. "const util::Shard& shard" -> "shard"; "int" -> "".
std::string ParamName(const std::string& decl) {
  std::string d = decl;
  // Cut "= default" tails (SplitTopLevelCommas already kept '=' intact).
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
  std::string name = d.substr(e);
  // A trailing identifier that is part of the type, not a name.
  if (name == "int" || name == "auto" || name == "char" || name == "bool" ||
      name == "double" || name == "float" || name == "long" ||
      name == "short" || name == "unsigned" || name == "signed" ||
      name == "size_t" || name == "void" || name == "const") {
    return "";
  }
  if (e > 0 && (d[e - 1] == ':' || d[e - 1] == '.')) return "";
  // "Foo bar": only a name when something type-like precedes it.
  if (e == 0) return "";
  return name;
}

/// True when the '[' at `pos` starts a lambda introducer rather than a
/// subscript or an attribute.
bool IsLambdaIntro(const std::string& code, std::size_t pos) {
  if (pos + 1 < code.size() && code[pos + 1] == '[') return false;  // [[attr]]
  std::size_t p = pos;
  while (p > 0 &&
         std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
    --p;
  }
  if (p == 0) return true;
  const char prev = code[p - 1];
  // After an identifier, ')' or ']' a '[' is a subscript; after a string
  // quote it is part of an expression like "x"[0] (never in this codebase).
  if (IsIdentifierChar(prev) || prev == ')' || prev == ']' || prev == '"') {
    return false;
  }
  return true;
}

/// Parses the capture list text (without brackets) into `info`.
void ParseCaptures(const std::string& text, LambdaInfo& info) {
  for (const std::string& entry : SplitTopLevelCommas(text)) {
    if (entry.empty()) continue;
    if (entry == "&") {
      info.default_ref = true;
      continue;
    }
    if (entry == "=") {
      info.default_copy = true;
      continue;
    }
    if (entry == "this" || entry == "*this") {
      info.value_captures.push_back("this");
      continue;
    }
    const bool by_ref = entry[0] == '&';
    std::string name = by_ref ? Trimmed(entry.substr(1)) : entry;
    // Init-captures: keep the introduced name, remember the initializer.
    std::string init;
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      init = Trimmed(name.substr(eq + 1));
      name = Trimmed(name.substr(0, eq));
    }
    std::size_t e = 0;
    while (e < name.size() && IsIdentifierChar(name[e])) ++e;
    name.resize(e);
    if (name.empty()) continue;
    (by_ref ? info.ref_captures : info.value_captures).push_back(name);
    if (eq != std::string::npos) {
      if (by_ref) {
        info.init_ref_captures.push_back(name);
      } else {
        info.init_value_captures.emplace_back(name, init);
      }
    }
  }
}

/// If the text ending at `call_open` (offset of '(') is a util::Parallel*
/// callee — possibly with explicit template arguments — returns its name.
std::string ParallelCalleeBefore(const std::string& code,
                                 std::size_t call_open) {
  std::size_t p = call_open;
  while (p > 0 &&
         std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
    --p;
  }
  // Skip one explicit template argument list: ParallelMap<T>(...).
  if (p > 0 && code[p - 1] == '>') {
    int depth = 0;
    std::size_t q = p;
    while (q > 0) {
      --q;
      if (code[q] == '>') ++depth;
      if (code[q] == '<') {
        --depth;
        if (depth == 0) break;
      }
    }
    if (depth != 0) return "";
    p = q;
  }
  std::size_t begin = 0;
  const std::string name = IdentifierBefore(code, p, &begin);
  static const std::array<const char*, 2> kParallel = {"ParallelFor",
                                                        "ParallelMap"};
  for (const char* candidate : kParallel) {
    if (name == candidate) return name;
  }
  return "";
}

void CollectLambdas(FileAst& ast) {
  const std::string& code = ast.code;
  std::vector<std::size_t> paren_stack;  // offsets of currently-open '('
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '(') {
      paren_stack.push_back(i);
      continue;
    }
    if (c == ')') {
      if (!paren_stack.empty()) paren_stack.pop_back();
      continue;
    }
    if (c != '[' || !IsLambdaIntro(code, i)) continue;
    const std::size_t intro_close = MatchForward(code, i);
    if (intro_close == std::string::npos) continue;

    LambdaInfo info;
    info.intro = i;
    ParseCaptures(code.substr(i + 1, intro_close - i - 1), info);

    std::size_t p = SkipWsForward(code, intro_close + 1, code.size());
    if (p < code.size() && code[p] == '(') {
      const std::size_t params_close = MatchForward(code, p);
      if (params_close == std::string::npos) continue;
      for (const std::string& param :
           SplitTopLevelCommas(code.substr(p + 1, params_close - p - 1))) {
        info.param_texts.push_back(param);
        info.param_names.push_back(ParamName(param));
      }
      p = params_close + 1;
    }
    // Skip specifiers and a trailing-return type up to the body brace.
    bool is_lambda = false;
    while (p < code.size()) {
      p = SkipWsForward(code, p, code.size());
      if (p >= code.size()) break;
      if (code[p] == '{') {
        is_lambda = true;
        break;
      }
      if (StartsWithToken(code, p, "mutable") ||
          StartsWithToken(code, p, "constexpr") ||
          StartsWithToken(code, p, "static")) {
        p += 6;  // at least; the loop re-skips whitespace
        while (p < code.size() && IsIdentifierChar(code[p])) ++p;
        continue;
      }
      if (StartsWithToken(code, p, "noexcept")) {
        p += 8;
        const std::size_t q = SkipWsForward(code, p, code.size());
        if (q < code.size() && code[q] == '(') {
          const std::size_t close = MatchForward(code, q);
          if (close == std::string::npos) break;
          p = close + 1;
        }
        continue;
      }
      if (code.compare(p, 2, "->") == 0) {
        p += 2;
        // Consume the return type: identifiers, qualifiers, templates.
        while (p < code.size() && code[p] != '{' && code[p] != ';' &&
               code[p] != ',' && code[p] != ')') {
          if (code[p] == '<') {
            const std::size_t close = MatchForward(code, p);
            if (close == std::string::npos) break;
            p = close + 1;
          } else {
            ++p;
          }
        }
        continue;
      }
      break;  // not a lambda after all (e.g. an array declarator)
    }
    if (!is_lambda) continue;
    info.body_begin = p;
    info.body_end = MatchForward(code, p);
    if (info.body_end == std::string::npos) continue;
    if (!paren_stack.empty()) {
      // Direct argument only: the lambda must follow the call's '(' or an
      // argument ','. A lambda nested inside another lambda's body still has
      // the outer call's '(' on the paren stack, but sits after '=' / '{' /
      // ';' instead — it belongs to the enclosing body, not the call.
      std::size_t prev = info.intro;
      while (prev > 0 &&
             std::isspace(static_cast<unsigned char>(code[prev - 1])) != 0) {
        --prev;
      }
      if (prev > 0 && (code[prev - 1] == '(' || code[prev - 1] == ',')) {
        info.parallel_callee = ParallelCalleeBefore(code, paren_stack.back());
      }
    }
    ast.lambdas.push_back(std::move(info));
  }
}

void CollectFunctions(FileAst& ast) {
  const std::string& code = ast.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] != '(') continue;
    const std::size_t close = MatchForward(code, i);
    if (close == std::string::npos) continue;

    std::size_t name_begin = 0;
    const std::string name = IdentifierBefore(code, i, &name_begin);
    if (name.empty() || IsControlKeyword(name)) continue;

    // After the parameter list: specifiers, a trailing return type, or a
    // constructor initializer list may precede the body brace.
    std::size_t p = close + 1;
    bool is_function = false;
    while (p < code.size()) {
      p = SkipWsForward(code, p, code.size());
      if (p >= code.size()) break;
      if (code[p] == '{') {
        is_function = true;
        break;
      }
      if (StartsWithToken(code, p, "const") ||
          StartsWithToken(code, p, "override") ||
          StartsWithToken(code, p, "final") ||
          StartsWithToken(code, p, "mutable")) {
        while (p < code.size() && IsIdentifierChar(code[p])) ++p;
        continue;
      }
      if (StartsWithToken(code, p, "noexcept")) {
        while (p < code.size() && IsIdentifierChar(code[p])) ++p;
        const std::size_t q = SkipWsForward(code, p, code.size());
        if (q < code.size() && code[q] == '(') {
          const std::size_t nclose = MatchForward(code, q);
          if (nclose == std::string::npos) break;
          p = nclose + 1;
        }
        continue;
      }
      if (code.compare(p, 2, "->") == 0) {
        p += 2;
        while (p < code.size() && code[p] != '{' && code[p] != ';') {
          if (code[p] == '<' || code[p] == '(') {
            const std::size_t tclose = MatchForward(code, p);
            if (tclose == std::string::npos) break;
            p = tclose + 1;
          } else {
            ++p;
          }
        }
        continue;
      }
      if (code[p] == ':' && (p + 1 >= code.size() || code[p + 1] != ':')) {
        // Constructor initializer list: consume "member(expr)" / "member{expr}"
        // groups until the body brace.
        ++p;
        bool found_body = false;
        while (p < code.size()) {
          p = SkipWsForward(code, p, code.size());
          if (p >= code.size()) break;
          if (code[p] == '(') {
            const std::size_t gclose = MatchForward(code, p);
            if (gclose == std::string::npos) break;
            p = gclose + 1;
            continue;
          }
          if (code[p] == '{') {
            // An init-brace directly follows an identifier or '>'; the body
            // brace follows whitespace, ')' or '}'.
            std::size_t q = p;
            while (q > 0 && std::isspace(
                                static_cast<unsigned char>(code[q - 1])) != 0) {
              --q;
            }
            const char prev = q > 0 ? code[q - 1] : '\0';
            if (q == p && (IsIdentifierChar(prev) || prev == '>')) {
              const std::size_t gclose = MatchForward(code, p);
              if (gclose == std::string::npos) break;
              p = gclose + 1;
              continue;
            }
            found_body = true;
            break;
          }
          if (code[p] == ';') break;
          ++p;
        }
        if (found_body) {
          is_function = true;
        }
        break;
      }
      break;  // ';' (declaration), ',', operator — not a definition
    }
    if (!is_function || p >= code.size() || code[p] != '{') continue;
    const std::size_t body_end = MatchForward(code, p);
    if (body_end == std::string::npos) continue;
    FunctionInfo fn;
    fn.name = name;
    fn.name_begin = name_begin;
    fn.body_begin = p;
    fn.body_end = body_end;
    ast.functions.push_back(std::move(fn));
  }
}

}  // namespace

TextIndex::TextIndex(const std::string& text) {
  line_starts_.push_back(0);
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') line_starts_.push_back(i + 1);
  }
}

int TextIndex::LineOf(std::size_t offset) const {
  const auto it =
      std::upper_bound(line_starts_.begin(), line_starts_.end(), offset);
  return static_cast<int>(it - line_starts_.begin());
}

int TextIndex::ColOf(std::size_t offset) const {
  const int line = LineOf(offset);
  return static_cast<int>(offset -
                          line_starts_[static_cast<std::size_t>(line - 1)]) +
         1;
}

std::size_t MatchForward(const std::string& code, std::size_t open) {
  if (open >= code.size()) return std::string::npos;
  const char open_c = code[open];
  const char close_c = open_c == '(' ? ')' : open_c == '[' ? ']' : '}';
  if (open_c != '(' && open_c != '[' && open_c != '{') {
    return std::string::npos;
  }
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == open_c) ++depth;
    if (code[i] == close_c) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

bool IsIdentifierChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t SkipWsForward(const std::string& text, std::size_t pos,
                          std::size_t end) {
  while (pos < end && std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

std::string IdentifierBefore(const std::string& text, std::size_t end,
                             std::size_t* begin_out) {
  std::size_t p = end;
  while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1])) != 0) {
    --p;
  }
  std::size_t b = p;
  while (b > 0 && IsIdentifierChar(text[b - 1])) --b;
  if (begin_out != nullptr) *begin_out = b;
  return text.substr(b, p - b);
}

std::size_t FindTokenInRange(const std::string& text, const std::string& token,
                             std::size_t from, std::size_t to) {
  if (token.empty() || to > text.size() || from >= to) return std::string::npos;
  for (std::size_t pos = text.find(token, from);
       pos != std::string::npos && pos + token.size() <= to;
       pos = text.find(token, pos + 1)) {
    const bool left_ok = pos == 0 || !IsIdentifierChar(text[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= text.size() || !IsIdentifierChar(text[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string::npos;
}

FileAst BuildFileAst(const FileContext& file) {
  FileAst ast(file.code, file.raw);
  CollectLambdas(ast);
  CollectFunctions(ast);
  return ast;
}

}  // namespace myrtus::lint
