// Lightweight syntactic front-end for myrtus_lint's flow-aware rules.
//
// This is deliberately not a C++ parser: it works on the stripped "code view"
// (tools/lint/lexer.hpp), where comments and literal contents are already
// blanked, and recovers just enough structure for the flow rules —
//
//   * a brace-matched function extractor (name + `{...}` body span),
//   * a lambda finder with a parsed capture list, parameter names, and the
//     name of the util::Parallel* entry point the lambda is passed to (when
//     it is a direct argument), and
//   * offset <-> line/column mapping so findings carry exact positions.
//
// Templates are scanned as text, overloads are matched by name only, and
// macros are seen un-expanded; docs/LINTING.md documents that false-negative
// envelope. The geometry guarantee of the lexer (same byte offsets in raw and
// stripped text) is what lets rules read literal contents back out of the raw
// text at positions discovered in the code view.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "rules.hpp"

namespace myrtus::lint {

/// Offset -> (line, column) mapping over one text buffer. Lines and columns
/// are 1-based, matching compiler diagnostics.
class TextIndex {
 public:
  explicit TextIndex(const std::string& text);
  int LineOf(std::size_t offset) const;
  int ColOf(std::size_t offset) const;

 private:
  std::vector<std::size_t> line_starts_;
};

/// Offset of the delimiter matching the opener at `open` (one of `(` `[` `{`),
/// or npos when the text is unbalanced. Operates on stripped code, so
/// delimiters inside literals never miscount.
std::size_t MatchForward(const std::string& code, std::size_t open);

/// One lambda expression found in a file.
struct LambdaInfo {
  std::size_t intro = 0;       // offset of the '[' of the capture list
  std::size_t body_begin = 0;  // offset of the body '{'
  std::size_t body_end = 0;    // offset of the matching '}'
  bool default_ref = false;    // capture-default '&'
  bool default_copy = false;   // capture-default '='
  std::vector<std::string> ref_captures;    // [&name] and [&name = expr]
  std::vector<std::string> value_captures;  // [name], [name = expr], [this]
  /// Names introduced by reference init-captures ([&alias = expr]): a subset
  /// of ref_captures. The lifetime family exempts these — the initializer may
  /// denote a member or heap object, not necessarily a stack local.
  std::vector<std::string> init_ref_captures;
  /// Value init-captures as (name, initializer text): [p = &slot] yields
  /// ("p", "&slot"). The initializer is whitespace-trimmed source text.
  std::vector<std::pair<std::string, std::string>> init_value_captures;
  std::vector<std::string> param_names;     // "" for unnamed parameters
  std::vector<std::string> param_texts;     // full declaration text per param
  /// "ParallelFor" or "ParallelMap" when this lambda is a *direct*
  /// argument of a util::Parallel* call; empty otherwise. Lambdas wrapped in
  /// another call first (ParallelFor(n, wrap([...]))) are not attributed.
  std::string parallel_callee;
};

/// One function definition (free function, member, TEST body, ...).
struct FunctionInfo {
  std::string name;
  std::size_t name_begin = 0;  // offset of the first character of the name
  std::size_t body_begin = 0;  // offset of the body '{'
  std::size_t body_end = 0;    // offset of the matching '}'
};

/// Parsed view of one file, shared by all flow rules.
struct FileAst {
  std::string code;  // stripped text, '\n'-joined (byte-identical geometry)
  std::string raw;   // original text, same geometry as `code`
  TextIndex index;
  std::vector<FunctionInfo> functions;
  std::vector<LambdaInfo> lambdas;

  explicit FileAst(std::string code_text, std::string raw_text)
      : code(std::move(code_text)), raw(std::move(raw_text)), index(code) {}
};

FileAst BuildFileAst(const FileContext& file);

/// Identifier-boundary token search in [from, to) of `text`. Returns npos
/// when absent. The token's first/last characters get boundary checks, so
/// qualified tokens ("shard.index") work too.
std::size_t FindTokenInRange(const std::string& text, const std::string& token,
                             std::size_t from, std::size_t to);

/// True for [A-Za-z0-9_].
bool IsIdentifierChar(char c);

/// Skips spaces/tabs/newlines forward from `pos`; never past `end`.
std::size_t SkipWsForward(const std::string& text, std::size_t pos,
                          std::size_t end);

/// Returns the identifier ending at `end` (exclusive) after skipping
/// whitespace backwards, and its start offset via `begin_out`; empty when the
/// preceding token is not an identifier.
std::string IdentifierBefore(const std::string& text, std::size_t end,
                             std::size_t* begin_out);

}  // namespace myrtus::lint
