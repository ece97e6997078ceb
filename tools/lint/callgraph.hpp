// Cross-translation-unit symbol table and call graph for myrtus_lint's
// interprocedural rule families (unsigned-underflow, capture lifetime, and
// the transitive half of status-discard).
//
// The table is built from the same syntactic FileAsts the flow rules use —
// no real name lookup, no overload resolution, no template instantiation.
// Resolution is deliberately conservative:
//
//   * free functions and methods are matched by name; an out-of-line method
//     definition `Class::Method(...)` additionally records its qualified
//     name, and a call resolves to the *whole* overload set sharing the
//     unqualified name (callers consult every candidate and only act when
//     the candidates agree),
//   * lambdas stored in named variables (`auto f = [..](..){..};`) become
//     symbols under the variable's name, so calls through the variable and
//     `(void)f()` discards resolve like any other function,
//   * virtual dispatch and overload sets collapse onto the name — a
//     documented false-negative/false-positive envelope (docs/LINTING.md):
//     rules must treat multi-candidate resolution as "any of these".
//
// On top of the graph sit two derived fact tables the rules share:
//
//   * TypeFacts — identifier names that are only ever declared with unsigned
//     integer types across the whole scanned set, and functions whose every
//     scanned declaration returns such a type, and
//   * the status-registry closure (AugmentStatusRegistry) — a symbol whose
//     body forwards a callee's result (`return Callee(...)`) where Callee
//     returns Status/StatusOr is itself status-returning, transitively, so
//     `(void)wrapper()` is flagged even when the discard is N calls deep.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast.hpp"
#include "rules.hpp"

namespace myrtus::lint {

/// One parameter of a symbol: the declared name ("" when unnamed) and the
/// full declaration text ("std::uint64_t capacity_mb").
struct ParamInfo {
  std::string name;
  std::string text;
};

/// One function-like definition anywhere in the scanned set.
struct Symbol {
  std::string name;       // unqualified name (or lambda variable name)
  std::string qualified;  // "Class::Method" for out-of-line methods, == name
                          // otherwise
  std::size_t file_index = 0;
  std::size_t name_begin = 0;  // offset of the name in the file's code view
  std::size_t body_begin = 0;  // offset of the body '{'
  std::size_t body_end = 0;    // offset of the matching '}'
  int line = 0;
  std::vector<ParamInfo> params;
  std::string return_type;  // leading declaration text; "" for lambdas
  bool is_lambda = false;
};

/// One call site inside a scanned file: `name(args...)`, `obj.name(args...)`,
/// `ns::name(args...)`.
struct CallSite {
  std::size_t pos = 0;  // offset of the callee name
  int line = 0;
  int col = 0;
  std::string name;         // unqualified callee name
  bool member_call = false;  // reached through '.' or '->'
  int caller = -1;          // index of the innermost enclosing symbol, or -1
  /// Top-level argument spans (begin, end) in the file's code view.
  std::vector<std::pair<std::size_t, std::size_t>> args;
};

struct CallGraph {
  std::vector<Symbol> symbols;
  /// Unqualified name -> indexes into `symbols` (the overload set).
  std::map<std::string, std::vector<int>> by_name;
  /// Per-file call sites, parallel to the scanned file vector.
  std::vector<std::vector<CallSite>> file_calls;
  /// Per-symbol callee sets (indexes into `symbols`), deduplicated. Cycles
  /// (recursion, mutual recursion) are represented as-is; consumers must
  /// fixpoint, not recurse.
  std::vector<std::vector<int>> callees;

  /// All symbols a call by `name` may reach (the overload set). Empty when
  /// the name is not defined in the scanned set.
  const std::vector<int>& Resolve(const std::string& name) const;
};

/// Builds the symbol table and call graph over the whole scanned set.
/// `files` and `asts` are parallel arrays.
CallGraph BuildCallGraph(const std::vector<FileContext>& files,
                         const std::vector<FileAst>& asts);

/// Name-level type facts derived from every declaration in the scanned set.
struct TypeFacts {
  /// Identifier names (locals, params, fields) declared with an unsigned
  /// integer type somewhere and NEVER declared with a signed/floating type —
  /// the conservative cross-TU notion of "this name is unsigned".
  std::set<std::string> unsigned_names;
  /// Function names whose every scanned definition returns an unsigned
  /// integer type.
  std::set<std::string> unsigned_returning;
};

TypeFacts CollectTypeFacts(const std::vector<FileContext>& files,
                           const std::vector<FileAst>& asts,
                           const CallGraph& graph);

/// A "simple" expression operand: a numeric literal, or an identifier
/// chain (`a`, `obj.field_ms`, `ns::f(x)`, `ptr->cap_mb()[i]`) optionally
/// ending in a call. Anything with top-level operators is NOT simple and
/// parses as invalid — the interprocedural rules deliberately reason only
/// about operands they can read exactly.
struct Operand {
  std::size_t begin = 0;  // span in the code view
  std::size_t end = 0;
  std::string text;        // source of the span with whitespace removed
  std::string last_ident;  // trailing call's callee, else trailing field/var
  bool is_call = false;    // operand's final token is ')'
  bool is_literal = false;
  bool valid = false;
};

/// Parses the simple operand ending at (exclusive) `end_pos`, walking
/// backwards over trailing `()`/`[]` groups and `.`/`->`/`::` links.
Operand ParseOperandBackward(const std::string& code, std::size_t end_pos);

/// Parses the simple operand starting at/after `pos` (whitespace and
/// unary +/-/!/~ skipped), never reading past `limit`.
Operand ParseOperandForward(const std::string& code, std::size_t pos,
                            std::size_t limit);

/// Closes `status_fns` over the call graph: any symbol whose body contains a
/// top-level `return <callee>(...);` where `callee` is (transitively) status-
/// returning joins the registry under both its unqualified and lambda names.
/// This is what lets the plain status-discard check flag
/// `(void)wrapper()` when the wrapper merely forwards a Status it never
/// inspects.
void AugmentStatusRegistry(const std::vector<FileContext>& files,
                           const std::vector<FileAst>& asts,
                           const CallGraph& graph,
                           std::set<std::string>* status_fns);

/// Index of the innermost symbol (smallest body span) in `file_index` whose
/// body strictly contains `offset`, or -1 at class/namespace scope. The same
/// smallest-span resolution CallSite::caller uses, exposed for rules that
/// attribute arbitrary offsets (stores, lambda introducers) to a symbol.
int InnermostSymbolAt(const CallGraph& graph, std::size_t file_index,
                      std::size_t offset);

/// Offset of a declaration-shaped occurrence of `name` in [from, to) of the
/// code view, or npos. Declaration-shaped: the token is preceded by a
/// type-ish token ('&', '*', '>', or an identifier that is not a statement
/// keyword) and followed by '=' (not '=='), ';', ',', '{', '(' or a range-for
/// ':'. Structured bindings and macro-introduced names are a documented miss.
std::size_t FindLocalDeclaration(const std::string& code,
                                 const std::string& name, std::size_t from,
                                 std::size_t to);

}  // namespace myrtus::lint
