// Exercises myrtus_lint's interprocedural layer: the cross-TU symbol table
// and call graph (overloads, out-of-line methods, lambdas, recursion), the
// name-level type facts, the status-registry closure, the unsigned-underflow
// family over its fire/clean fixtures, glob suppression patterns, and the
// SARIF 2.1.0 rendering.
//
// Fixture "fire" files carry a `// FIRE:` marker on every line that must
// produce a finding; the tests assert the reported line set equals the
// marked line set, so fixture and rule can never drift apart silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "callgraph.hpp"
#include "lint.hpp"
#include "rules.hpp"
#include "util/json.hpp"

namespace myrtus::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(LINT_FIXTURES_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<Finding> LintFixture(const std::string& name,
                                 const std::string& as_path) {
  std::vector<FileContext> files;
  files.push_back(MakeFileContext(as_path, ReadFixture(name)));
  return RunRules(files, {});
}

/// 1-based lines of `source` carrying a `// FIRE` marker.
std::set<int> MarkedLines(const std::string& source) {
  std::set<int> lines;
  std::istringstream in(source);
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    ++n;
    if (line.find("// FIRE") != std::string::npos) lines.insert(n);
  }
  return lines;
}

std::set<int> RuleLines(const std::vector<Finding>& findings,
                        const std::string& rule) {
  std::set<int> lines;
  for (const Finding& f : findings) {
    if (f.rule == rule) lines.insert(f.line);
  }
  return lines;
}

std::size_t CountRule(const std::vector<Finding>& findings,
                      const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&rule](const Finding& f) { return f.rule == rule; }));
}

/// Builds the call graph over synthetic (path, source) pairs.
struct BuiltGraph {
  std::vector<FileContext> files;
  std::vector<FileAst> asts;
  CallGraph graph;
};

BuiltGraph BuildGraphFrom(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  BuiltGraph b;
  for (const auto& [path, text] : sources) {
    b.files.push_back(MakeFileContext(path, text));
  }
  for (const FileContext& f : b.files) b.asts.push_back(BuildFileAst(f));
  b.graph = BuildCallGraph(b.files, b.asts);
  return b;
}

int SymbolNamed(const CallGraph& g, const std::string& name) {
  const auto& set = g.Resolve(name);
  EXPECT_EQ(set.size(), 1u) << "expected exactly one symbol '" << name << "'";
  return set.empty() ? -1 : set[0];
}

// --- Call graph --------------------------------------------------------------

TEST(CallGraph, OverloadedFreeFunctionsShareTheName) {
  const BuiltGraph b = BuildGraphFrom({{"src/sim/overload.cpp",
                                        "int Scale(int x) { return x * 2; }\n"
                                        "double Scale(double x, double k) "
                                        "{ return x * k; }\n"}});
  const auto& set = b.graph.Resolve("Scale");
  ASSERT_EQ(set.size(), 2u);  // the whole overload set, by design
  EXPECT_EQ(b.graph.symbols[static_cast<std::size_t>(set[0])].params.size(),
            1u);
  EXPECT_EQ(b.graph.symbols[static_cast<std::size_t>(set[1])].params.size(),
            2u);
}

TEST(CallGraph, OutOfLineMethodRecordsQualifiedName) {
  const BuiltGraph b = BuildGraphFrom(
      {{"src/kb/widget.cpp",
        "void Widget::Grow(std::size_t extra_b) { reserve(extra_b); }\n"}});
  const int idx = SymbolNamed(b.graph, "Grow");
  ASSERT_GE(idx, 0);
  const Symbol& sym = b.graph.symbols[static_cast<std::size_t>(idx)];
  EXPECT_EQ(sym.name, "Grow");
  EXPECT_EQ(sym.qualified, "Widget::Grow");
  ASSERT_EQ(sym.params.size(), 1u);
  EXPECT_EQ(sym.params[0].name, "extra_b");
}

TEST(CallGraph, LambdaInNamedVariableBecomesASymbol) {
  const BuiltGraph b = BuildGraphFrom(
      {{"src/sim/lam.cpp",
        "void Run() {\n"
        "  const auto drain = [](int queue) { return queue; };\n"
        "  drain(3);\n"
        "}\n"}});
  const int idx = SymbolNamed(b.graph, "drain");
  ASSERT_GE(idx, 0);
  EXPECT_TRUE(b.graph.symbols[static_cast<std::size_t>(idx)].is_lambda);
  // The call through the variable resolves like any function call.
  const int run = SymbolNamed(b.graph, "Run");
  const auto& callees = b.graph.callees[static_cast<std::size_t>(run)];
  EXPECT_TRUE(std::find(callees.begin(), callees.end(), idx) != callees.end());
}

TEST(CallGraph, RecursionIsASelfEdge) {
  const BuiltGraph b = BuildGraphFrom(
      {{"src/sim/fib.cpp",
        "int Fib(int n) { return n < 2 ? n : Fib(n - 1) + Fib(n - 2); }\n"}});
  const int fib = SymbolNamed(b.graph, "Fib");
  const auto& callees = b.graph.callees[static_cast<std::size_t>(fib)];
  EXPECT_TRUE(std::find(callees.begin(), callees.end(), fib) != callees.end());
}

TEST(CallGraph, MutualRecursionFormsACycle) {
  const BuiltGraph b = BuildGraphFrom(
      {{"src/sim/parity.cpp",
        "bool IsOdd(int n);\n"
        "bool IsEven(int n) { return n == 0 ? true : IsOdd(n - 1); }\n"
        "bool IsOdd(int n) { return n == 0 ? false : IsEven(n - 1); }\n"}});
  const int even = SymbolNamed(b.graph, "IsEven");
  const int odd = SymbolNamed(b.graph, "IsOdd");
  const auto& even_callees = b.graph.callees[static_cast<std::size_t>(even)];
  const auto& odd_callees = b.graph.callees[static_cast<std::size_t>(odd)];
  EXPECT_TRUE(std::find(even_callees.begin(), even_callees.end(), odd) !=
              even_callees.end());
  EXPECT_TRUE(std::find(odd_callees.begin(), odd_callees.end(), even) !=
              odd_callees.end());
}

TEST(CallGraph, CallsResolveAcrossTranslationUnits) {
  const BuiltGraph b = BuildGraphFrom(
      {{"src/kb/store.cpp", "void Persist(int row) { (void)row; }\n"},
       {"src/sched/loop.cpp",
        "void Reconcile() { Persist(7); }\n"}});
  const int persist = SymbolNamed(b.graph, "Persist");
  const int reconcile = SymbolNamed(b.graph, "Reconcile");
  const auto& callees = b.graph.callees[static_cast<std::size_t>(reconcile)];
  EXPECT_TRUE(std::find(callees.begin(), callees.end(), persist) !=
              callees.end());
}

// --- Type facts --------------------------------------------------------------

TEST(TypeFacts, SignedDeclarationAnywhereVetoesTheName) {
  const BuiltGraph b = BuildGraphFrom(
      {{"src/sched/a.cpp",
        "void F() { std::uint64_t cap = 1; std::uint64_t used = 2; "
        "(void)cap; (void)used; }\n"},
       {"src/sim/b.cpp", "void G() { double cap = 0.5; (void)cap; }\n"}});
  const TypeFacts facts = CollectTypeFacts(b.files, b.asts, b.graph);
  // `used` is only ever unsigned; `cap` is double in another TU, so the
  // conservative by-name notion drops it (the documented FN envelope).
  EXPECT_TRUE(facts.unsigned_names.count("used") > 0);
  EXPECT_EQ(facts.unsigned_names.count("cap"), 0u);
}

TEST(TypeFacts, UnsignedReturningFunctions) {
  const BuiltGraph b = BuildGraphFrom(
      {{"src/sched/c.cpp",
        "std::uint64_t CapacityMb() { return 4096; }\n"
        "double LoadFrac() { return 0.5; }\n"}});
  const TypeFacts facts = CollectTypeFacts(b.files, b.asts, b.graph);
  EXPECT_TRUE(facts.unsigned_returning.count("CapacityMb") > 0);
  EXPECT_EQ(facts.unsigned_returning.count("LoadFrac"), 0u);
}

// --- Status-registry closure -------------------------------------------------

TEST(StatusRegistry, ClosesOverForwardingWrappersAndLambdas) {
  const BuiltGraph b = BuildGraphFrom(
      {{"src/net/fwd.cpp",
        "auto ForwardCommit() { return Commit(); }\n"
        "auto DoubleForward() { return ForwardCommit(); }\n"
        "void Use() { const auto retry = [] { return Commit(); }; retry(); }\n"}});
  std::set<std::string> status_fns = {"Commit"};
  AugmentStatusRegistry(b.files, b.asts, b.graph, &status_fns);
  EXPECT_TRUE(status_fns.count("ForwardCommit") > 0);
  EXPECT_TRUE(status_fns.count("DoubleForward") > 0);  // needs the fixpoint
  EXPECT_TRUE(status_fns.count("retry") > 0);
}

// --- Fixtures: interprocedural status-discard --------------------------------

TEST(InterprocStatusDiscard, FiresThroughForwardingWrappers) {
  const std::string source = ReadFixture("interproc_status_fire.cpp");
  const auto findings =
      LintFixture("interproc_status_fire.cpp", "src/net/interproc_fire.cpp");
  EXPECT_EQ(RuleLines(findings, "status-discard"), MarkedLines(source));
}

TEST(InterprocStatusDiscard, CleanWhenEveryStatusIsConsumed) {
  const auto findings =
      LintFixture("interproc_status_clean.cpp", "src/net/interproc_clean.cpp");
  EXPECT_EQ(CountRule(findings, "status-discard"), 0u) << findings[0].message;
}

// --- Fixtures: unsigned underflow --------------------------------------------

TEST(UnsignedUnderflow, FiresOnTheMemFreeLedgerWrapShape) {
  const std::string source = ReadFixture("unsigned_underflow_fire.cpp");
  const auto findings = LintFixture("unsigned_underflow_fire.cpp",
                                    "src/sched/underflow_fire.cpp");
  const std::set<int> marked = MarkedLines(source);
  ASSERT_EQ(marked.size(), 4u) << "fixture drifted";
  EXPECT_EQ(RuleLines(findings, "unsigned-underflow"), marked);
  // The headline case recommends the project clamp by name.
  bool recommends_subsat = false;
  for (const Finding& f : findings) {
    if (f.rule == "unsigned-underflow" &&
        f.message.find("util::SubSat(mem_capacity_mb(), mem_allocated_mb())") !=
            std::string::npos) {
      recommends_subsat = true;
    }
  }
  EXPECT_TRUE(recommends_subsat);
}

TEST(UnsignedUnderflow, CleanUnderEveryRecognizedGuardShape) {
  const auto findings = LintFixture("unsigned_underflow_clean.cpp",
                                    "src/sched/underflow_clean.cpp");
  EXPECT_EQ(CountRule(findings, "unsigned-underflow"), 0u)
      << findings[0].message;
}

// --- Suppressions: glob patterns ---------------------------------------------

TEST(Suppressions, PathPatternShapes) {
  // Exact.
  EXPECT_TRUE(PathPatternMatches("src/kb/store.cpp", "src/kb/store.cpp"));
  EXPECT_FALSE(PathPatternMatches("src/kb/store.cpp", "src/kb/store.hpp"));
  // Legacy trailing-'*' prefix crosses '/'.
  EXPECT_TRUE(PathPatternMatches("src/kb/*", "src/kb/deep/nested.cpp"));
  EXPECT_FALSE(PathPatternMatches("src/kb/*", "src/sched/loop.cpp"));
  // Glob: '*' stays within one path segment.
  EXPECT_TRUE(PathPatternMatches("src/sched/*.cpp", "src/sched/loop.cpp"));
  EXPECT_FALSE(PathPatternMatches("src/sched/*.cpp", "src/sched/sub/x.cpp"));
  EXPECT_FALSE(PathPatternMatches("src/sched/*.cpp", "src/sched/loop.hpp"));
  EXPECT_TRUE(PathPatternMatches("tools/*/main.cpp", "tools/lint/main.cpp"));
  // '?' matches exactly one non-'/' character.
  EXPECT_TRUE(PathPatternMatches("src/v?/a.cpp", "src/v2/a.cpp"));
  EXPECT_FALSE(PathPatternMatches("src/v?/a.cpp", "src/v22/a.cpp"));
  EXPECT_FALSE(PathPatternMatches("src?util.cpp", "src/util.cpp"));
}

TEST(Suppressions, GlobEntryMatchesFindings) {
  const auto parsed = ParseSuppressions(
      "unsigned-underflow tools/lint/*.cpp -- span offsets are monotone\n",
      "suppressions.txt");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  Finding hit;
  hit.rule = "unsigned-underflow";
  hit.file = "tools/lint/callgraph.cpp";
  hit.line = 42;
  EXPECT_TRUE(SuppressionMatches(parsed->front(), hit));
  Finding nested = hit;
  nested.file = "tools/lint/sub/x.cpp";  // '*' must not cross '/'
  EXPECT_FALSE(SuppressionMatches(parsed->front(), nested));
  Finding other_rule = hit;
  other_rule.rule = "status-discard";
  EXPECT_FALSE(SuppressionMatches(parsed->front(), other_rule));
}

TEST(Suppressions, ExactEntryShadowedByGlobIsRejected) {
  const auto bad = ParseSuppressions(
      "unsigned-underflow tools/lint/*.cpp -- span offsets are monotone\n"
      "unsigned-underflow tools/lint/cfg.cpp -- already covered above\n",
      "suppressions.txt");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("already covered"),
            std::string::npos);
  // A different rule with the same paths does not overlap.
  const auto ok = ParseSuppressions(
      "unsigned-underflow tools/lint/*.cpp -- span offsets are monotone\n"
      "status-discard tools/lint/cfg.cpp -- different rule, no overlap\n",
      "suppressions.txt");
  EXPECT_TRUE(ok.ok());
}

// --- SARIF -------------------------------------------------------------------

TEST(Sarif, RendersAValid210Log) {
  LintResult result;
  Finding with_col;
  with_col.rule = "unsigned-underflow";
  with_col.file = "src/sched/ledger.cpp";
  with_col.line = 12;
  with_col.col = 7;
  with_col.message = "unguarded unsigned subtraction";
  Finding line_only;
  line_only.rule = "pragma-once";
  line_only.file = "src/kb/store.hpp";
  line_only.line = 1;
  line_only.col = 0;
  line_only.message = "missing #pragma once";
  result.findings = {with_col, line_only};

  const auto parsed = util::Json::Parse(SarifReport(result));
  ASSERT_TRUE(parsed.ok());
  const util::Json& log = *parsed;
  EXPECT_EQ(log.at("version").as_string(), "2.1.0");
  EXPECT_NE(log.at("$schema").as_string().find("sarif-2.1.0"),
            std::string::npos);
  ASSERT_EQ(log.at("runs").items().size(), 1u);
  const util::Json& run = log.at("runs").items()[0];
  EXPECT_EQ(run.at("tool").at("driver").at("name").as_string(), "myrtus-lint");
  // Every rule the engine can emit is in the metadata table, fired or not.
  EXPECT_GE(run.at("tool").at("driver").at("rules").items().size(), 10u);
  ASSERT_EQ(run.at("results").items().size(), 2u);
  const util::Json& first = run.at("results").items()[0];
  EXPECT_EQ(first.at("ruleId").as_string(), "unsigned-underflow");
  EXPECT_EQ(first.at("level").as_string(), "error");
  const util::Json& loc =
      first.at("locations").items()[0].at("physicalLocation");
  EXPECT_EQ(loc.at("artifactLocation").at("uri").as_string(),
            "src/sched/ledger.cpp");
  EXPECT_EQ(loc.at("artifactLocation").at("uriBaseId").as_string(), "SRCROOT");
  EXPECT_EQ(loc.at("region").at("startLine").as_int(), 12);
  EXPECT_EQ(loc.at("region").at("startColumn").as_int(), 7);
  // Column-less findings omit startColumn rather than emitting 0.
  const util::Json& second_region = run.at("results")
                                        .items()[1]
                                        .at("locations")
                                        .items()[0]
                                        .at("physicalLocation")
                                        .at("region");
  EXPECT_FALSE(second_region.has("startColumn"));
}

}  // namespace
}  // namespace myrtus::lint
