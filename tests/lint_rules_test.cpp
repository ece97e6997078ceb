// Drives the myrtus_lint rule engine over the checked-in fixture files in
// tests/lint_fixtures/: one firing and one non-firing case per rule, plus
// lexer and suppression-parser unit coverage. Fixture sources are read from
// disk (LINT_FIXTURES_DIR) but analyzed under synthetic repo-relative paths
// so module/layer attribution can be chosen per case.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "lint.hpp"
#include "rules.hpp"

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

/// Lints one fixture as if it lived at `as_path` inside the repo.
std::vector<Finding> LintFixture(const std::string& name,
                                 const std::string& as_path,
                                 const std::vector<std::string>& allowlist = {}) {
  std::vector<FileContext> files;
  files.push_back(MakeFileContext(as_path, ReadFixture(name)));
  return RunRules(files, allowlist);
}

std::size_t CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&rule](const Finding& f) { return f.rule == rule; }));
}

// --- Lexer -------------------------------------------------------------------

TEST(LintLexer, BlanksCommentsAndLiteralsPreservingGeometry) {
  const std::string src =
      "int a = 1; // trailing std::rand()\n"
      "/* block\n   spanning lines with strcpy */\n"
      "const char* s = \"sprintf inside \\\" a string\";\n";
  const std::string code = StripCommentsAndStrings(src);
  ASSERT_EQ(code.size(), src.size());
  // Newlines survive in place so line numbers survive.
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i] == '\n') {
      EXPECT_EQ(code[i], '\n') << "at byte " << i;
    }
  }
  EXPECT_EQ(code.find("std::rand"), std::string::npos);
  EXPECT_EQ(code.find("strcpy"), std::string::npos);
  EXPECT_EQ(code.find("sprintf"), std::string::npos);
  EXPECT_NE(code.find("int a = 1;"), std::string::npos);
}

TEST(LintLexer, HandlesRawStringsAndDigitSeparators) {
  const std::string src =
      "auto r = R\"xy(mt19937 \"quoted\" )not-yet)xy\";\n"
      "int n = 1'000'000; char c = '\\'';\n"
      "int after = 2;\n";
  const std::string code = StripCommentsAndStrings(src);
  ASSERT_EQ(code.size(), src.size());
  EXPECT_EQ(code.find("mt19937"), std::string::npos);
  // The digit separator must not open a char literal and eat the rest.
  EXPECT_NE(code.find("1'000'000"), std::string::npos);
  EXPECT_NE(code.find("int after = 2;"), std::string::npos);
}

TEST(LintLexer, SplitLinesAddressesSourceLines) {
  const auto lines = SplitLines("a\nb\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_EQ(lines[2], "");
}

// --- determinism -------------------------------------------------------------

TEST(LintRules, DeterminismFiresOnEveryForbiddenSource) {
  const auto findings =
      LintFixture("determinism_fire.cpp", "src/sim/determinism_fire.cpp");
  // Wall clocks (x3), time(nullptr), clock(), random_device, mt19937 (x2),
  // srand, std::rand, std::thread, detach, std::async — at minimum.
  EXPECT_GE(CountRule(findings, "determinism"), 12u);
  // Each source fires on its own line, so no banned token hides behind
  // another's finding.
  const std::string source = ReadFixture("determinism_fire.cpp");
  for (const char* token :
       {"system_clock", "steady_clock", "high_resolution_clock",
        "time(nullptr)", "clock()", "random_device", "mt19937 ", "mt19937_64",
        "srand", "std::rand", "std::thread", "detach", "std::async"}) {
    const std::size_t pos = source.find(token);
    ASSERT_NE(pos, std::string::npos) << token;
    const int line = 1 + static_cast<int>(std::count(
                             source.begin(),
                             source.begin() + static_cast<std::ptrdiff_t>(pos),
                             '\n'));
    EXPECT_TRUE(std::any_of(findings.begin(), findings.end(),
                            [&](const Finding& f) {
                              return f.rule == "determinism" && f.line == line;
                            }))
        << token << " on line " << line;
  }
}

TEST(LintRules, DeterminismIgnoresCommentsStringsAndSanctionedSources) {
  const auto findings =
      LintFixture("determinism_clean.cpp", "src/sim/determinism_clean.cpp");
  EXPECT_EQ(CountRule(findings, "determinism"), 0u)
      << "first: " << (findings.empty() ? "" : findings[0].message);
}

TEST(LintRules, DeterminismRespectsPathAllowlist) {
  const auto findings = LintFixture(
      "determinism_fire.cpp", "bench/determinism_fire.cpp", {"bench/"});
  EXPECT_EQ(CountRule(findings, "determinism"), 0u);
}

TEST(LintRules, DeterminismFiresOnRawThreadingOutsideParallelRuntime) {
  const auto findings =
      LintFixture("determinism_thread_fire.cpp",
                  "src/sched/determinism_thread_fire.cpp",
                  {"src/util/parallel."});
  // std::thread (x3: vector decl, emplace loop's join target, detach case),
  // std::jthread, std::async — at minimum.
  EXPECT_GE(CountRule(findings, "determinism"), 4u);
}

TEST(LintRules, DeterminismAcceptsParallelRuntimeCallers) {
  // Consumers of ParallelFor/Map never name a thread primitive, so the
  // fixture must be clean even under an empty allowlist.
  const auto findings =
      LintFixture("determinism_thread_clean.cpp",
                  "src/sched/determinism_thread_clean.cpp");
  EXPECT_EQ(CountRule(findings, "determinism"), 0u)
      << "first: " << (findings.empty() ? "" : findings[0].message);
}

TEST(LintRules, DeterminismAllowsThreadsInsideParallelRuntime) {
  // The pool implementation itself is the one sanctioned std::thread user.
  const auto findings =
      LintFixture("determinism_thread_fire.cpp", "src/util/parallel.cpp",
                  {"src/util/parallel."});
  EXPECT_EQ(CountRule(findings, "determinism"), 0u);
}

TEST(LintRules, DeterminismSiteAnnotationWaivesOneLine) {
  std::vector<FileContext> files;
  files.push_back(MakeFileContext(
      "src/sim/annotated.cpp",
      "// LINT: allow(determinism, fixture: seeding doc example)\n"
      "auto t = std::chrono::steady_clock::now();\n"
      "\n"
      "\n"
      "\n"
      "auto u = std::chrono::steady_clock::now();\n"));
  const auto findings = RunRules(files, {});
  ASSERT_EQ(CountRule(findings, "determinism"), 1u);
  // Only the call outside the annotation's 3-line reach fires.
  EXPECT_EQ(findings[0].line, 6);
}

// --- layering ----------------------------------------------------------------

TEST(LintRules, LayeringFiresOnUpwardInclude) {
  const auto findings =
      LintFixture("layering_fire.cpp", "src/util/layering_fire.cpp");
  ASSERT_EQ(CountRule(findings, "layering"), 1u);
  const auto it = std::find_if(findings.begin(), findings.end(),
                               [](const Finding& f) { return f.rule == "layering"; });
  EXPECT_NE(it->message.find("sched"), std::string::npos);
}

TEST(LintRules, LayeringAcceptsDagEdgesAndIgnoresLiterals) {
  const auto findings =
      LintFixture("layering_clean.cpp", "src/sched/layering_clean.cpp");
  EXPECT_EQ(CountRule(findings, "layering"), 0u)
      << "first: " << (findings.empty() ? "" : findings[0].message);
}

// --- status-discard ----------------------------------------------------------

TEST(LintRules, StatusDiscardFiresOnBothDiscardForms) {
  const auto findings =
      LintFixture("status_discard_fire.cpp", "src/net/status_discard_fire.cpp");
  EXPECT_EQ(CountRule(findings, "status-discard"), 2u);
}

TEST(LintRules, StatusDiscardAcceptsAnnotatedAndNonStatusDiscards) {
  const auto findings = LintFixture("status_discard_clean.cpp",
                                    "src/net/status_discard_clean.cpp");
  EXPECT_EQ(CountRule(findings, "status-discard"), 0u)
      << "first: " << (findings.empty() ? "" : findings[0].message);
}

TEST(LintRules, StatusRegistrySpansTheWholeScannedSet) {
  // The callee is declared in one file and discarded in another: pass 1 must
  // collect Status-returning names globally, not per file.
  std::vector<FileContext> files;
  files.push_back(MakeFileContext(
      "src/net/decl.hpp", "#pragma once\nmyrtus::util::Status Flush();\n"));
  files.push_back(
      MakeFileContext("src/net/use.cpp", "void f() { (void)Flush(); }\n"));
  const auto findings = RunRules(files, {});
  EXPECT_EQ(CountRule(findings, "status-discard"), 1u);
}

// --- pragma-once -------------------------------------------------------------

TEST(LintRules, PragmaOnceFiresOnGuardlessHeader) {
  const auto findings =
      LintFixture("pragma_once_fire.hpp", "src/util/pragma_once_fire.hpp");
  EXPECT_EQ(CountRule(findings, "pragma-once"), 1u);
}

TEST(LintRules, PragmaOnceAcceptsCompliantHeaderAndSkipsSources) {
  EXPECT_EQ(CountRule(LintFixture("pragma_once_clean.hpp",
                                  "src/util/pragma_once_clean.hpp"),
                      "pragma-once"),
            0u);
  // .cpp files are exempt by definition.
  EXPECT_EQ(CountRule(LintFixture("hygiene_clean.cpp", "src/util/h.cpp"),
                      "pragma-once"),
            0u);
}

// --- hygiene-banned ----------------------------------------------------------

TEST(LintRules, HygieneFiresOnEveryBannedCall) {
  const auto findings =
      LintFixture("hygiene_fire.cpp", "src/util/hygiene_fire.cpp");
  // strcpy, strcat, sprintf, atoi, atof.
  EXPECT_EQ(CountRule(findings, "hygiene-banned"), 5u);
}

TEST(LintRules, HygieneIgnoresBoundedCallsCommentsAndSubstrings) {
  const auto findings =
      LintFixture("hygiene_clean.cpp", "src/util/hygiene_clean.cpp");
  EXPECT_EQ(CountRule(findings, "hygiene-banned"), 0u)
      << "first: " << (findings.empty() ? "" : findings[0].message);
}

// --- suppression parsing -----------------------------------------------------

TEST(LintSuppressions, ParsesRulePathLineAndReason) {
  auto parsed = ParseSuppressions(
      "# comment\n"
      "\n"
      "determinism bench/* -- timing harness\n"
      "status-discard src/net/transport.cpp:42 -- send acts like a timeout\n",
      "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].rule, "determinism");
  EXPECT_EQ((*parsed)[0].path_pattern, "bench/*");
  EXPECT_EQ((*parsed)[0].line, 0);
  EXPECT_EQ((*parsed)[1].line, 42);
  EXPECT_EQ((*parsed)[1].reason, "send acts like a timeout");
}

TEST(LintSuppressions, RejectsEntriesWithoutAReason) {
  EXPECT_FALSE(ParseSuppressions("determinism bench/*\n", "test").ok());
  EXPECT_FALSE(ParseSuppressions("determinism bench/* -- \n", "test").ok());
}

}  // namespace
}  // namespace myrtus::lint
