// Exercises the capture-lifetime family (tools/lint/lifetime_rules.hpp): the
// deferred-sink registry (annotation seeds, structural member/container
// stores, the cross-TU fixpoint closure over the call graph), the three
// diagnostics over their marker-locked fire/clean fixtures, drain discharge
// (Run/RunUntil/Step and the Settle fixture idiom) with the inner-frame
// refusal, `deferred-capture-ok` waivers, SARIF severity tiers, and the
// --timings breakdown.
//
// Fixture "fire" files carry a `// FIRE` marker on every line that must
// produce a lifetime-family finding; the tests assert the reported line set
// equals the marked line set, so fixture and rule can never drift apart.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "callgraph.hpp"
#include "lifetime_rules.hpp"
#include "lint.hpp"
#include "rules.hpp"
#include "util/json.hpp"

namespace myrtus::lint {
namespace {

const char* const kLifetimeRules[] = {
    "deferred-ref-capture", "deferred-this-capture", "deferred-pointer-capture"};

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(LINT_FIXTURES_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
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

bool IsLifetimeRule(const std::string& rule) {
  return std::any_of(std::begin(kLifetimeRules), std::end(kLifetimeRules),
                     [&](const char* r) { return rule == r; });
}

std::set<int> LifetimeLines(const std::vector<Finding>& findings) {
  std::set<int> lines;
  for (const Finding& f : findings) {
    if (IsLifetimeRule(f.rule)) lines.insert(f.line);
  }
  return lines;
}

std::size_t CountRule(const std::vector<Finding>& findings,
                      const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&rule](const Finding& f) { return f.rule == rule; }));
}

struct Built {
  std::vector<FileContext> files;
  std::vector<FileAst> asts;
  CallGraph graph;
  DeferredSinkTable table;
};

Built BuildFrom(const std::vector<std::pair<std::string, std::string>>& srcs) {
  Built b;
  for (const auto& [path, text] : srcs) {
    b.files.push_back(MakeFileContext(path, text));
  }
  for (const FileContext& f : b.files) b.asts.push_back(BuildFileAst(f));
  b.graph = BuildCallGraph(b.files, b.asts);
  b.table = BuildDeferredSinkTable(b.files, b.asts, b.graph);
  return b;
}

Built BuildFixture(const std::string& name, const std::string& as_path) {
  return BuildFrom({{as_path, ReadFixture(name)}});
}

std::vector<Finding> Lifetime(const Built& b) {
  return CheckDeferredCaptureLifetime(b.files, b.asts, b.graph, b.table);
}

// --- deferred-sink registry --------------------------------------------------

TEST(DeferredSinkTable, SeedsCoverTheAnnotatedProjectSinks) {
  const Built b = BuildFrom({{"src/sim/empty.cpp", "int x = 0;\n"}});
  EXPECT_TRUE(b.table.IsSink("ScheduleAt", 1));
  EXPECT_TRUE(b.table.IsSink("SchedulePeriodic", 1));
  EXPECT_TRUE(b.table.IsSink("Subscribe", 2));
  EXPECT_TRUE(b.table.IsSink("Watch", 1));
  EXPECT_TRUE(b.table.IsSink("Call", 4));
  EXPECT_TRUE(b.table.IsSink("RegisterTarget", 1));
  EXPECT_TRUE(b.table.IsSink("RegisterTarget", 2));
  EXPECT_FALSE(b.table.IsSink("ScheduleAt", 0));
  EXPECT_FALSE(b.table.IsSink("ParallelFor", 1));
}

TEST(DeferredSinkTable, StructuralStoresClassifyCallbackParameters) {
  const Built b = BuildFixture("lifetime_fire.cpp", "src/sim/lf.cpp");
  // `pending_[token] = std::move(fn)` inside Enqueue marks its callback
  // parameter deferred without any seed entry.
  EXPECT_TRUE(b.table.IsSink("Enqueue", 1));
  EXPECT_FALSE(b.table.IsSink("Enqueue", 0));  // the int token is not one
}

TEST(DeferredSinkTable, ForwarderFixpointClosesOverTheCallGraph) {
  const Built b = BuildFixture("lifetime_fire.cpp", "src/sim/lf.cpp");
  EXPECT_TRUE(b.table.IsSink("DeferF", 1));  // one hop from ScheduleAt
  EXPECT_TRUE(b.table.IsSink("RelayF", 1));  // two hops
  EXPECT_FALSE(b.table.IsSink("DeferF", 0)); // the engine ref is not a sink
}

TEST(DeferredSinkTable, CollectsFunctionFieldsAndCallbackAliases) {
  const Built fire = BuildFixture("lifetime_fire.cpp", "src/sim/lf.cpp");
  EXPECT_EQ(fire.table.function_fields.count("on_bound"), 1u);
  const Built clean = BuildFixture("lifetime_clean.cpp", "src/sim/lc.cpp");
  EXPECT_EQ(clean.table.callback_aliases.count("FilterFn"), 1u);
}

TEST(DeferredSinkTable, ImmediateVetoesNeverBecomeSinks) {
  const Built b = BuildFixture("lifetime_clean.cpp", "src/sim/lc.cpp");
  // Pool::Run stores its job in a member yet joins before returning, and
  // ParallelFor invokes the body inline: both are vetoed by callee name.
  EXPECT_FALSE(b.table.IsSink("Run", 0));
  EXPECT_FALSE(b.table.IsSink("ParallelFor", 1));
  // FilterFn-typed parameters run inside the callee: vetoed by param type
  // even though SetFilter stores into a std::function field.
  EXPECT_FALSE(b.table.IsSink("SetFilter", 0));
}

// --- fixtures: marker-locked line sets ---------------------------------------

TEST(LifetimeFixtures, FireLineSetMatchesMarkersExactly) {
  const std::string source = ReadFixture("lifetime_fire.cpp");
  const Built b = BuildFrom({{"src/sim/lifetime_fire.cpp", source}});
  EXPECT_EQ(LifetimeLines(Lifetime(b)), MarkedLines(source));
}

TEST(LifetimeFixtures, FireSeveritiesSplitAcrossTheThreeRules) {
  const Built b = BuildFixture("lifetime_fire.cpp", "src/sim/lf.cpp");
  const std::vector<Finding> findings = Lifetime(b);
  EXPECT_EQ(CountRule(findings, "deferred-ref-capture"), 7u);
  EXPECT_EQ(CountRule(findings, "deferred-pointer-capture"), 2u);
  EXPECT_EQ(CountRule(findings, "deferred-this-capture"), 1u);
}

TEST(LifetimeFixtures, CleanFixtureProducesNoLifetimeFindings) {
  const std::string source = ReadFixture("lifetime_clean.cpp");
  const Built b = BuildFrom({{"src/sim/lifetime_clean.cpp", source}});
  const std::vector<Finding> findings = Lifetime(b);
  EXPECT_TRUE(findings.empty())
      << findings.size() << " unexpected finding(s), first: "
      << (findings.empty() ? "" : findings[0].message);
}

// --- cross-TU closure (the acceptance-criterion shape) -----------------------

TEST(LifetimeCrossTu, TwoHopForwarderChainAcrossFilesFlagsTheCaller) {
  const Built b = BuildFrom({
      {"src/sim/eng_x.cpp",
       "struct EngX { void ScheduleAt(long at, std::function<void()> fn); };\n"
       "void DeferA(EngX& eng, std::function<void()> fn) {\n"
       "  eng.ScheduleAt(1, std::move(fn));\n"
       "}\n"},
      {"src/kb/relay_b.cpp",
       "struct EngX;\n"
       "void DeferA(EngX& eng, std::function<void()> fn);\n"
       "void RelayB(EngX& eng, std::function<void()> fn) {\n"
       "  DeferA(eng, std::move(fn));\n"
       "}\n"},
      {"src/mirto/use_c.cpp",
       "struct EngX;\n"
       "void RelayB(EngX& eng, std::function<void()> fn);\n"
       "void UseC(EngX& eng) {\n"
       "  int hits = 0;\n"
       "  RelayB(eng, [&hits] { ++hits; });\n"
       "}\n"},
  });
  EXPECT_TRUE(b.table.IsSink("DeferA", 1));
  EXPECT_TRUE(b.table.IsSink("RelayB", 1));
  const std::vector<Finding> findings = Lifetime(b);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "deferred-ref-capture");
  EXPECT_EQ(findings[0].file, "src/mirto/use_c.cpp");
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("'&hits'"), std::string::npos);
}

// --- drain discharge ---------------------------------------------------------

TEST(LifetimeDischarge, DrainAfterRegistrationDischargesRunAndSettle) {
  const Built b = BuildFrom({{"src/sim/drain.cpp",
                              "struct Eng {\n"
                              "  void ScheduleAt(long at, std::function<void()> fn);\n"
                              "};\n"
                              "void NotDrained(Eng& eng) {\n"
                              "  int n = 0;\n"
                              "  eng.ScheduleAt(1, [&n] { ++n; });\n"
                              "}\n"
                              "void DrainedByRun(Eng& eng) {\n"
                              "  int n = 0;\n"
                              "  eng.ScheduleAt(1, [&n] { ++n; });\n"
                              "  eng.Run();\n"
                              "}\n"
                              "void DrainedBySettle(Eng& fix) {\n"
                              "  int n = 0;\n"
                              "  fix.ScheduleAt(1, [&n] { ++n; });\n"
                              "  fix.Settle();\n"
                              "}\n"}});
  const std::vector<Finding> findings = Lifetime(b);
  ASSERT_EQ(findings.size(), 1u) << "only the undrained registration fires";
  EXPECT_EQ(findings[0].line, 6);
}

TEST(LifetimeDischarge, RefusedWhenTheCaptureDiesWithAnInnerFrame) {
  const Built b = BuildFrom({{"src/sim/inner.cpp",
                              "struct Eng {\n"
                              "  void ScheduleAt(long at, std::function<void()> fn);\n"
                              "};\n"
                              "void Nested(Eng& eng) {\n"
                              "  eng.ScheduleAt(1, [&eng] {\n"
                              "    int inner = 0;\n"
                              "    eng.ScheduleAt(2, [&inner] { ++inner; });\n"
                              "  });\n"
                              "  eng.Run();\n"
                              "}\n"}});
  // The drain protects the outer frame's captures, but `inner` belongs to
  // the outer *lambda's* frame, which dies during the drain itself.
  const std::vector<Finding> findings = Lifetime(b);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("'&inner'"), std::string::npos);
}

// --- waivers -----------------------------------------------------------------

TEST(LifetimeWaivers, AnnotationWaivesOnlyTheNamedCapture) {
  const Built b = BuildFrom({{"src/sim/waive.cpp",
                              "struct Eng {\n"
                              "  void ScheduleAt(long at, std::function<void()> fn);\n"
                              "};\n"
                              "void Waived(Eng& eng) {\n"
                              "  int a = 0;\n"
                              "  int b = 0;\n"
                              "  // LINT: deferred-capture-ok(a) -- a outlives the engine\n"
                              "  eng.ScheduleAt(1, [&a, &b] { a += b; });\n"
                              "}\n"}});
  const std::vector<Finding> findings = Lifetime(b);
  ASSERT_EQ(findings.size(), 1u) << "the waiver must not leak onto '&b'";
  EXPECT_NE(findings[0].message.find("'&b'"), std::string::npos);
}

// --- this-capture scope discrimination ---------------------------------------

TEST(LifetimeThisCapture, OnlyUndrainedBlockScopedReceiversFire) {
  const Built b = BuildFrom({{"src/sim/recv.cpp",
                              "struct Eng {\n"
                              "  void ScheduleAt(long at, std::function<void()> fn);\n"
                              "};\n"
                              "class Gadget {\n"
                              " public:\n"
                              "  void Arm(Eng& eng) {\n"
                              "    eng.ScheduleAt(1, [this] { ++n_; });\n"
                              "  }\n"
                              " private:\n"
                              "  int n_ = 0;\n"
                              "};\n"
                              "void BlockScoped(Eng& eng) {\n"
                              "  {\n"
                              "    Gadget g;\n"
                              "    g.Arm(eng);\n"
                              "  }\n"
                              "}\n"
                              "void FunctionScoped(Eng& eng) {\n"
                              "  Gadget g;\n"
                              "  g.Arm(eng);\n"
                              "}\n"
                              "void BlockScopedDrained(Eng& eng) {\n"
                              "  {\n"
                              "    Gadget g;\n"
                              "    g.Arm(eng);\n"
                              "    eng.Run();\n"
                              "  }\n"
                              "}\n"}});
  const std::vector<Finding> findings = Lifetime(b);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "deferred-this-capture");
  EXPECT_EQ(findings[0].line, 15);
}

// --- SARIF metadata ----------------------------------------------------------

TEST(LifetimeSarif, RuleTableCarriesTheFamilyAndPointerTierIsWarning) {
  LintResult result;
  Finding pointer;
  pointer.file = "src/sim/x.cpp";
  pointer.line = 3;
  pointer.col = 7;
  pointer.rule = "deferred-pointer-capture";
  pointer.message = "stack address smuggled by value";
  Finding ref = pointer;
  ref.rule = "deferred-ref-capture";
  ref.message = "by-ref capture into deferred sink";
  result.findings = {pointer, ref};

  const auto parsed = util::Json::Parse(SarifReport(result));
  ASSERT_TRUE(parsed.ok());
  const util::Json& run = parsed->at("runs").items()[0];
  std::set<std::string> ids;
  for (const util::Json& rule : run.at("tool").at("driver").at("rules").items()) {
    ids.insert(rule.at("id").as_string());
  }
  for (const char* rule : kLifetimeRules) {
    EXPECT_EQ(ids.count(rule), 1u) << rule << " missing from SARIF metadata";
  }
  ASSERT_EQ(run.at("results").items().size(), 2u);
  EXPECT_EQ(run.at("results").items()[0].at("level").as_string(), "warning");
  EXPECT_EQ(run.at("results").items()[1].at("level").as_string(), "error");
}

// --- --timings ---------------------------------------------------------------

TEST(LifetimeTimings, BreakdownCoversEveryFamilyIncludingThisOne) {
  std::vector<FileContext> files;
  files.push_back(MakeFileContext("src/sim/lf.cpp",
                                  ReadFixture("lifetime_fire.cpp")));
  std::vector<FamilyTiming> timings;
  (void)RunRules(files, {}, &timings);
  std::set<std::string> families;
  for (const FamilyTiming& t : timings) {
    EXPECT_GE(t.ms, 0.0) << t.family;
    families.insert(t.family);
  }
  EXPECT_EQ(families.count("front-end"), 1u);
  EXPECT_EQ(families.count("lexical"), 1u);
  EXPECT_EQ(families.count("deferred-capture"), 1u);
  ASSERT_FALSE(timings.empty());
  EXPECT_EQ(timings.front().family, "front-end");
}

TEST(LifetimeTimings, NullTimingsPointerCollectsNothing) {
  std::vector<FileContext> files;
  files.push_back(MakeFileContext("src/sim/tiny.cpp", "int x = 0;\n"));
  // The default-arg path must stay valid for every existing caller.
  EXPECT_TRUE(RunRules(files, {}).empty());
}

}  // namespace
}  // namespace myrtus::lint
