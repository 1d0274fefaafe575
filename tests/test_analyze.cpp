// Tests for opm_analyze (tools/analyze.*): the shared lexer's token and
// line classification, then one block per pass — the four cross-file
// passes (lock-order cycle detection, protocol taxonomy exhaustiveness,
// metrics-name consistency, layering), each driven by synthetic in-memory
// fixture trees (a deliberate lock cycle, an undocumented error kind, a
// misspelled-counter typo, a util → serve include), and the six per-file
// rules with their path scoping — plus the allow() marker, directory
// walking, and the CLI exit-code contract.
//
// Fixture sources are raw string literals; the analyzer must handle the
// fixtures' strings/comments correctly and must not trip over this file
// itself when opm_analyze scans tests/.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze.hpp"
#include "lexer.hpp"

namespace {

using opm::analyze::Finding;
using opm::analyze::Report;
using opm::analyze::SourceFile;
using opm::analyze::analyze_paths;
using opm::analyze::analyze_sources;
using opm::analyze::passes;

/// "[pass] message" per finding, for failure output.
std::string describe(const Report& report) {
  std::string out;
  for (const Finding& f : report.findings) out += "\n[" + f.pass + "] " + f.message;
  return out;
}

/// True when some finding of `pass` mentions `text`.
bool has(const Report& report, const std::string& pass, const std::string& text) {
  return std::any_of(report.findings.begin(), report.findings.end(), [&](const Finding& f) {
    return f.pass == pass && f.message.find(text) != std::string::npos;
  });
}

/// One file through every pass: the view the per-file rules are tested in.
std::vector<Finding> check_source(const std::string& path, const std::string& content) {
  return analyze_sources({{path, content}}).findings;
}

std::vector<std::string> rule_ids(const std::vector<Finding>& findings) {
  std::vector<std::string> ids;
  for (const Finding& f : findings) ids.push_back(f.pass);
  return ids;
}

// ------------------------------------------------------------ shared lexer --

TEST(Lexer, ClassifiesCommentsStringsAndCode) {
  const auto src = opm::lex::lex(
      "int a = 1; // trailing\n"
      "const char* s = \"quoted // not a comment\";\n"
      "/* block\n"
      "   spanning */ int b;\n");
  ASSERT_EQ(src.lines.size(), 5u);  // trailing newline yields an empty line
  EXPECT_NE(src.lines[0].code.find("int a"), std::string::npos);
  EXPECT_NE(src.lines[0].line_comment.find("trailing"), std::string::npos);
  EXPECT_EQ(src.lines[1].code.find("not a comment"), std::string::npos);
  EXPECT_NE(src.lines[1].strings.find("// not a comment"), std::string::npos);
  EXPECT_EQ(src.lines[2].code.find("block"), std::string::npos);
  EXPECT_NE(src.lines[3].code.find("int b"), std::string::npos);
}

TEST(Lexer, TokenizesIdentifiersNumbersAndRawStrings) {
  const auto src = opm::lex::lex(
      "double x = 1'000.5e-3;\n"
      "auto s = R\"delim(raw \"text\")delim\";\n");
  bool saw_number = false, saw_raw = false;
  for (const auto& t : src.tokens) {
    if (t.kind == opm::lex::TokenKind::kNumber && t.text == "1'000.5e-3") saw_number = true;
    if (t.kind == opm::lex::TokenKind::kString && t.text == "raw \"text\"") saw_raw = true;
  }
  EXPECT_TRUE(saw_number);
  EXPECT_TRUE(saw_raw);
}

TEST(Lexer, CapturesIncludesOutOfCodeText) {
  const auto src = opm::lex::lex(
      "#include <vector>\n"
      "#include \"core/sweep.hpp\"\n");
  ASSERT_EQ(src.includes.size(), 2u);
  EXPECT_TRUE(src.includes[0].angled);
  EXPECT_EQ(src.includes[0].path, "vector");
  EXPECT_FALSE(src.includes[1].angled);
  EXPECT_EQ(src.includes[1].path, "core/sweep.hpp");
  EXPECT_EQ(src.includes[1].line, 2u);
  // The path never leaks into code text (a "<time.h>" would otherwise
  // read as less-than / identifier / greater-than).
  EXPECT_EQ(src.lines[0].code.find("vector"), std::string::npos);
}

// -------------------------------------------------------- pass: lock-order --

TEST(LockOrder, DetectsCrossTuCycle) {
  // a.cpp takes A then B; b.cpp takes B then A — a classic ABBA deadlock
  // no single translation unit can see.
  const std::vector<SourceFile> tree = {
      {"src/core/a.cpp",
       "void fa() {\n"
       "  util::MutexLock la(mu_a);\n"
       "  util::MutexLock lb(mu_b);\n"
       "}\n"},
      {"src/core/b.cpp",
       "void fb() {\n"
       "  util::MutexLock lb(mu_b);\n"
       "  util::MutexLock la(mu_a);\n"
       "}\n"},
  };
  const Report report = analyze_sources(tree);
  ASSERT_EQ(report.findings.size(), 1u) << describe(report);
  EXPECT_EQ(report.findings[0].pass, "lock-order");
  EXPECT_NE(report.findings[0].message.find("cycle"), std::string::npos);
  EXPECT_NE(report.findings[0].message.find("mu_a"), std::string::npos);
}

TEST(LockOrder, SequentialScopesAndLambdasAreNotEdges) {
  const std::vector<SourceFile> tree = {
      // Sequential non-nested scopes: never held together.
      {"src/core/seq.cpp",
       "void f() {\n"
       "  { util::MutexLock la(mu_a); }\n"
       "  { util::MutexLock lb(mu_b); }\n"
       "}\n"},
      // A lambda body runs on another call stack; the capture-site lock
      // is not held inside it.
      {"src/core/lam.cpp",
       "void g() {\n"
       "  util::MutexLock lb(mu_b);\n"
       "  pool.submit([&] { util::MutexLock la(mu_a); });\n"
       "}\n"},
      // A→B in one function is fine on its own (consistent order).
      {"src/core/ok.cpp",
       "void h() {\n"
       "  util::MutexLock la(mu_a);\n"
       "  util::MutexLock lb(mu_b);\n"
       "}\n"},
  };
  EXPECT_TRUE(analyze_sources(tree).findings.empty());
}

TEST(LockOrder, PimplAcquisitionsUnifyAcrossSpellings) {
  // Inside Router::Impl methods the mutex is `pending_mutex`; in
  // out-of-line Router methods it is `impl_->pending_mutex`. Both must
  // canonicalize to the same lock, or real cycles through the pimpl
  // boundary would go unseen.
  const std::vector<SourceFile> tree = {
      {"src/serve/r.cpp",
       "struct Router::Impl {\n"
       "  void a() {\n"
       "    util::MutexLock l1(pending_mutex);\n"
       "    util::MutexLock l2(conns_mutex);\n"
       "  }\n"
       "};\n"
       "void Router::b() {\n"
       "  util::MutexLock l2(impl_->conns_mutex);\n"
       "  util::MutexLock l1(impl_->pending_mutex);\n"
       "}\n"},
  };
  const Report report = analyze_sources(tree);
  ASSERT_EQ(report.findings.size(), 1u) << describe(report);
  EXPECT_NE(report.findings[0].message.find("Router::Impl::pending_mutex"),
            std::string::npos);
}

// ---------------------------------------------------------- pass: protocol --

// A minimal healthy serve fixture: one kind, documented and tested.
std::vector<SourceFile> protocol_tree() {
  return {
      {"src/serve/protocol.hpp", "#pragma once\n// taxonomy: \"overload\" \"redirect\"\n"},
      {"src/serve/server.cpp",
       "void reject() { auto e = rejection(\"overload\", \"queue full\"); }\n"
       "void heal() { err->category = \"redirect\"; }\n"},
      {"src/serve/router.cpp",
       "void route() {\n"
       "  if (view.error.category == \"redirect\") { retry(); }\n"
       "}\n"},
      {"docs/MODEL.md", "## Errors\n`overload` and `redirect` are retryable.\n"},
      {"tests/test_serve.cpp",
       "TEST(T, K) { EXPECT_EQ(err.category, \"overload\"); check(\"redirect\"); }\n"},
  };
}

TEST(Protocol, CleanTaxonomyPasses) {
  EXPECT_TRUE(analyze_sources(protocol_tree()).findings.empty());
}

TEST(Protocol, UndocumentedKindIsFlaggedOnEverySurface) {
  auto tree = protocol_tree();
  // A new kind constructed in code but added nowhere else.
  tree[1].content += "void die() { auto e = make_error(\"exploded\", \"boom\"); }\n";
  const Report report = analyze_sources(tree);
  ASSERT_EQ(report.findings.size(), 3u) << describe(report);
  EXPECT_TRUE(has(report, "protocol", "undocumented in docs/MODEL.md"));
  EXPECT_TRUE(has(report, "protocol", "missing from the protocol.hpp taxonomy"));
  EXPECT_TRUE(has(report, "protocol", "never exercised"));
  for (const Finding& f : report.findings) {
    EXPECT_NE(f.message.find("\"exploded\""), std::string::npos) << f.message;
    EXPECT_EQ(f.file, "src/serve/server.cpp");
    EXPECT_EQ(f.line, 3u);
  }
}

TEST(Protocol, PhantomComparisonAndDroppedRedirectHandling) {
  auto tree = protocol_tree();
  // The router compares against a kind nothing constructs (a typo), and
  // its redirect handling disappears.
  tree[2].content = "void route() { if (view.error.category == \"overlaod\") { } }\n";
  const Report report = analyze_sources(tree);
  EXPECT_TRUE(has(report, "protocol", "\"overlaod\" which no serve source ever constructs"))
      << describe(report);
  EXPECT_TRUE(has(report, "protocol", "handling code never compares")) << describe(report);
}

TEST(Protocol, KindInsideCommentDoesNotCountAsConstruction) {
  auto tree = protocol_tree();
  // Prose mentioning the pattern must not register a kind.
  tree[1].content += "// err->category = \"imaginary\" would be wrong\n";
  EXPECT_TRUE(analyze_sources(tree).findings.empty());
}

// ----------------------------------------------------------- pass: metrics --

std::vector<SourceFile> metrics_tree() {
  return {
      {"src/core/lru.cpp",
       "void hit() { util::MetricsRegistry::instance().counter(\"lru.hits\").add(1); }\n"
       "void miss() { util::MetricsRegistry::instance().counter(\"lru.misses\").add(1); }\n"},
      {"bench/gate.cpp",
       "double g() { return stats_counter(stats, \"lru.misses\"); }\n"},
  };
}

TEST(Metrics, CleanNamesPass) {
  EXPECT_TRUE(analyze_sources(metrics_tree()).findings.empty());
}

TEST(Metrics, NearMissTypoIsFlagged) {
  auto tree = metrics_tree();
  tree[0].content += "void oops() { counter(\"lru.missses\").add(1); }\n";
  const Report report = analyze_sources(tree);
  ASSERT_EQ(report.findings.size(), 1u) << describe(report);
  EXPECT_TRUE(has(report, "metrics", "\"lru.misses\" and \"lru.missses\" differ by one edit"))
      << describe(report);
  EXPECT_EQ(report.findings[0].line, 3u);
}

TEST(Metrics, UndefinedReferenceFromBenchOrScriptIsFlagged) {
  auto tree = metrics_tree();
  tree[1].content = "double g() { return stats_counter(stats, \"lru.missed\"); }\n";
  tree.push_back({"scripts/ci.sh", "jq '.\"lru.evictions\"' < stats.json\n"});
  const Report report = analyze_sources(tree);
  ASSERT_EQ(report.findings.size(), 2u) << describe(report);
  EXPECT_EQ(report.findings[0].file, "bench/gate.cpp");
  EXPECT_EQ(report.findings[0].message.rfind("\"lru.missed\" looks like a lru.* metric", 0), 0u);
  EXPECT_EQ(report.findings[1].file, "scripts/ci.sh");
  EXPECT_EQ(report.findings[1].message.rfind("\"lru.evictions\" looks like", 0), 0u);
  // Unknown namespaces (file names, JSON schema tags) are not metrics.
  auto quiet = metrics_tree();
  quiet.push_back({"scripts/ci.sh", "cp results/sim.json $tmp/other.thing\n"});
  EXPECT_TRUE(analyze_sources(quiet).findings.empty());
}

TEST(Metrics, MultiOwnerAndMalformedNamesAreFlagged) {
  auto tree = metrics_tree();
  tree.push_back({"src/serve/server.cpp",
                  "void h() { counter(\"lru.hits\").add(1); }\n"
                  "void bad() { counter(\"CacheHits\").add(1); }\n"});
  const Report report = analyze_sources(tree);
  ASSERT_EQ(report.findings.size(), 2u) << describe(report);
  EXPECT_NE(report.findings[0].message.find("\"lru.hits\" is written from 2 files"),
            std::string::npos);
  EXPECT_NE(report.findings[1].message.find("\"CacheHits\" is not dotted lowercase"),
            std::string::npos);
}

TEST(Metrics, ReadOnlyValueCallsAreReferencesNotDefinitions) {
  // A src/ read of an undefined counter is exactly the silent-zero bug.
  const std::vector<SourceFile> tree = {
      {"src/core/lru.cpp", "void h() { counter(\"lru.hits\").add(1); }\n"},
      {"src/core/report.cpp",
       "double r() { return counter(\"lru.hist\").value(); }\n"},
  };
  const Report report = analyze_sources(tree);
  // Both the near-miss (hits~hist at distance 1... they differ by one
  // substitution) and the undefined read fire — either alone pins the bug.
  EXPECT_TRUE(has(report, "metrics", "\"lru.hist\" looks like")) << describe(report);
}

TEST(Metrics, SamplerCountersResolveAcrossOwnerAndReader) {
  // The PR-10 sampling counters mirror the real topology: defined once in
  // sim/window_sampler.cpp, read as sweep watermarks by core/sweep.cpp.
  // The cross-file read is exactly the silent-zero shape the pass guards.
  const std::vector<SourceFile> tree = {
      {"src/sim/window_sampler.cpp",
       "void f() { registry.counter(\"sim.sampled_windows\").add(1);\n"
       "  registry.double_counter(\"sim.sampling_rel_error\").add(e); }\n"},
      {"src/core/sweep.cpp",
       "bool g() { return reg.counter(\"sim.sampled_windows\").value() > 0; }\n"
       "double h() { return reg.double_counter(\"sim.sampling_rel_error\").value(); }\n"},
  };
  EXPECT_TRUE(analyze_sources(tree).findings.empty());
  // A truncated read of the error counter no longer resolves. (The bad
  // name is assembled at runtime: a metric-shaped literal here would be
  // an undefined reference in the repo's own self-scan below.)
  const std::string trunc = std::string("sim") + ".sampling_rel";
  auto typo = tree;
  typo[1].content = "double h() { return reg.double_counter(\"" + trunc + "\").value(); }\n";
  const Report report = analyze_sources(typo);
  EXPECT_TRUE(has(report, "metrics", "\"" + trunc + "\" looks like")) << describe(report);
}

TEST(Metrics, ServeHitPathCountersHaveOneOwner) {
  // The serve hit path mirrors the real topology: the dispatcher alone
  // counts leaders that computed and leaders answered from a payload
  // cache; the loadgen reads both back out of the stats request.
  const std::vector<SourceFile> tree = {
      {"src/serve/dispatcher.cpp",
       "Impl() : computed(reg.counter(\"serve.computed\")),\n"
       "         payload_hits(reg.counter(\"serve.payload_hits\")) {}\n"},
      {"bench/serve_loadgen.cpp",
       "auto c = stats_counter(s, \"serve\", \"serve.computed\");\n"
       "auto h = stats_counter(s, \"serve\", \"serve.payload_hits\");\n"},
  };
  EXPECT_TRUE(analyze_sources(tree).findings.empty());
  // The protocol layer bumping the hit counter too would double count.
  auto twice = tree;
  twice.push_back({"src/serve/protocol.cpp",
                   "void hit() { reg.counter(\"serve.payload_hits\").add(1); }\n"});
  const Report report = analyze_sources(twice);
  ASSERT_EQ(report.findings.size(), 1u) << describe(report);
  EXPECT_TRUE(has(report, "metrics", "\"serve.payload_hits\" is written from 2 files"));
}

// ---------------------------------------------------------- pass: layering --

TEST(Layering, UtilIncludingUpperLayerIsFlagged) {
  const std::vector<SourceFile> tree = {
      {"src/util/metrics.cpp",
       "#include \"util/metrics.hpp\"\n"
       "#include \"serve/protocol.hpp\"\n"},
      {"src/util/metrics.hpp", "#pragma once\n"},
      {"src/serve/protocol.hpp", "#pragma once\n"},
  };
  const Report report = analyze_sources(tree);
  ASSERT_EQ(report.findings.size(), 1u) << describe(report);
  EXPECT_EQ(report.findings[0].pass, "layering");
  EXPECT_EQ(report.findings[0].file, "src/util/metrics.cpp");
  EXPECT_EQ(report.findings[0].line, 2u);
  EXPECT_NE(report.findings[0].message.find("util/ must not include serve/"),
            std::string::npos);
}

TEST(Layering, AllowedEdgesAndSystemHeadersPass) {
  const std::vector<SourceFile> tree = {
      {"src/serve/server.cpp",
       "#include <vector>\n"
       "#include \"core/sweep.hpp\"\n"
       "#include \"util/metrics.hpp\"\n"},
      {"src/core/sweep.cpp", "#include \"sim/memory_system.hpp\"\n"},
      {"tools/analyze.cpp", "#include \"lexer.hpp\"\n"},
      {"tools/lexer.hpp", "#pragma once\n"},
  };
  EXPECT_TRUE(analyze_sources(tree).findings.empty());
}

TEST(Layering, IncludeCycleIsFlaggedOnce) {
  const std::vector<SourceFile> tree = {
      {"src/core/a.hpp", "#pragma once\n#include \"core/b.hpp\"\n"},
      {"src/core/b.hpp", "#pragma once\n#include \"core/a.hpp\"\n"},
  };
  const Report report = analyze_sources(tree);
  ASSERT_EQ(report.findings.size(), 1u) << describe(report);
  EXPECT_NE(report.findings[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(report.findings[0].message.find("src/core/a.hpp"), std::string::npos);
  EXPECT_NE(report.findings[0].message.find("src/core/b.hpp"), std::string::npos);
}

// ------------------------------------------------------------- rule table --

TEST(LintRules, TableListsEverySupportedRule) {
  const std::vector<std::string> expected = {"lock-order",    "protocol",
                                             "metrics",       "layering",
                                             "rng",           "thread-ownership",
                                             "float-print",   "guarded-mutex",
                                             "pragma-once",   "no-endl"};
  ASSERT_EQ(passes().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(passes()[i].id, expected[i]);
    EXPECT_NE(std::string(passes()[i].summary), "");
  }
}

// --------------------------------------------------------------------- rng --

TEST(LintRng, FlagsLibcRandomness) {
  const std::string src = R"(
int f() { return rand(); }
void g(unsigned s) { srand(s); }
long h() { return std::rand() + ::time(nullptr); }
int dev() { std::random_device rd; return rd(); }
)";
  const auto findings = check_source("src/core/foo.cpp", src);
  EXPECT_EQ(rule_ids(findings), std::vector<std::string>(5, "rng"));
}

TEST(LintRng, IgnoresLookalikes) {
  const std::string src = R"(
auto t = clock.now().time_since_epoch();
double w = wall_time();
int x = obj.rand();
int y = mytime::time(3);
// rand() in a comment is fine
const char* s = "rand() in a string is fine";
)";
  EXPECT_TRUE(check_source("src/core/foo.cpp", src).empty());
}

TEST(LintRng, ExemptsTheRngImplementation) {
  const std::string src = "int f() { std::random_device rd; return rd(); }\n";
  EXPECT_FALSE(check_source("src/core/foo.cpp", src).empty());
  EXPECT_TRUE(check_source("src/util/rng.cpp", src).empty());
  EXPECT_TRUE(check_source("src/util/rng.hpp", "#pragma once\nstd::random_device rd;\n").empty());
}

// -------------------------------------------------------- thread-ownership --

TEST(LintThreadOwnership, FlagsRawThreads) {
  const std::string src = R"(
std::thread t([] {});
std::jthread j([] {});
std::vector<std::thread> pool;
)";
  const auto findings = check_source("src/core/foo.cpp", src);
  EXPECT_EQ(rule_ids(findings),
            std::vector<std::string>(3, "thread-ownership"));
}

TEST(LintThreadOwnership, AllowsStaticMembersAndOwners) {
  const std::string src = "unsigned n = std::thread::hardware_concurrency();\n";
  EXPECT_TRUE(check_source("src/core/foo.cpp", src).empty());

  const std::string spawn = "std::thread t([] {});\n";
  EXPECT_TRUE(check_source("src/util/thread_pool.cpp", spawn).empty());
  EXPECT_TRUE(check_source("src/serve/server.cpp", spawn).empty());
  EXPECT_FALSE(check_source("src/core/sweep.cpp", spawn).empty());
}

// ------------------------------------------------------------- float-print --

TEST(LintFloatPrint, FlagsDecimalConversionsInSerializationPaths) {
  const std::string src = R"(
std::snprintf(buf, sizeof buf, "%f", v);
std::snprintf(buf, sizeof buf, "%.17g", v);
std::snprintf(buf, sizeof buf, "%-12.3E", v);
std::string s = std::to_string(v);
)";
  const auto findings = check_source("src/serve/protocol.cpp", src);
  EXPECT_EQ(rule_ids(findings), std::vector<std::string>(4, "float-print"));
}

TEST(LintFloatPrint, HexFloatAndEscapedPercentArePermitted) {
  const std::string src = R"(
std::snprintf(buf, sizeof buf, "%a", v);
std::snprintf(buf, sizeof buf, "100%% of %d", n);
)";
  EXPECT_TRUE(check_source("src/core/sweep.cpp", src).empty());
}

TEST(LintFloatPrint, OnlyAppliesToSerializationPaths) {
  const std::string src = "std::string s = std::to_string(v);\n";
  EXPECT_FALSE(check_source("src/core/result_cache.cpp", src).empty());
  EXPECT_FALSE(check_source("src/core/experiment.cpp", src).empty());
  EXPECT_TRUE(check_source("src/util/metrics.cpp", src).empty());
  EXPECT_TRUE(check_source("bench/serve_loadgen.cpp", src).empty());
}

TEST(LintFloatPrint, CoversAdvisePayloadsAndNamesTheOneFormatter) {
  const auto findings =
      check_source("src/advise/advise.cpp", "std::snprintf(buf, sizeof buf, \"%.3f\", v);\n");
  ASSERT_EQ(rule_ids(findings), std::vector<std::string>{"float-print"});
  EXPECT_NE(findings[0].message.find("util::hexf"), std::string::npos) << findings[0].message;
  // The hatch belongs on the line that holds the literal.
  const std::string human = R"(
std::snprintf(buf, sizeof buf, "%.1f GiB",  // opm-lint: allow(float-print) — human text
              v / 1e9);
)";
  EXPECT_TRUE(check_source("src/advise/advise.cpp", human).empty());
}

// ----------------------------------------------------------- guarded-mutex --

TEST(LintGuardedMutex, FlagsUnannotatedMutexMembers) {
  const std::string src = R"(
class Queue {
 public:
  void push(int v);
 private:
  std::mutex mutex;
  int depth = 0;
};
)";
  const auto findings = check_source("src/core/foo.hpp", "#pragma once\n" + src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].pass, "guarded-mutex");
}

TEST(LintGuardedMutex, AnnotatedClassesPass) {
  const std::string src = R"(#pragma once
struct Queue {
  util::Mutex mutex;
  int depth OPM_GUARDED_BY(mutex) = 0;
};
struct Wrapper {
  Mutex& mu_;
};
void local_scope() {
  std::mutex scratch;
}
)";
  EXPECT_TRUE(check_source("src/core/foo.hpp", src).empty());
}

TEST(LintGuardedMutex, OnlyAppliesUnderSrc) {
  const std::string src = R"(
struct Fixture {
  std::mutex mutex;
};
)";
  EXPECT_FALSE(check_source("src/core/foo.cpp", src).empty());
  EXPECT_TRUE(check_source("tests/test_foo.cpp", src).empty());
  EXPECT_TRUE(check_source("bench/foo.cpp", src).empty());
}

// ------------------------------------------------------------- pragma-once --

TEST(LintPragmaOnce, HeadersMustCarryIt) {
  const auto findings = check_source("src/core/foo.hpp", "struct S {};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].pass, "pragma-once");
  EXPECT_EQ(findings[0].line, 1u);

  EXPECT_TRUE(check_source("src/core/foo.hpp", "#pragma once\nstruct S {};\n").empty());
  EXPECT_TRUE(check_source("src/core/foo.cpp", "struct S {};\n").empty());
}

// ----------------------------------------------------------------- no-endl --

TEST(LintNoEndl, FlagsEndlInSrcOnly) {
  const std::string src = "void f() { std::cout << 1 << std::endl; }\n";
  const auto findings = check_source("src/core/foo.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].pass, "no-endl");
  EXPECT_TRUE(check_source("bench/foo.cpp", src).empty());
}

// ------------------------------------------------------------ escape hatch --

TEST(LintAllow, SuppressesExactlyTheNamedRules) {
  const std::string one =
      "int f() { return rand(); }  // opm-lint: allow(rng)\n";
  EXPECT_TRUE(check_source("src/core/foo.cpp", one).empty());

  const std::string multi =
      "std::thread t([] { srand(1); });  // opm-lint: allow(rng, thread-ownership)\n";
  EXPECT_TRUE(check_source("src/core/foo.cpp", multi).empty());

  const std::string wrong =
      "int f() { return rand(); }  // opm-lint: allow(no-endl)\n";
  EXPECT_FALSE(check_source("src/core/foo.cpp", wrong).empty());

  // The hatch is per-line: the next line is still checked.
  const std::string next_line =
      "int f() { return rand(); }  // opm-lint: allow(rng)\nint g() { return rand(); }\n";
  const auto findings = check_source("src/core/foo.cpp", next_line);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintAllow, MarkerInsideStringLiteralIsData) {
  // A marker spelled inside a string literal is content, not a
  // suppression — otherwise any file echoing lint syntax (this test!)
  // would silently disable its own checks.
  const std::string in_string =
      "const char* s = \"// opm-lint: allow(rng)\"; int x = rand();\n";
  const auto findings = check_source("src/core/foo.cpp", in_string);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].pass, "rng");

  const std::string in_raw =
      "const char* s = R\"(// opm-lint: allow(rng))\"; int x = rand();\n";
  EXPECT_EQ(check_source("src/core/foo.cpp", in_raw).size(), 1u);
}

TEST(LintAllow, MarkerInsideBlockCommentIsIgnored) {
  // Only the trailing line comment is a hatch; block comments are prose.
  const std::string block =
      "int x = rand(); /* opm-lint: allow(rng) */\n";
  ASSERT_EQ(check_source("src/core/foo.cpp", block).size(), 1u);

  // And a real line-comment hatch still works when a block comment also
  // sits on the line.
  const std::string both =
      "int x = rand(); /* noise */ // opm-lint: allow(rng)\n";
  EXPECT_TRUE(check_source("src/core/foo.cpp", both).empty());
}

TEST(LintAllow, LayeringMarkerSuppressesOnlyItsInclude) {
  // The marker is the one suppression mechanism for every pass: on an
  // offending #include it silences that cross-file layering finding, and
  // nothing else — not the next include, not another pass on its line.
  const std::vector<SourceFile> tree = {
      {"src/util/bad.cpp",
       "#include \"serve/protocol.hpp\"  // opm-lint: allow(layering) — documented edge\n"
       "#include \"serve/server.hpp\"\n"
       "int x = rand();  // opm-lint: allow(layering)\n"},
      {"src/serve/protocol.hpp", "#pragma once\n"},
      {"src/serve/server.hpp", "#pragma once\n"},
  };
  const Report report = analyze_sources(tree);
  ASSERT_EQ(report.findings.size(), 2u) << describe(report);
  EXPECT_EQ(report.findings[0].pass, "layering");
  EXPECT_EQ(report.findings[0].line, 2u);
  EXPECT_EQ(report.findings[1].pass, "rng");
  EXPECT_EQ(report.findings[1].line, 3u);
}

// ----------------------------------------------------- lexer corner cases --

TEST(LintLexer, CommentsStringsAndRawStringsAreNotCode) {
  const std::string src = R"XX(
// std::thread t; rand();
/* std::endl
   srand(7); */
const char* a = "rand() and std::endl";
const char* b = R"(std::thread inside raw string; rand();)";
char c = '"';
int after_char_literal = rand();
)XX";
  const auto findings = check_source("src/core/foo.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].pass, "rng");
  EXPECT_EQ(findings[0].line, 8u);
}

// ------------------------------------------------------ directory walking --

class LintPathsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest runs each test case as its own process,
    // in parallel, and they must not stomp a shared fixture directory.
    dir_ = ::testing::TempDir() + "opm_analyze_rules_fixture_" +
           std::to_string(static_cast<long>(::getpid()));
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_ + "/src/core");
    write(dir_ + "/src/core/clean.cpp", "int f() { return 1; }\n");
    write(dir_ + "/src/core/dirty.cpp", "int f() { return rand(); }\n");
    write(dir_ + "/src/core/notes.txt", "rand() in a txt file is not scanned\n");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  static void write(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  std::string dir_;
};

TEST_F(LintPathsTest, WalksOnlyCxxSourcesAndReportsSortedFindings) {
  const auto findings = analyze_paths({dir_}).findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].pass, "rng");
  EXPECT_NE(findings[0].file.find("dirty.cpp"), std::string::npos);
  EXPECT_EQ(findings[0].line, 1u);
}

TEST_F(LintPathsTest, MissingRootYieldsIoFinding) {
  const auto findings = analyze_paths({dir_ + "/does-not-exist"}).findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].pass, "io");
  EXPECT_EQ(findings[0].line, 0u);
}

TEST_F(LintPathsTest, ScopeIsRelativeToTheScanRootNotItsSpelling) {
  // One tree named three ways: through a path that passes src/, and from
  // inside it. Rules scope by the path relative to the scan root (root
  // name kept), so tests/t.cpp is never "in src" and only rng fires.
  const std::string ck = dir_ + "/src/ck";
  std::filesystem::create_directories(ck + "/tests");
  write(ck + "/tests/t.cpp",
        "#include <iostream>\n"
        "void f() { std::cout << 1 << std::endl; }\n"
        "int g() { return rand(); }\n");
  const auto through_src = analyze_paths({ck + "/tests"}).findings;
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(ck);
  const auto from_inside = analyze_paths({"tests"}).findings;
  const auto dot_slash = analyze_paths({"./tests/"}).findings;
  std::filesystem::current_path(cwd);

  // Findings are reported under the path as given; past that prefix they
  // must be identical.
  const auto strip = [](std::vector<Finding> found, const std::string& prefix) {
    for (Finding& f : found) {
      EXPECT_EQ(f.file.rfind(prefix, 0), 0u) << f.file;
      f.file = f.file.substr(prefix.size());
    }
    return found;
  };
  ASSERT_EQ(through_src.size(), 1u);
  EXPECT_EQ(through_src[0].pass, "rng");
  EXPECT_EQ(through_src[0].line, 3u);
  EXPECT_EQ(strip(through_src, ck + "/"), from_inside);
  EXPECT_EQ(strip(dot_slash, "./"), from_inside);
}

// ------------------------------------------------------ CLI exit contract --

int run_cli(const std::vector<std::string>& args, std::string* out_text = nullptr) {
  std::ostringstream out, err;
  const int rc = opm::analyze::run(args, out, err);
  if (out_text) *out_text = out.str() + err.str();
  return rc;
}

TEST_F(LintPathsTest, ExitCodeContract) {
  std::string text;
  EXPECT_EQ(run_cli({dir_ + "/src/core/clean.cpp"}, &text), 0);
  EXPECT_NE(text.find("opm_analyze: clean"), std::string::npos);

  EXPECT_EQ(run_cli({dir_}, &text), 1);
  EXPECT_NE(text.find("[rng]"), std::string::npos);
  EXPECT_NE(text.find("1 finding(s)"), std::string::npos);

  EXPECT_EQ(run_cli({}, &text), 2);            // usage: no paths
  EXPECT_EQ(run_cli({"--bogus-flag"}), 2);     // usage: unknown flag
  EXPECT_EQ(run_cli({dir_ + "/nope"}), 2);     // IO error surfaces as 2

  EXPECT_EQ(run_cli({"--list-passes"}, &text), 0);
  for (const auto& pass : passes())
    EXPECT_NE(text.find(pass.id), std::string::npos) << pass.id;
}

// --------------------------------------------------------------------- CLI --

struct TempTree {
  std::filesystem::path root;
  TempTree() {
    root = std::filesystem::temp_directory_path() /
           ("opm_analyze_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root / "src/util");
    std::filesystem::create_directories(root / "src/serve");
  }
  ~TempTree() { std::filesystem::remove_all(root); }
  void write(const std::string& rel, const std::string& content) {
    std::ofstream(root / rel) << content;
  }
};

TEST(AnalyzeCli, ExitContractCleanFindingsUsage) {
  TempTree tree;
  tree.write("src/util/a.cpp", "int x = 0;\n");
  std::ostringstream out, err;

  EXPECT_EQ(opm::analyze::run({(tree.root / "src").string()}, out, err), 0);
  EXPECT_NE(out.str().find("opm_analyze: clean"), std::string::npos);

  tree.write("src/util/bad.cpp", "#include \"serve/x.hpp\"\n");
  out.str("");
  EXPECT_EQ(opm::analyze::run({(tree.root / "src").string()}, out, err), 1);
  EXPECT_NE(out.str().find("[layering]"), std::string::npos);

  EXPECT_EQ(opm::analyze::run({}, out, err), 2);
  EXPECT_EQ(opm::analyze::run({"--format=yaml", "x"}, out, err), 2);
  EXPECT_EQ(opm::analyze::run({"--bogus-flag", "x"}, out, err), 2);
  EXPECT_EQ(opm::analyze::run({(tree.root / "missing").string()}, out, err), 2);
}

TEST(AnalyzeCli, ListPassesNamesAllFour) {
  std::ostringstream out, err;
  EXPECT_EQ(opm::analyze::run({"--list-passes"}, out, err), 0);
  for (const char* id : {"lock-order", "protocol", "metrics", "layering"})
    EXPECT_NE(out.str().find(id), std::string::npos) << id;
}

// ------------------------------------------------------------- self-check --
//
// The repo's own tree must be clean: the same invocation ci.sh runs.
// (Run from the build directory; skip quietly when the sources are not
// where a source build puts them.)

TEST(AnalyzeSelf, RepoTreeIsClean) {
  const std::filesystem::path repo = std::filesystem::path(OPM_SOURCE_DIR);
  if (!std::filesystem::exists(repo / "src")) GTEST_SKIP();
  std::vector<std::string> roots;
  for (const char* r : {"src", "tools", "bench", "tests"})
    roots.push_back((repo / r).string());
  for (const char* f : {"docs/MODEL.md", "scripts/ci.sh"})
    if (std::filesystem::exists(repo / f)) roots.push_back((repo / f).string());
  std::ostringstream out, err;
  const int rc = opm::analyze::run(roots, out, err);
  EXPECT_EQ(rc, 0) << out.str();
}

}  // namespace
