// Tests for opm_analyze (tools/analyze.*): the shared lexer's token and
// line classification, then one block per semantic pass — lock-order
// cycle detection, protocol taxonomy exhaustiveness, metrics-name
// consistency, layering — each driven by synthetic in-memory fixture
// trees (a deliberate lock cycle, an undocumented error kind, a
// misspelled-counter typo, a util → serve include), plus the baseline
// contract and the CLI exit-code contract.
//
// Fixture sources are raw string literals; as with test_lint.cpp, the
// analyzer must handle the fixtures' strings/comments correctly and must
// not trip over this file itself when opm_analyze scans tests/.

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
using opm::analyze::analyze_sources;

std::vector<std::string> keys(const Report& report) {
  std::vector<std::string> out;
  for (const Finding& f : report.findings) out.push_back(f.pass + "/" + f.key);
  return out;
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
  const Report report = analyze_sources(tree, {}, "lock-order");
  ASSERT_EQ(report.findings.size(), 1u) << testing::PrintToString(keys(report));
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
  EXPECT_TRUE(analyze_sources(tree, {}, "lock-order").findings.empty());
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
  const Report report = analyze_sources(tree, {}, "lock-order");
  ASSERT_EQ(report.findings.size(), 1u) << testing::PrintToString(keys(report));
  EXPECT_NE(report.findings[0].message.find("Router::Impl::pending_mutex"),
            std::string::npos);
}

// ---------------------------------------------------------- pass: protocol --

// A minimal healthy serve fixture: one kind, documented and tested.
std::vector<SourceFile> protocol_tree() {
  return {
      {"src/serve/protocol.hpp", "// taxonomy: \"overload\" \"redirect\"\n"},
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
  EXPECT_TRUE(analyze_sources(protocol_tree(), {}, "protocol").findings.empty());
}

TEST(Protocol, UndocumentedKindIsFlaggedOnEverySurface) {
  auto tree = protocol_tree();
  // A new kind constructed in code but added nowhere else.
  tree[1].content += "void die() { auto e = make_error(\"exploded\", \"boom\"); }\n";
  const Report report = analyze_sources(tree, {}, "protocol");
  ASSERT_EQ(report.findings.size(), 3u) << testing::PrintToString(keys(report));
  EXPECT_EQ(report.findings[0].key, "kind:exploded:docs");
  EXPECT_EQ(report.findings[1].key, "kind:exploded:taxonomy");
  EXPECT_EQ(report.findings[2].key, "kind:exploded:tests");
  EXPECT_EQ(report.findings[0].file, "src/serve/server.cpp");
  EXPECT_EQ(report.findings[0].line, 3u);
}

TEST(Protocol, PhantomComparisonAndDroppedRedirectHandling) {
  auto tree = protocol_tree();
  // The router compares against a kind nothing constructs (a typo), and
  // its redirect handling disappears.
  tree[2].content = "void route() { if (view.error.category == \"overlaod\") { } }\n";
  const Report report = analyze_sources(tree, {}, "protocol");
  const auto ks = keys(report);
  EXPECT_NE(std::find(ks.begin(), ks.end(), "protocol/kind:overlaod:phantom"), ks.end())
      << testing::PrintToString(ks);
  EXPECT_NE(std::find(ks.begin(), ks.end(), "protocol/kind:redirect:unhandled"), ks.end())
      << testing::PrintToString(ks);
}

TEST(Protocol, KindInsideCommentDoesNotCountAsConstruction) {
  auto tree = protocol_tree();
  // Prose mentioning the pattern must not register a kind.
  tree[1].content += "// err->category = \"imaginary\" would be wrong\n";
  EXPECT_TRUE(analyze_sources(tree, {}, "protocol").findings.empty());
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
  EXPECT_TRUE(analyze_sources(metrics_tree(), {}, "metrics").findings.empty());
}

TEST(Metrics, NearMissTypoIsFlagged) {
  auto tree = metrics_tree();
  tree[0].content += "void oops() { counter(\"lru.missses\").add(1); }\n";
  const Report report = analyze_sources(tree, {}, "metrics");
  ASSERT_EQ(report.findings.size(), 1u) << testing::PrintToString(keys(report));
  EXPECT_EQ(report.findings[0].key, "near-miss:lru.misses~lru.missses");
  EXPECT_EQ(report.findings[0].line, 3u);
}

TEST(Metrics, UndefinedReferenceFromBenchOrScriptIsFlagged) {
  auto tree = metrics_tree();
  tree[1].content = "double g() { return stats_counter(stats, \"lru.missed\"); }\n";
  tree.push_back({"scripts/ci.sh", "jq '.\"lru.evictions\"' < stats.json\n"});
  const Report report = analyze_sources(tree, {}, "metrics");
  const auto ks = keys(report);
  ASSERT_EQ(ks.size(), 2u) << testing::PrintToString(ks);
  EXPECT_EQ(ks[0], "metrics/name:lru.missed:undefined");
  EXPECT_EQ(ks[1], "metrics/name:lru.evictions:undefined");
  // Unknown namespaces (file names, JSON schema tags) are not metrics.
  auto quiet = metrics_tree();
  quiet.push_back({"scripts/ci.sh", "cp results/sim.json $tmp/other.thing\n"});
  EXPECT_TRUE(analyze_sources(quiet, {}, "metrics").findings.empty());
}

TEST(Metrics, MultiOwnerAndMalformedNamesAreFlagged) {
  auto tree = metrics_tree();
  tree.push_back({"src/serve/server.cpp",
                  "void h() { counter(\"lru.hits\").add(1); }\n"
                  "void bad() { counter(\"CacheHits\").add(1); }\n"});
  const Report report = analyze_sources(tree, {}, "metrics");
  const auto ks = keys(report);
  ASSERT_EQ(ks.size(), 2u) << testing::PrintToString(ks);
  EXPECT_EQ(ks[0], "metrics/name:lru.hits:multi-owner");
  EXPECT_EQ(ks[1], "metrics/name:CacheHits:format");
}

TEST(Metrics, ReadOnlyValueCallsAreReferencesNotDefinitions) {
  // A src/ read of an undefined counter is exactly the silent-zero bug.
  const std::vector<SourceFile> tree = {
      {"src/core/lru.cpp", "void h() { counter(\"lru.hits\").add(1); }\n"},
      {"src/core/report.cpp",
       "double r() { return counter(\"lru.hist\").value(); }\n"},
  };
  const Report report = analyze_sources(tree, {}, "metrics");
  const auto ks = keys(report);
  // Both the near-miss (hits~hist at distance 1... they differ by one
  // substitution) and the undefined read fire — either alone pins the bug.
  EXPECT_NE(std::find(ks.begin(), ks.end(), "metrics/name:lru.hist:undefined"), ks.end())
      << testing::PrintToString(ks);
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
  EXPECT_TRUE(analyze_sources(tree, {}, "metrics").findings.empty());
  // A truncated read of the error counter no longer resolves. (The bad
  // name is assembled at runtime: a metric-shaped literal here would be
  // an undefined reference in the repo's own self-scan below.)
  const std::string trunc = std::string("sim") + ".sampling_rel";
  auto typo = tree;
  typo[1].content = "double h() { return reg.double_counter(\"" + trunc + "\").value(); }\n";
  const auto ks = keys(analyze_sources(typo, {}, "metrics"));
  EXPECT_NE(std::find(ks.begin(), ks.end(), "metrics/name:" + trunc + ":undefined"), ks.end())
      << testing::PrintToString(ks);
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
  EXPECT_TRUE(analyze_sources(tree, {}, "metrics").findings.empty());
  // The protocol layer bumping the hit counter too would double count.
  auto twice = tree;
  twice.push_back({"src/serve/protocol.cpp",
                   "void hit() { reg.counter(\"serve.payload_hits\").add(1); }\n"});
  const auto ks = keys(analyze_sources(twice, {}, "metrics"));
  ASSERT_EQ(ks.size(), 1u) << testing::PrintToString(ks);
  EXPECT_EQ(ks[0], "metrics/name:serve.payload_hits:multi-owner");
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
  const Report report = analyze_sources(tree, {}, "layering");
  ASSERT_EQ(report.findings.size(), 1u) << testing::PrintToString(keys(report));
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
      {"tools/lint.cpp", "#include \"lexer.hpp\"\n"},
      {"tools/lexer.hpp", "#pragma once\n"},
  };
  EXPECT_TRUE(analyze_sources(tree, {}, "layering").findings.empty());
}

TEST(Layering, IncludeCycleIsFlaggedOnce) {
  const std::vector<SourceFile> tree = {
      {"src/core/a.hpp", "#pragma once\n#include \"core/b.hpp\"\n"},
      {"src/core/b.hpp", "#pragma once\n#include \"core/a.hpp\"\n"},
  };
  const Report report = analyze_sources(tree, {}, "layering");
  ASSERT_EQ(report.findings.size(), 1u) << testing::PrintToString(keys(report));
  EXPECT_NE(report.findings[0].key.find("cycle:"), std::string::npos);
  EXPECT_NE(report.findings[0].message.find("src/core/a.hpp"), std::string::npos);
  EXPECT_NE(report.findings[0].message.find("src/core/b.hpp"), std::string::npos);
}

// ---------------------------------------------------------------- baseline --

TEST(Baseline, SuppressesMatchedAndFlagsStaleEntries) {
  const std::vector<SourceFile> tree = {
      {"src/util/bad.cpp", "#include \"serve/protocol.hpp\"\n"},
      {"src/serve/protocol.hpp", "#pragma once\n"},
  };
  const Report plain = analyze_sources(tree, {}, "layering");
  ASSERT_EQ(plain.findings.size(), 1u);
  const std::string entry = plain.findings[0].pass + " " + plain.findings[0].key;

  // The matching entry absorbs the finding...
  const Report suppressed =
      analyze_sources(tree, "# grandfathered until PR 10\n" + entry + "\n", "layering");
  EXPECT_TRUE(suppressed.findings.empty()) << testing::PrintToString(keys(suppressed));
  EXPECT_EQ(suppressed.suppressed, 1u);

  // ...and an entry matching nothing is itself a finding, so the
  // baseline can only shrink.
  const Report stale =
      analyze_sources(tree, entry + "\nlayering include:gone->nowhere\n", "layering");
  ASSERT_EQ(stale.findings.size(), 1u) << testing::PrintToString(keys(stale));
  EXPECT_EQ(stale.findings[0].pass, "baseline");
  EXPECT_NE(stale.findings[0].key.find("stale:"), std::string::npos);
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
  EXPECT_EQ(opm::analyze::run({"--pass=nope", "x"}, out, err), 2);
  EXPECT_EQ(opm::analyze::run({(tree.root / "missing").string()}, out, err), 2);
}

TEST(AnalyzeCli, JsonFormatIsMachineReadable) {
  TempTree tree;
  tree.write("src/util/bad.cpp", "#include \"serve/x.hpp\"\n");
  std::ostringstream out, err;
  EXPECT_EQ(opm::analyze::run({"--format=json", (tree.root / "src").string()}, out, err), 1);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"findings\":["), std::string::npos);
  EXPECT_NE(json.find("\"pass\":\"layering\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\":0"), std::string::npos);
  EXPECT_EQ(json.find('\n'), json.size() - 1);  // one line, one object
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
