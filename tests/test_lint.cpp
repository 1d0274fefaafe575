// Tests for the opm_lint invariant checker (tools/lint.*): one block per
// rule ID, the allow() escape hatch, path scoping, and the CLI exit-code
// contract — plus a runtime smoke test of the annotated locking
// primitives (util::Mutex / MutexLock / CondVar) so the TSan CI job
// exercises the wrappers the whole codebase now locks through.
//
// Fixture sources are raw string literals; the scanner must treat the
// *fixture's* comments/strings correctly, and — just as important — must
// not trip over this file itself when opm_lint scans tests/.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"
#include "util/thread_safety.hpp"

namespace {

using opm::lint::Finding;
using opm::lint::check_paths;
using opm::lint::check_source;
using opm::lint::rules;

std::vector<std::string> rule_ids(const std::vector<Finding>& findings) {
  std::vector<std::string> ids;
  for (const Finding& f : findings) ids.push_back(f.rule);
  return ids;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings)
    if (f.rule == rule) return true;
  return false;
}

// ------------------------------------------------------------- rule table --

TEST(LintRules, TableListsEverySupportedRule) {
  const std::vector<std::string> expected = {"rng",           "thread-ownership",
                                             "float-print",   "guarded-mutex",
                                             "pragma-once",   "no-endl"};
  ASSERT_EQ(rules().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rules()[i].id, expected[i]);
    EXPECT_NE(std::string(rules()[i].summary), "");
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
  EXPECT_EQ(findings[0].rule, "guarded-mutex");
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
  EXPECT_EQ(findings[0].rule, "pragma-once");
  EXPECT_EQ(findings[0].line, 1u);

  EXPECT_TRUE(check_source("src/core/foo.hpp", "#pragma once\nstruct S {};\n").empty());
  EXPECT_TRUE(check_source("src/core/foo.cpp", "struct S {};\n").empty());
}

// ----------------------------------------------------------------- no-endl --

TEST(LintNoEndl, FlagsEndlInSrcOnly) {
  const std::string src = "void f() { std::cout << 1 << std::endl; }\n";
  const auto findings = check_source("src/core/foo.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-endl");
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
  EXPECT_EQ(findings[0].rule, "rng");

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
  EXPECT_EQ(findings[0].rule, "rng");
  EXPECT_EQ(findings[0].line, 8u);
}

// ------------------------------------------------------ directory walking --

class LintPathsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest runs each test case as its own process,
    // in parallel, and they must not stomp a shared fixture directory.
    dir_ = ::testing::TempDir() + "opm_lint_fixture_" +
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
  const auto findings = check_paths({dir_});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rng");
  EXPECT_NE(findings[0].file.find("dirty.cpp"), std::string::npos);
  EXPECT_EQ(findings[0].line, 1u);
}

TEST_F(LintPathsTest, MissingRootYieldsIoFinding) {
  const auto findings = check_paths({dir_ + "/does-not-exist"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "io");
  EXPECT_EQ(findings[0].line, 0u);
}

// ------------------------------------------------------ CLI exit contract --

int run_cli(const std::vector<std::string>& args, std::string* out_text = nullptr) {
  std::ostringstream out, err;
  const int rc = opm::lint::run(args, out, err);
  if (out_text) *out_text = out.str() + err.str();
  return rc;
}

TEST_F(LintPathsTest, ExitCodeContract) {
  std::string text;
  EXPECT_EQ(run_cli({dir_ + "/src/core/clean.cpp"}, &text), 0);
  EXPECT_NE(text.find("opm_lint: clean"), std::string::npos);

  EXPECT_EQ(run_cli({dir_}, &text), 1);
  EXPECT_NE(text.find("[rng]"), std::string::npos);
  EXPECT_NE(text.find("1 finding(s)"), std::string::npos);

  EXPECT_EQ(run_cli({}, &text), 2);            // usage: no paths
  EXPECT_EQ(run_cli({"--bogus-flag"}), 2);     // usage: unknown flag
  EXPECT_EQ(run_cli({dir_ + "/nope"}), 2);     // IO error surfaces as 2

  EXPECT_EQ(run_cli({"--list-rules"}, &text), 0);
  for (const auto& rule : rules())
    EXPECT_NE(text.find(rule.id), std::string::npos) << rule.id;
}

// ----------------------------------------- annotated primitives, at runtime --
//
// The annotated headers included at the top of this file double as the
// compile-time invariant: under clang, -Wthread-safety -Werror=thread-safety
// (enabled in the root CMakeLists when supported) proves every acquisition
// in them; under the TSan CI job this test exercises the same wrappers
// dynamically.

struct GuardedBox {
  opm::util::Mutex mu;
  opm::util::CondVar cv;
  int value OPM_GUARDED_BY(mu) = 0;
  bool ready OPM_GUARDED_BY(mu) = false;
};

TEST(ThreadSafetyPrimitives, MutexLockAndCondVarRoundTrip) {
  GuardedBox box;
  std::thread producer([&] {  // opm-lint: allow(thread-ownership) — exercising the raw primitives
    for (int i = 0; i < 10000; ++i) {
      opm::util::MutexLock lock(box.mu);
      ++box.value;
    }
    {
      opm::util::MutexLock lock(box.mu);
      box.ready = true;
    }
    box.cv.notify_all();
  });
  {
    opm::util::MutexLock lock(box.mu);
    while (!box.ready) box.cv.wait(box.mu);
    EXPECT_EQ(box.value, 10000);
  }
  producer.join();
}

TEST(ThreadSafetyPrimitives, TryLockReflectsContention) {
  opm::util::Mutex mu;
  bool acquired = false;
  if (mu.try_lock()) {
    acquired = true;
    mu.unlock();
  }
  EXPECT_TRUE(acquired);
}

TEST(ThreadSafetyPrimitives, WaitForTimesOutWithoutNotify) {
  GuardedBox box;
  opm::util::MutexLock lock(box.mu);
  // No producer: wait_for must return on its own (spurious wakeup or
  // timeout) rather than deadlock.
  box.cv.wait_for(box.mu, std::chrono::milliseconds(1));
  EXPECT_FALSE(box.ready);
}

TEST(ThreadSafetyPrimitives, PoolStillRunsThroughAnnotatedLocks) {
  opm::util::ThreadPool pool(2);
  std::atomic<int> hits{0};
  pool.parallel_for(0, 100, 1, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 100);
}

}  // namespace
