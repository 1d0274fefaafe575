#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

/// opm_analyze — the project's one static-analysis tool (docs/MODEL.md §15).
///
/// The repo's determinism and concurrency disciplines are mostly social
/// contracts ("seeded RNG only", "canonical %a serialization", "every
/// mutex-protected field is annotated", "util stays at the bottom").
/// opm_analyze makes them mechanical: it lexes every source with the
/// shared tokenizer (tools/lexer.*), needs no compiler, and runs in
/// milliseconds — so it sits *before* the sanitizer build matrix and
/// fails fast. Ten passes, by stable ID; the first four are cross-file,
/// the last six check one C++ file at a time:
///
///   lock-order   harvest util::MutexLock acquisition scopes across all
///                annotated files, build the global lock-order graph
///                (edge A→B when B is acquired while A is held), and fail
///                on cycles — static deadlock detection for ALL
///                interleavings, complementing TSan which only sees the
///                interleavings a test happens to exercise
///   protocol     the serve error-kind taxonomy must be exhaustive: every
///                kind constructed in src/serve must appear in the
///                protocol.hpp taxonomy comment, in docs/MODEL.md, and in
///                a string literal of tests/test_serve.cpp or
///                tests/test_router.cpp; every kind the router/loadgen
///                compare against must actually exist; the router must
///                handle "redirect"
///   metrics      every dotted counter name is well-formed, written by
///                exactly one src/ file (its owner), never a near-miss
///                (edit distance 1) of a sibling, and every name
///                referenced from bench gates, tools, tests, or
///                scripts/ci.sh resolves to a defined counter — catching
///                "cache.missses"-style typos that today read as zero
///   layering     include-graph construction with file-level cycle
///                detection and the architecture rules enforced
///                (util includes only util; sim never core/serve/advise;
///                core never serve/advise; advise never serve; src never
///                bench/tests/tools/examples)
///   rng          rand()/srand()/std::random_device/time() outside
///                util/rng — results must come from seeded generators
///   thread-ownership  raw std::thread/std::jthread outside
///                util/thread_pool and src/serve
///   float-print  %f/%e/%g conversions or std::to_string in canonical
///                serialization paths (must use util::hexf, the one
///                %a formatter)
///   guarded-mutex  a class declaring a mutex member with no
///                OPM_GUARDED_BY field in the same class
///   pragma-once  every header starts its life with #pragma once
///   no-endl      std::endl in src/ hot paths (use "\n")
///
/// One suppression mechanism, for every pass: a finding is dropped when
/// the trailing line comment of its line names the pass,
///
///     do_risky_thing();  // opm-lint: allow(pass-id[,pass-id...]) — why
///
/// A marker spelled inside a string literal or a block comment is data.
///
/// Exit contract (same as opm_benchdiff): 0 clean, 1 findings, 2
/// usage/IO error.
namespace opm::analyze {

struct Finding {
  std::string file;     ///< path as scanned
  std::size_t line;     ///< 1-based; 0 = whole-file / cross-file
  std::string pass;     ///< a passes() ID, or "io"
  std::string message;

  bool operator==(const Finding&) const = default;
};

struct PassInfo {
  const char* id;
  const char* summary;
};

/// The pass table, in execution order (stable IDs; docs/MODEL.md §15).
const std::vector<PassInfo>& passes();

/// One input file. Non-C++ paths (docs/MODEL.md, scripts/ci.sh) take part
/// as reference text only: the protocol pass looks kinds up in MODEL.md,
/// the metrics pass scans ci.sh for dotted counter names, and no per-file
/// rule lints them.
struct SourceFile {
  std::string path;
  std::string content;
};

/// Per-pass wall time + finding count for the CI job summary.
struct PassTiming {
  std::string pass;
  double seconds = 0.0;
  std::size_t findings = 0;
};

struct Report {
  std::vector<Finding> findings;    ///< after allow() markers, sorted
  std::vector<PassTiming> timing;   ///< one entry per pass
};

/// Runs every pass over in-memory sources.
Report analyze_sources(const std::vector<SourceFile>& sources);

/// Loads *.hpp/*.h/*.cpp/*.cc under the roots (files or directories,
/// sorted for determinism) plus any explicitly-listed non-C++ files, then
/// analyzes. Unreadable paths produce "io" findings.
Report analyze_paths(const std::vector<std::string>& roots);

/// CLI entry point (main() is a one-liner around this):
///   opm_analyze [--list-passes] <path>...
/// Prints file:line: [pass] message lines, per-pass timing, and a
/// summary. Exit: 0 clean, 1 findings, 2 usage/IO error.
int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace opm::analyze
