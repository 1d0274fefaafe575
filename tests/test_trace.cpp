#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_set>
#include <vector>

#include "sim/cache.hpp"
#include "trace/recorder.hpp"
#include "trace/reuse.hpp"
#include "util/rng.hpp"

namespace opm::trace {
namespace {

TEST(Reuse, ColdMissesCounted) {
  ReuseDistanceAnalyzer a;
  a.touch(0, 8);
  a.touch(64, 8);
  a.touch(128, 8);
  EXPECT_EQ(a.cold_misses(), 3u);
  EXPECT_EQ(a.accesses(), 3u);
  EXPECT_EQ(a.distinct_lines(), 3u);
}

TEST(Reuse, ImmediateReuseHasDistanceZero) {
  ReuseDistanceAnalyzer a;
  a.touch(0, 8);
  a.touch(8, 8);  // same line
  ASSERT_EQ(a.histogram().size(), 1u);
  EXPECT_EQ(a.histogram().begin()->first, 0u);
}

TEST(Reuse, DistanceCountsDistinctInterveningLines) {
  ReuseDistanceAnalyzer a;
  // A B C B A: A's reuse sees {B, C} -> distance 2; B's sees {C} -> 1.
  a.touch(0, 8);
  a.touch(64, 8);
  a.touch(128, 8);
  a.touch(64, 8);
  a.touch(0, 8);
  const auto& h = a.histogram();
  EXPECT_EQ(h.at(1), 1u);
  EXPECT_EQ(h.at(2), 1u);
}

TEST(Reuse, RepeatedLinesDontInflateDistance) {
  ReuseDistanceAnalyzer a;
  // A B B B A: only one distinct line between the A's.
  a.touch(0, 8);
  for (int i = 0; i < 3; ++i) a.touch(64, 8);
  a.touch(0, 8);
  EXPECT_EQ(a.histogram().at(1), 1u);
}

TEST(Reuse, MissLinesAtCapacity) {
  ReuseDistanceAnalyzer a;
  // Cyclic sweep over 4 lines, 3 rounds.
  for (int r = 0; r < 3; ++r)
    for (std::uint64_t i = 0; i < 4; ++i) a.touch(i * 64, 8);
  // Fully associative with >= 4 lines: only 4 cold misses.
  EXPECT_EQ(a.miss_lines(4), 4u);
  // With 3 lines: LRU thrashes, everything misses.
  EXPECT_EQ(a.miss_lines(3), 12u);
}

TEST(Reuse, MissBytesConsistentWithLines) {
  ReuseDistanceAnalyzer a;
  for (std::uint64_t i = 0; i < 10; ++i) a.touch(i * 64, 8);
  EXPECT_EQ(a.miss_bytes(64 * 100), 10u * 64);
  EXPECT_NEAR(a.hit_rate(64 * 100), 0.0, 1e-12);  // all cold
}

TEST(Reuse, MultiLineTouchExpands) {
  ReuseDistanceAnalyzer a;
  a.touch(0, 256);  // 4 lines
  EXPECT_EQ(a.accesses(), 4u);
  EXPECT_EQ(a.cold_misses(), 4u);
}

TEST(Reuse, RejectsBadLineSize) {
  EXPECT_THROW(ReuseDistanceAnalyzer(48), std::invalid_argument);
  EXPECT_THROW(ReuseDistanceAnalyzer(0), std::invalid_argument);
}

/// Property: for any random trace, the reuse-distance miss count at
/// capacity C must exactly equal a fully associative LRU cache of C lines.
class ReuseVsCacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReuseVsCacheProperty, MatchesFullyAssociativeLru) {
  util::Xoshiro256 rng(GetParam());
  ReuseDistanceAnalyzer analyzer;
  std::vector<std::uint64_t> trace;
  for (int i = 0; i < 3000; ++i) {
    // Mix of sequential runs and random jumps for realistic structure.
    if (rng.uniform() < 0.3) {
      const std::uint64_t base = rng.bounded(128) * 64;
      for (int k = 0; k < 4; ++k) trace.push_back(base + 64 * k);
    } else {
      trace.push_back(rng.bounded(200) * 64);
    }
  }
  for (auto addr : trace) analyzer.touch(addr, 8);

  for (std::uint32_t lines : {4u, 16u, 64u, 128u}) {
    sim::SetAssociativeCache cache(
        {.name = "fa", .capacity = static_cast<std::uint64_t>(lines) * 64, .line_size = 64,
         .associativity = lines});
    for (auto addr : trace) cache.access(addr, false);
    EXPECT_EQ(analyzer.miss_lines(lines), cache.stats().misses) << "capacity " << lines;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReuseVsCacheProperty, ::testing::Values(11, 22, 33, 44, 55));

TEST(Reuse, MissCurveMonotoneNonIncreasing) {
  util::Xoshiro256 rng(99);
  ReuseDistanceAnalyzer a;
  for (int i = 0; i < 5000; ++i) a.touch(rng.bounded(300) * 64, 8);
  std::uint64_t prev = a.miss_lines(1);
  for (std::uint64_t c = 2; c <= 512; c *= 2) {
    const std::uint64_t misses = a.miss_lines(c);
    EXPECT_LE(misses, prev);
    prev = misses;
  }
  EXPECT_EQ(a.miss_lines(1u << 20), a.cold_misses());
}

/// Naive LRU-stack oracle: an explicit recency stack (most recent at the
/// back); a reuse's distance is its depth below the top. O(distance) per
/// access — slow, and obviously right.
struct NaiveLruStack {
  std::vector<std::uint64_t> stack;
  std::unordered_set<std::uint64_t> seen;
  std::map<std::uint64_t, std::uint64_t> histogram;
  std::uint64_t accesses = 0;
  std::uint64_t cold = 0;

  void touch(std::uint64_t addr, std::uint32_t size) {
    if (size == 0) return;
    for (std::uint64_t line = addr / 64; line <= (addr + size - 1) / 64; ++line) {
      ++accesses;
      if (seen.insert(line).second) {
        ++cold;
      } else {
        const auto it = std::find(stack.rbegin(), stack.rend(), line);
        ++histogram[static_cast<std::uint64_t>(it - stack.rbegin())];
        stack.erase(std::next(it).base());
      }
      stack.push_back(line);
    }
  }
  std::uint64_t miss_lines(std::uint64_t capacity) const {
    std::uint64_t misses = cold;
    for (const auto& [d, n] : histogram)
      if (d >= capacity) misses += n;
    return misses;
  }
};

/// Exact agreement with the naive stack on traces large enough to force
/// several marker compactions: > 50K distinct lines, multi-line touches,
/// sparse addresses high in the address space and size-0 touches.
class ReuseVsNaiveStack : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReuseVsNaiveStack, HistogramColdAndMissCurveExact) {
  util::Xoshiro256 rng(GetParam());
  ReuseDistanceAnalyzer analyzer;
  NaiveLruStack oracle;
  std::vector<std::uint64_t> recent;  // addresses touched so far
  std::uint64_t next_new = 0;
  const auto touch = [&](std::uint64_t addr, std::uint32_t size) {
    analyzer.touch(addr, size);
    oracle.touch(addr, size);
    if (size != 0) recent.push_back(addr);
  };
  while (oracle.seen.size() < 60000) {
    const double p = rng.uniform();
    if (p < 0.40 || recent.empty()) {
      // A new region: sparse, high addresses; sometimes a multi-line,
      // unaligned touch.
      const std::uint64_t base = (1ull << 62) + (next_new++ << 16) + rng.bounded(64);
      touch(base, rng.uniform() < 0.2 ? static_cast<std::uint32_t>(1 + rng.bounded(300)) : 8);
    } else if (p < 0.95) {
      // Near reuse: one of the last few hundred touches.
      const std::uint64_t back = 1 + rng.bounded(std::min<std::uint64_t>(recent.size(), 400));
      touch(recent[recent.size() - back], 8);
    } else if (p < 0.99) {
      touch(recent.back() + 64 * rng.bounded(3), 8);  // same or adjacent line
    } else if (p < 0.997) {
      touch(rng.bounded(1ull << 40), 0);  // size 0: no access at all
    } else {
      touch(recent[rng.bounded(recent.size())], 16);  // far reuse
    }
  }

  EXPECT_GE(analyzer.compactions(), 3u);
  EXPECT_GT(analyzer.distinct_lines(), 50000u);
  EXPECT_EQ(analyzer.accesses(), oracle.accesses);
  EXPECT_EQ(analyzer.cold_misses(), oracle.cold);
  EXPECT_EQ(analyzer.histogram(), oracle.histogram);
  for (const std::uint64_t capacity :
       {0ull, 1ull, 2ull, 7ull, 64ull, 1000ull, 4096ull, 50000ull, 1ull << 20})
    EXPECT_EQ(analyzer.miss_lines(capacity), oracle.miss_lines(capacity)) << capacity;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReuseVsNaiveStack, ::testing::Values(3, 17));

TEST(Recorders, VectorRecorderStoresEvents) {
  VectorRecorder rec;
  rec.load(64, 8);
  rec.store(128, 4);
  ASSERT_EQ(rec.events.size(), 2u);
  EXPECT_FALSE(rec.events[0].is_write);
  EXPECT_TRUE(rec.events[1].is_write);
  EXPECT_EQ(rec.events[1].addr, 128u);
}

TEST(Recorders, TeeForwardsToBoth) {
  VectorRecorder a, b;
  TeeRecorder tee(a, b);
  tee.load(0, 8);
  tee.store(64, 8);
  EXPECT_EQ(a.events.size(), 2u);
  EXPECT_EQ(b.events.size(), 2u);
}

TEST(Recorders, ReuseAnalyzerSatisfiesRecorder) {
  static_assert(Recorder<ReuseDistanceAnalyzer>);
  SUCCEED();
}

}  // namespace
}  // namespace opm::trace
