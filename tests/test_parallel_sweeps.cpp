#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "serve/protocol.hpp"
#include "sim/platform.hpp"
#include "sparse/collection.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

/// The parallel sweep engine's contract, tested from both ends:
///
/// * determinism — every sweep in core/experiment.hpp must produce
///   bit-identical output for workers == 0 (serial inline) and any pool
///   size, because results are written by index and no floating-point
///   reduction order depends on the schedule;
/// * scheduler robustness — the work-stealing pool survives empty ranges,
///   oversized grains, nesting, many concurrent submitters, and throwing
///   bodies (first exception propagates; the process no longer
///   terminates).
///
/// scripts/ci.sh runs this file (with the rest of tier 1) under TSan and
/// ASan/UBSan, which is what actually pins down the deque handoffs.
namespace opm {
namespace {

/// Restores the process-wide worker knob on scope exit so these tests
/// cannot leak a setting into other suites.
class WorkerGuard {
 public:
  WorkerGuard() : saved_(core::sweep_workers()) {}
  ~WorkerGuard() { core::set_sweep_workers(saved_); }

 private:
  std::size_t saved_;
};

const sparse::SyntheticCollection& small_suite() {
  static const auto suite = sparse::SyntheticCollection::test_suite(160, 2'000'000);
  return suite;
}

// ------------------------------------------------ determinism differential --

TEST(SweepDeterminism, DenseSerialVsParallelBitIdentical) {
  WorkerGuard guard;
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  const core::DenseSweepRequest req{.kernel = core::KernelId::kGemm,
                                    .n_lo = 256.0,
                                    .n_hi = 8192.0,
                                    .n_step = 512.0,
                                    .nb_lo = 128.0,
                                    .nb_hi = 4096.0,
                                    .nb_step = 256.0};
  core::set_sweep_workers(0);
  const auto serial = core::sweep_dense(p, req);
  core::set_sweep_workers(8);
  const auto parallel = core::sweep_dense(p, req);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_TRUE(serial == parallel);  // bit-identical, not approximately equal
}

TEST(SweepDeterminism, SparseSerialVsParallelBitIdentical) {
  WorkerGuard guard;
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  for (auto kernel :
       {core::KernelId::kSpmv, core::KernelId::kSptrans, core::KernelId::kSptrsv}) {
    core::set_sweep_workers(0);
    const auto serial = core::sweep_sparse(p, {.kernel = kernel}, small_suite());
    core::set_sweep_workers(8);
    const auto parallel = core::sweep_sparse(p, {.kernel = kernel}, small_suite());
    ASSERT_EQ(serial.size(), small_suite().size());
    EXPECT_TRUE(serial == parallel) << "kernel " << core::to_string(kernel);
  }
}

TEST(SweepDeterminism, FootprintSerialVsParallelBitIdentical) {
  WorkerGuard guard;
  const sim::Platform p = sim::knl(sim::McdramMode::kCache);
  const core::FootprintSweepRequest req{
      .kernel = core::KernelId::kStream, .fp_lo = 16.0 * 1024, .fp_hi = 1e9, .points = 64};
  core::set_sweep_workers(0);
  const auto serial = core::sweep_footprint_kernel(p, req);
  core::set_sweep_workers(8);
  const auto parallel = core::sweep_footprint_kernel(p, req);
  EXPECT_TRUE(serial == parallel);
}

TEST(SweepDeterminism, Table5AndSummariesBitIdentical) {
  WorkerGuard guard;
  core::set_sweep_workers(0);
  const auto serial = core::table5_mcdram(small_suite());
  core::set_sweep_workers(8);
  const auto parallel = core::table5_mcdram(small_suite());
  ASSERT_EQ(serial.size(), 8u);
  EXPECT_TRUE(serial == parallel);  // every SpeedupSummary field, bitwise
}

TEST(SweepDeterminism, PowerRowsBitIdentical) {
  WorkerGuard guard;
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  core::set_sweep_workers(0);
  const auto serial = core::power_rows(p, small_suite());
  core::set_sweep_workers(8);
  const auto parallel = core::power_rows(p, small_suite());
  EXPECT_TRUE(serial == parallel);
}

// ----------------------------------------------------------- observability --

TEST(SweepStats, RecordsTopLevelSweep) {
  WorkerGuard guard;
  core::set_sweep_workers(2);
  core::drain_sweep_stats();
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  core::sweep_sparse(p, {.kernel = core::KernelId::kSpmv}, small_suite());
  const auto stats = core::drain_sweep_stats();
  ASSERT_EQ(stats.size(), 1u);
  const auto& s = stats[0];
  EXPECT_EQ(s.name, "sweep_sparse:SpMV");
  EXPECT_EQ(s.workers, 2u);
  EXPECT_EQ(s.items, small_suite().size());
  EXPECT_GT(s.tasks, 0u);
  EXPECT_GT(s.wall_seconds, 0.0);
  // Per-worker busy times sum to the total (2 workers + 1 helper slot).
  ASSERT_EQ(s.worker_busy_seconds.size(), 3u);
  double sum = 0.0;
  for (double b : s.worker_busy_seconds) sum += b;
  EXPECT_DOUBLE_EQ(sum, s.busy_seconds);
  // busy_ns is *exclusive* (nested task time is subtracted), so the total
  // can never exceed the wall window times the threads that could run
  // (2 workers + the helping caller); slack for clock-read jitter.
  EXPECT_LE(s.busy_seconds, s.wall_seconds * 3.0 * 1.25);
}

TEST(SweepStats, SerialSweepRecordsWorkersZero) {
  WorkerGuard guard;
  core::set_sweep_workers(0);
  core::drain_sweep_stats();
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);
  core::sweep_footprint_kernel(
      p, {.kernel = core::KernelId::kStream, .fp_lo = 1e6, .fp_hi = 1e8, .points = 16});
  const auto stats = core::drain_sweep_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].workers, 0u);
  EXPECT_EQ(stats[0].items, 16u);
  EXPECT_DOUBLE_EQ(stats[0].busy_seconds, stats[0].wall_seconds);
}

TEST(SweepStats, NestedSweepsFoldIntoTopLevel) {
  WorkerGuard guard;
  for (std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    core::set_sweep_workers(workers);
    core::drain_sweep_stats();
    core::table4_edram(small_suite());  // runs 8 kernels x 2 platforms of nested sweeps
    const auto stats = core::drain_sweep_stats();
    ASSERT_EQ(stats.size(), 1u) << "workers " << workers;
    EXPECT_EQ(stats[0].name, "table4_edram");
    EXPECT_EQ(stats[0].items, 8u);
  }
}

TEST(SweepStats, CsvAndJsonEmission) {
  core::SweepStats s;
  s.name = "sweep_sparse:SpMV";
  s.workers = 4;
  s.items = 968;
  s.tasks = 121;
  s.steals = 17;
  s.wall_seconds = 0.5;
  s.busy_seconds = 1.5;
  s.worker_busy_seconds = {0.5, 0.25, 0.5, 0.25, 0.0};
  s.sim_lines = 4096;

  std::ostringstream csv;
  core::write_sweep_stats_csv(csv, {s});
  EXPECT_NE(csv.str().find("sweep,workers,items,tasks,steals,wall_s,busy_s,speedup_est,"
                           "sim_lines,sim_lines_per_s,sampled,max_rel_err"),
            std::string::npos);
  EXPECT_NE(csv.str().find("sweep_sparse:SpMV,4,968,121,17,0.5,1.5,3,4096,8192,0,0"),
            std::string::npos);

  const std::string json = core::sweep_stats_json(s);
  EXPECT_NE(json.find("\"sweep\":\"sweep_sparse:SpMV\""), std::string::npos);
  EXPECT_NE(json.find("\"steals\":17"), std::string::npos);
  EXPECT_NE(json.find("\"speedup_est\":3,\"sim_lines\":4096,\"sim_lines_per_s\":8192"),
            std::string::npos);
  EXPECT_EQ(json.find("cache"), std::string::npos);  // cache totals live in cache.* metrics
  EXPECT_NE(json.find("\"worker_busy_s\":[0.5,0.25,0.5,0.25,0]"), std::string::npos);
  EXPECT_EQ(s.speedup_estimate(), 3.0);
}

TEST(SweepStats, WorkerKnobRoundTrips) {
  WorkerGuard guard;
  core::set_sweep_workers(5);
  EXPECT_EQ(core::sweep_workers(), 5u);
  core::set_sweep_workers(0);
  EXPECT_EQ(core::sweep_workers(), 0u);
}

// ------------------------------------------------------- cache concurrency --

/// Restores the result-cache configuration (and clears the memory tier)
/// on scope exit so cache tests cannot leak state into other suites.
class CacheGuard {
 public:
  CacheGuard() : saved_(core::result_cache_config()) {}
  ~CacheGuard() { core::configure_result_cache(saved_); }

 private:
  core::CacheConfig saved_;
};

/// Footprint sweeps small enough to compute many times per test; each
/// `points` value is a distinct payload-cache key.
serve::protocol::Request footprint_request(int points) {
  serve::protocol::Request req;
  serve::protocol::Error err;
  const bool ok = serve::protocol::parse_request(
      R"({"type":"footprint","platform":"broadwell-edram-off","kernel":"stream","points":)" +
          std::to_string(points) + "}",
      &req, &err);
  EXPECT_TRUE(ok) << err.message;
  return req;
}

TEST(SweepCache, ConcurrentMixedHitMissLookupsFromWorkers) {
  WorkerGuard guard;
  CacheGuard cache_guard;
  constexpr int kRequests = 24;
  std::vector<serve::protocol::Request> reqs;
  for (int i = 0; i < kRequests; ++i) reqs.push_back(footprint_request(8 + i));

  core::configure_result_cache({.enabled = false});
  core::set_sweep_workers(4);
  const auto uncached = [&](std::size_t i) { return serve::protocol::execute(reqs[i]); };
  const auto reference = core::sweep_transform("reference", reqs.size(), 1, uncached);

  // Memory tier only: this test is about shard-table thread safety, not
  // the disk format (tests/test_result_cache.cpp covers that).
  core::configure_result_cache({.enabled = true, .disk = false});
  core::reset_result_cache_stats();
  // Pre-warm a minority of the payload keys, so the fan-out below issues
  // concurrent worker-side lookups that MIX hits (the warmed keys) and
  // misses-then-stores (everything else).
  bool hit = false;
  for (int i = 0; i < kRequests; i += 4) serve::protocol::escaped_sweep_payload(reqs[i], &hit);
  const auto warmup = core::result_cache_stats();
  EXPECT_EQ(warmup.stores, std::size_t{kRequests / 4});

  const auto cached = core::sweep_transform("payloads", reqs.size(), 1, [&](std::size_t i) {
    bool h = false;
    return serve::protocol::escaped_sweep_payload(reqs[i], &h);
  });
  const auto stats = core::result_cache_stats();
  EXPECT_GE(stats.memory_hits, std::size_t{kRequests / 4});  // warmed keys hit from workers
  EXPECT_GT(stats.misses, warmup.misses);  // the cold keys missed concurrently
  EXPECT_EQ(stats.faults(), 0u);
  ASSERT_EQ(cached.size(), reference.size());
  for (std::size_t i = 0; i < cached.size(); ++i)  // hits are bit-identical to recompute
    EXPECT_EQ(cached[i], util::json_escape(reference[i])) << "request " << i;
}

TEST(SweepCache, HitsAcrossWorkerCountsStayBitIdentical) {
  WorkerGuard guard;
  CacheGuard cache_guard;
  core::configure_result_cache({.enabled = true, .disk = false});
  serve::protocol::Request req;
  serve::protocol::Error err;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"type":"sparse","platform":"knl-flat","kernel":"spmv"})", &req, &err));

  core::set_sweep_workers(0);
  bool hit = true;
  const std::string cold = serve::protocol::escaped_sweep_payload(req, &hit);
  ASSERT_FALSE(hit);
  // The key ignores the worker count — a warm lookup under any pool size
  // returns the serial run's exact bytes.
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    core::set_sweep_workers(workers);
    EXPECT_EQ(cold, serve::protocol::escaped_sweep_payload(req, &hit)) << "workers " << workers;
    EXPECT_TRUE(hit) << "workers " << workers;
  }
}

// ----------------------------------------------- pool edge cases & stress --

TEST(ThreadPoolEdge, EmptyRangeRunsNothing) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(10, 10, 1, [&](std::size_t) { ++count; });
  pool.parallel_for(10, 3, 1, [&](std::size_t) { ++count; });  // end < begin
  EXPECT_EQ(count.load(), 0);
  EXPECT_TRUE(pool.parallel_transform(5, 5, 1, [](std::size_t i) { return i; }).empty());
}

TEST(ThreadPoolEdge, GrainLargerThanRangeRunsInline) {
  util::ThreadPool pool(4);
  std::vector<int> hits(20, 0);  // not atomic: a single inline chunk may touch it
  pool.parallel_for(0, hits.size(), 1000, [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolEdge, NestedParallelForCompletes) {
  util::ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t) {
    pool.parallel_for(0, 200, 16, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 8 * 200);
}

TEST(ThreadPoolEdge, TenThousandTaskChurnFromManySubmitters) {
  util::ThreadPool pool(4);
  std::atomic<long long> sum{0};
  constexpr int kSubmitters = 5;
  constexpr int kRounds = 20;
  constexpr std::size_t kTasks = 100;  // grain 1 -> one pool task per index
  std::vector<std::thread> submitters;  // opm-lint: allow(thread-ownership) — contention fixture
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round)
        pool.parallel_for(0, kTasks, 1,
                          [&](std::size_t i) { sum += static_cast<long long>(i) + 1; });
    });
  }
  for (auto& t : submitters) t.join();
  // 5 threads x 20 rounds x sum(1..100)
  EXPECT_EQ(sum.load(), 5LL * 20LL * 5050LL);
  EXPECT_GE(pool.totals().tasks, 10000u);
}

TEST(ThreadPoolEdge, ThrowingBodyPropagatesInsteadOfTerminating) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000, 10,
                        [](std::size_t i) {
                          if (i == 337) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives and keeps scheduling.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolEdge, ThrowingBodyPropagatesFromInlinePath) {
  util::ThreadPool pool(0);  // serial inline execution
  EXPECT_THROW(pool.parallel_for(0, 10, 1,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::invalid_argument("inline");
                                 }),
               std::invalid_argument);
}

TEST(ThreadPoolEdge, ThrowPreservesExceptionMessage) {
  util::ThreadPool pool(2);
  try {
    pool.parallel_for(0, 64, 1, [](std::size_t) { throw std::runtime_error("first"); });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPoolEdge, ParallelTransformOrderedForAnyWorkerCount) {
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool pool(workers);
    const auto out =
        pool.parallel_transform(3, 103, 7, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], (i + 3) * (i + 3));
  }
}

TEST(ThreadPoolEdge, ParallelTransformPropagatesException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_transform(0, 500, 8,
                                       [](std::size_t i) -> double {
                                         if (i == 250) throw std::domain_error("bad");
                                         return static_cast<double>(i);
                                       }),
               std::domain_error);
}

TEST(ThreadPoolEdge, CountersAccumulateAcrossCalls) {
  util::ThreadPool pool(2);
  const auto before = pool.totals();
  pool.parallel_for(0, 1000, 10, [](std::size_t) {});
  const auto after = pool.totals();
  EXPECT_GE(after.tasks - before.tasks, 100u);  // 1000/10 chunks
  EXPECT_GE(after.busy_seconds, before.busy_seconds);
  // worker_counters exposes workers + the external-helper slot.
  EXPECT_EQ(pool.worker_counters().size(), 3u);
}

}  // namespace
}  // namespace opm
