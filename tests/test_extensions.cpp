#include <gtest/gtest.h>

#include "core/valley.hpp"
#include "kernels/csr5.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stencil.hpp"
#include "kernels/sptrsv.hpp"
#include "kernels/stream.hpp"
#include "sim/memory_system.hpp"
#include "sim/power.hpp"
#include "sim/prefetcher.hpp"
#include "sim/window_sampler.hpp"
#include "sparse/generators.hpp"
#include "trace/recorder.hpp"
#include "trace/sampler.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

/// Tests for the extension features: the hardware prefetcher model, KNL
/// cluster modes, the EDP objective, and the original Valley model.
namespace opm {
namespace {

using util::GiB;
using util::MiB;

// ------------------------------------------------------------ prefetcher --

TEST(Prefetcher, DetectsSequentialStream) {
  sim::StridePrefetcher pf(4, 2);
  EXPECT_TRUE(pf.observe(0).empty());    // allocate
  EXPECT_TRUE(pf.observe(64).empty());   // train (stride = +1 line)
  const auto out = pf.observe(128);      // established: prefetch ahead
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 192u);
  EXPECT_EQ(out[1], 256u);
  EXPECT_EQ(pf.stream_hits(), 1u);
}

TEST(Prefetcher, DetectsDescendingStream) {
  sim::StridePrefetcher pf(4, 1);
  pf.observe(64 * 100);
  pf.observe(64 * 99);
  const auto out = pf.observe(64 * 98);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 64u * 97);
}

TEST(Prefetcher, IgnoresRandomAccesses) {
  sim::StridePrefetcher pf(8, 4);
  util::Xoshiro256 rng(1);
  std::uint64_t issued = 0;
  for (int i = 0; i < 2000; ++i) {
    issued += pf.observe(rng.bounded(1 << 20) * 64).size();
  }
  // Accidental stride matches are possible but must stay rare.
  EXPECT_LT(issued, 100u);
}

TEST(Prefetcher, TracksMultipleStreams) {
  sim::StridePrefetcher pf(4, 1);
  // Two interleaved sequential streams at distant bases.
  std::uint64_t hits_before = pf.stream_hits();
  for (std::uint64_t i = 0; i < 8; ++i) {
    pf.observe(i * 64);
    pf.observe((1 << 20) + i * 64);
  }
  EXPECT_GE(pf.stream_hits() - hits_before, 10u);  // both streams locked on
}

TEST(Prefetcher, ResetClearsState) {
  sim::StridePrefetcher pf(4, 2);
  pf.observe(0);
  pf.observe(64);
  pf.observe(128);
  pf.reset();
  EXPECT_EQ(pf.issued(), 0u);
  EXPECT_TRUE(pf.observe(192).empty());  // must retrain
}

TEST(Prefetcher, ZeroStreamsIsRejected) {
  // A zero-entry stream table has no slot to allocate into: rejected up
  // front, leaving the memory system and the sampler usable.
  EXPECT_THROW(sim::StridePrefetcher(0, 4), std::invalid_argument);

  sim::MemorySystem ms(sim::broadwell(sim::EdramMode::kOff));
  EXPECT_THROW(ms.enable_prefetcher(0, 4), std::invalid_argument);
  ms.load(0, 8);  // still a working system, without a prefetcher
  EXPECT_EQ(ms.prefetch_fills(), 0u);
  EXPECT_EQ(ms.report().total_accesses, 1u);

  sim::WindowSampler sampler(sim::broadwell(sim::EdramMode::kOff), sim::SampleConfig{});
  EXPECT_THROW(sampler.enable_prefetcher(0, 4), std::invalid_argument);
  sampler.load(0, 8);
  EXPECT_EQ(sampler.sampled_report().traffic.total_accesses, 1u);
}

// The hot path (observe_into: vector table scan where the host has AVX2)
// must agree with the scalar oracle (observe) on every step: same targets,
// same counters.
void expect_scan_matches_oracle(std::size_t streams, std::size_t depth,
                                const std::vector<std::uint64_t>& addrs) {
  sim::StridePrefetcher fast(streams, depth), oracle(streams, depth);
  std::vector<std::uint64_t> out(depth);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    const std::size_t n = fast.observe_into(addrs[i], out.data());
    const std::vector<std::uint64_t> want = oracle.observe(addrs[i]);
    ASSERT_EQ(std::vector<std::uint64_t>(out.begin(), out.begin() + static_cast<long>(n)), want)
        << "streams " << streams << " depth " << depth << " step " << i;
  }
  EXPECT_EQ(fast.issued(), oracle.issued());
  EXPECT_EQ(fast.stream_hits(), oracle.stream_hits());
}

TEST(PrefetcherScan, SeededRandomLinesMatchOracle) {
  for (const std::size_t streams : {1u, 4u, 5u, 16u, 17u}) {
    util::Xoshiro256 rng(streams);
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 20000; ++i) {
      // Mostly far jumps; some land 0-4 lines past the previous line.
      const std::uint64_t line = rng.uniform() < 0.7
                                     ? rng.bounded(1u << 24)
                                     : (addrs.empty() ? 0 : addrs.back() / 64) + rng.bounded(5);
      addrs.push_back(line * 64);
    }
    expect_scan_matches_oracle(streams, 4, addrs);
  }
}

TEST(PrefetcherScan, AscendingAndDescendingStridesMatchOracle) {
  for (const std::size_t streams : {1u, 4u, 5u, 16u, 17u}) {
    std::vector<std::uint64_t> addrs;
    // Up to 20 interleaved streams (more than some tables hold): strides
    // +1, -1, +2, -2 lines from distant bases.
    const std::int64_t strides[] = {1, -1, 2, -2};
    for (std::int64_t step = 0; step < 400; ++step)
      for (std::int64_t s = 0; s < 20; ++s)
        addrs.push_back(static_cast<std::uint64_t>(((s + 1) << 22) + strides[s % 4] * step) * 64);
    expect_scan_matches_oracle(streams, 8, addrs);
  }
}

TEST(PrefetcherScan, TargetsBelowLineZeroStopEarlyOnBothPaths) {
  for (const std::size_t streams : {1u, 5u, 17u}) {
    std::vector<std::uint64_t> addrs;
    for (std::uint64_t line = 12; line-- > 0;) addrs.push_back(line * 64);  // down to 0
    for (std::uint64_t line = 13; line >= 2; line -= 2) addrs.push_back(line * 64);
    expect_scan_matches_oracle(streams, 8, addrs);
  }
  sim::StridePrefetcher pf(4, 8);
  std::uint64_t out[8];
  pf.observe_into(64 * 3, out);
  pf.observe_into(64 * 2, out);                 // stride -1 locked in
  EXPECT_EQ(pf.observe_into(64 * 1, out), 1u);  // only line 0 is >= 0
  EXPECT_EQ(out[0], 0u);
}

TEST(PrefetcherScan, AblationLineStreamsMatchOracle) {
  // The exact line streams bench/ablation_prefetcher simulates.
  const auto lines_of = [](const trace::VectorRecorder& rec) {
    std::vector<std::uint64_t> out;
    for (const auto& e : rec.events)
      for (std::uint64_t l = e.addr & ~63ull; l <= ((e.addr + e.size - 1) & ~63ull); l += 64)
        out.push_back(l);
    return out;
  };
  const std::size_t n = (4 * MiB) / 8;
  std::vector<double> a(n), b(n), c(n);
  trace::VectorRecorder triad;
  kernels::stream_triad_instrumented(a, b, c, 1.0, triad);
  expect_scan_matches_oracle(16, 8, lines_of(triad));

  const sparse::Csr m = sparse::make_random_uniform(60000, 12.0, 3);
  std::vector<double> x(60000, 1.0), y(60000);
  trace::VectorRecorder spmv;
  kernels::spmv_csr_instrumented(m, x, y, spmv);
  expect_scan_matches_oracle(16, 8, lines_of(spmv));
}

TEST(PrefetcherIntegration, CoversStreamingDemandMisses) {
  // TRIAD over arrays far beyond every cache: with the prefetcher the
  // demand misses reaching DDR shrink dramatically (covered by prefetch
  // fills); total DDR lines (demand + prefetch) stay comparable.
  const std::size_t n = (2 * MiB) / 8;
  std::vector<double> a(n), b(n), c(n);

  sim::MemorySystem plain(sim::broadwell(sim::EdramMode::kOff));
  trace::SystemRecorder rec_plain(plain);
  kernels::stream_triad_instrumented(a, b, c, 1.0, rec_plain);
  const auto demand_plain = plain.report().devices.back().hits;

  sim::MemorySystem with_pf(sim::broadwell(sim::EdramMode::kOff));
  with_pf.enable_prefetcher(16, 8);
  trace::SystemRecorder rec_pf(with_pf);
  kernels::stream_triad_instrumented(a, b, c, 1.0, rec_pf);
  const auto rep = with_pf.report();
  const auto demand_pf = rep.devices.back().hits;

  EXPECT_LT(demand_pf, demand_plain / 4);  // most demand misses covered
  EXPECT_GT(rep.devices.back().prefetches, demand_plain / 2);
  EXPECT_GT(with_pf.prefetch_fills(), 0u);
}

TEST(PrefetcherIntegration, DoesNotCoverRandomGathers) {
  util::Xoshiro256 rng(7);
  sim::MemorySystem ms(sim::broadwell(sim::EdramMode::kOff));
  ms.enable_prefetcher(16, 8);
  for (int i = 0; i < 20000; ++i) ms.load(rng.bounded(1 << 22) * 64, 8);
  const auto rep = ms.report();
  // Random gathers must still be served mostly by demand fetches.
  EXPECT_GT(rep.devices.back().hits, rep.devices.back().prefetches * 5);
}

// ---------------------------------------------------------- cluster modes --

TEST(ClusterModes, QuadrantIsDefaultLabel) {
  EXPECT_EQ(sim::knl(sim::McdramMode::kFlat).mode_label, "MCDRAM flat");
  EXPECT_EQ(sim::knl(sim::McdramMode::kFlat, sim::ClusterMode::kAllToAll).mode_label,
            "MCDRAM flat, all-to-all");
}

TEST(ClusterModes, AllToAllRaisesMemoryLatency) {
  const auto quad = sim::knl(sim::McdramMode::kFlat, sim::ClusterMode::kQuadrant);
  const auto a2a = sim::knl(sim::McdramMode::kFlat, sim::ClusterMode::kAllToAll);
  const auto snc = sim::knl(sim::McdramMode::kFlat, sim::ClusterMode::kSnc4);
  EXPECT_GT(a2a.devices[0].latency, quad.devices[0].latency);
  EXPECT_LT(snc.devices[0].latency, quad.devices[0].latency);
  // Bandwidths are unchanged by clustering.
  EXPECT_DOUBLE_EQ(a2a.devices[0].bandwidth, quad.devices[0].bandwidth);
}

TEST(ClusterModes, LatencyBoundKernelFeelsClustering) {
  // SpTRSV (latency-bound) must slow down under all-to-all and speed up
  // under SNC-4; Stream at full MLP must be nearly indifferent.
  const kernels::SptrsvShape shape{.rows = 2e6, .nnz = 1.6e7, .locality = 0.5,
                                   .avg_parallelism = 300.0, .levels = 6000.0};
  double g[3];
  int i = 0;
  for (auto cm : {sim::ClusterMode::kAllToAll, sim::ClusterMode::kQuadrant,
                  sim::ClusterMode::kSnc4}) {
    const auto p = sim::knl(sim::McdramMode::kFlat, cm);
    g[i++] = kernels::predict(p, kernels::sptrsv_model(p, shape)).gflops;
  }
  EXPECT_LT(g[0], g[1]);
  EXPECT_LT(g[1], g[2]);

  const auto quad = sim::knl(sim::McdramMode::kFlat, sim::ClusterMode::kQuadrant);
  const auto a2a = sim::knl(sim::McdramMode::kFlat, sim::ClusterMode::kAllToAll);
  const double s_quad =
      kernels::predict(quad, kernels::stream_model(quad, 4e8 / 24.0)).gflops;
  const double s_a2a = kernels::predict(a2a, kernels::stream_model(a2a, 4e8 / 24.0)).gflops;
  EXPECT_GT(s_a2a, s_quad * 0.80);  // bandwidth-bound: small sensitivity
}

// -------------------------------------------------------------------- EDP --

TEST(Edp, ProductOfEnergyAndTime) {
  sim::PowerEstimate p{.package = 40.0, .dram = 10.0};
  EXPECT_DOUBLE_EQ(sim::energy_delay_product(p, 2.0), 50.0 * 2.0 * 2.0);
}

TEST(Edp, BreaksEvenEarlierThanEnergy) {
  // With performance counting twice, a gain below the power cost can
  // still pay off in EDP terms.
  const double gain = 0.05, cost = 0.086;
  EXPECT_GT(sim::opm_energy_ratio(gain, cost), 1.0);  // loses on energy
  EXPECT_LT(sim::opm_edp_ratio(gain, cost), 1.0);     // wins on EDP
}

TEST(Edp, RatioFormula) {
  EXPECT_NEAR(sim::opm_edp_ratio(1.0, 0.0), 0.25, 1e-12);
  EXPECT_NEAR(sim::opm_edp_ratio(0.0, 0.5), 1.5, 1e-12);
}

// ----------------------------------------------------------- Valley model --

core::ValleyParams classic_params() {
  core::ValleyParams p;
  p.cache_bytes = 4.0 * MiB;
  p.per_thread_ws = 512.0 * 1024;
  p.flops_per_byte = 0.5;
  p.core_flops = 2.0e9;
  p.mem_latency = 100e-9;
  p.mem_bandwidth = 60e9;
  p.mlp_per_thread = 1.0;
  p.max_threads = 2048;
  return p;
}

TEST(Valley, HitRateMonotoneInThreads) {
  const auto p = classic_params();
  double prev = 2.0;
  for (double t = 1; t <= 512; t *= 2) {
    const double h = core::valley_hit_rate(p, t);
    EXPECT_LE(h, prev);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
    prev = h;
  }
}

TEST(Valley, ClassicShapeHasPeakValleyRecovery) {
  const auto curve = core::valley_curve(classic_params());
  const auto f = core::analyze_valley(curve);
  EXPECT_TRUE(f.has_valley);
  EXPECT_GT(f.cache_peak_gflops, f.valley_gflops);
  EXPECT_GT(f.recovered_gflops, f.valley_gflops);
  // "Stay away from the valley": the ends beat the middle.
  EXPECT_GT(f.cache_peak_threads, 1.0);
  EXPECT_GT(f.valley_threads, f.cache_peak_threads);
}

TEST(Valley, NoValleyWithAbundantMlp) {
  core::ValleyParams p = classic_params();
  p.mlp_per_thread = 64.0;  // latency fully hidden from the start
  const auto f = core::analyze_valley(core::valley_curve(p));
  // Throughput may flatten at the bandwidth roof but must not dip.
  EXPECT_FALSE(f.has_valley);
}

TEST(Valley, BandwidthRoofCapsRecovery) {
  const auto p = classic_params();
  const double t = static_cast<double>(p.max_threads);
  const double at_max = core::valley_throughput(p, t);
  // The cache-served fraction rides above the memory roof; the miss
  // stream itself cannot exceed BW * intensity.
  const double hit = core::valley_hit_rate(p, t);
  const double roof = p.mem_bandwidth * p.flops_per_byte / (1.0 - hit);
  EXPECT_LE(at_max, roof * 1.0001);
}

TEST(Valley, SmallWorkingSetsNeverLeaveCacheRegion) {
  core::ValleyParams p = classic_params();
  p.per_thread_ws = 1024;  // 2048 threads x 1 KB = 2 MB < 4 MB cache
  p.max_threads = 1024;
  const auto f = core::analyze_valley(core::valley_curve(p));
  EXPECT_FALSE(f.has_valley);
  EXPECT_NEAR(f.recovered_gflops, 1024.0 * p.core_flops / 1e9, 1.0);
}

// --------------------------------------------------------- CSR5 autotune --

TEST(Csr5Autotune, FollowsMeanRowLength) {
  EXPECT_EQ(kernels::Csr5Matrix::autotune_sigma(sparse::make_tridiag_perturbed(256, 0.0, 1)),
            4);  // ~3 nnz/row
  EXPECT_EQ(kernels::Csr5Matrix::autotune_sigma(sparse::make_random_uniform(256, 10.0, 2)),
            10);
  EXPECT_EQ(kernels::Csr5Matrix::autotune_sigma(sparse::make_random_uniform(256, 40.0, 3)),
            16);
  EXPECT_EQ(kernels::Csr5Matrix::autotune_sigma(sparse::make_random_uniform(512, 100.0, 4)),
            32);
}

TEST(Csr5Autotune, TunedBuildStaysCorrect) {
  const sparse::Csr a = sparse::make_rmat(512, 12.0, 5);
  const int sigma = kernels::Csr5Matrix::autotune_sigma(a);
  const auto m = kernels::Csr5Matrix::build(a, 4, sigma);
  std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  std::vector<double> y1(static_cast<std::size_t>(a.rows));
  std::vector<double> y2(static_cast<std::size_t>(a.rows));
  m.spmv(x, y1);
  sparse::spmv_reference(a, x, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) ASSERT_NEAR(y1[i], y2[i], 1e-10);
}

// --------------------------------------------------- stencil time stepping --

TEST(StencilRun, MatchesManualStepping) {
  kernels::StencilGrid a(20, 20, 20), b(20, 20, 20);
  a.seed(9);
  b.seed(9);
  kernels::stencil_run(a, 3, 4, 4);
  for (int s = 0; s < 3; ++s) {
    kernels::stencil_step(b, 4, 4);
    std::swap(b.current, b.previous);
  }
  EXPECT_EQ(a.current, b.current);
  EXPECT_EQ(a.previous, b.previous);
}

TEST(StencilRun, BlockingInvariantOverSteps) {
  kernels::StencilGrid blocked(20, 20, 20), unblocked(20, 20, 20);
  blocked.seed(10);
  unblocked.seed(10);
  kernels::stencil_run(blocked, 4, 3, 5);
  kernels::stencil_run(unblocked, 4, 0, 0);
  EXPECT_EQ(blocked.current, unblocked.current);
}

// ------------------------------------------------------- sampled reuse ----

TEST(SampledReuse, RateOneIsExact) {
  trace::ReuseDistanceAnalyzer exact;
  trace::SampledReuseAnalyzer sampled(1.0);
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t addr = rng.bounded(400) * 64;
    exact.touch(addr, 8);
    sampled.touch(addr, 8);
  }
  for (std::uint64_t cap : {4096u, 65536u, 1u << 20}) {
    EXPECT_NEAR(sampled.estimated_miss_lines(cap),
                static_cast<double>(exact.miss_lines(cap / 64)), 1e-9);
  }
}

TEST(SampledReuse, EstimatesTrackExactWithinTolerance) {
  trace::ReuseDistanceAnalyzer exact;
  trace::SampledReuseAnalyzer sampled(0.25);
  util::Xoshiro256 rng(12);
  // A structured trace: streaming runs plus a hot set.
  for (int i = 0; i < 60000; ++i) {
    std::uint64_t addr;
    if (rng.uniform() < 0.5)
      addr = rng.bounded(64) * 64;  // hot region
    else
      addr = (4096 + rng.bounded(4096)) * 64;  // cold region
    exact.touch(addr, 8);
    sampled.touch(addr, 8);
  }
  EXPECT_LT(sampled.sampled(), sampled.observed());
  for (std::uint64_t cap : {16u * 1024, 64u * 1024, 256u * 1024}) {
    const double est = sampled.estimated_miss_lines(cap);
    const double real = static_cast<double>(exact.miss_lines(cap / 64));
    EXPECT_LT(est, real * 1.35 + 100.0) << "capacity " << cap;
    EXPECT_GT(est * 1.35 + 100.0, real) << "capacity " << cap;
  }
}

TEST(SampledReuse, RejectsBadRate) {
  EXPECT_THROW(trace::SampledReuseAnalyzer(0.0), std::invalid_argument);
  EXPECT_THROW(trace::SampledReuseAnalyzer(1.5), std::invalid_argument);
}

TEST(SampledReuse, HitRateBounded) {
  trace::SampledReuseAnalyzer sampled(0.5);
  for (std::uint64_t i = 0; i < 1000; ++i) sampled.touch(i * 64, 8);
  const double h = sampled.estimated_hit_rate(1u << 20);
  EXPECT_GE(h, 0.0);
  EXPECT_LE(h, 1.0);
}

}  // namespace
}  // namespace opm
