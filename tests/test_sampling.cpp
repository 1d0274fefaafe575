// Sampled-simulation suite: the fast-or-exact contract of
// sim::WindowSampler (docs/MODEL.md §16) and its plumbing.
//
//   * SIMD probe: the dispatching find_way() agrees with the scalar
//     oracle on every reachable set-state shape (simd::self_check).
//   * Differential: on every paper platform configuration, a sampled run
//     over the hot-path trace mix extrapolates every significant traffic
//     counter to within 1% of the exact full-trace report, and the
//     half-slice error bound is finite and honest.
//   * Fast-or-exact: traces under the exactness floor (and slice == 1)
//     produce the exact report with sampled == false.
//   * Determinism: the sampled schedule is a pure function of the seed —
//     byte-identical SampledTraffic across repeat runs, and byte-identical
//     advise payloads across sweep worker counts.
//   * ResultCache: sampled and exact payloads never collide (distinct
//     fingerprints), and a sampled payload round-trips the .opmrec disk
//     tier bit-identically.
//   * Protocol v2: sampled envelopes render, parse, and re-render
//     byte-stably; v1 and exact-v2 response bytes are unchanged.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "advise/advise.hpp"
#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "core/sweep_config.hpp"
#include "serve/protocol.hpp"
#include "sim/memory_system.hpp"
#include "sim/platform.hpp"
#include "sim/prefetcher.hpp"
#include "sim/simd_probe.hpp"
#include "sim/window_sampler.hpp"
#include "util/metrics.hpp"

namespace opm {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- SIMD --

TEST(SimdProbe, BackendNameIsKnown) {
  const std::string name = sim::simd::backend_name();
  EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "scalar") << name;
}

TEST(SimdProbe, SelfCheckPassesOnThisHost) {
  // Every compiled backend vs the scalar oracle, all reachable shapes.
  EXPECT_TRUE(sim::simd::self_check());
}

TEST(SimdProbe, PrefetcherScanSelfCheckPassesOnThisHost) {
  // The prefetcher's vector stream-table scan vs its scalar oracle.
  EXPECT_TRUE(sim::StridePrefetcher::self_check());
}

// -------------------------------------------------------- trace driver --

struct Config {
  const char* name;
  sim::Platform platform;
  bool prefetcher;
};

std::vector<Config> paper_configs() {
  return {
      {"bdw-edram-off", sim::broadwell(sim::EdramMode::kOff), false},
      {"bdw-edram-on", sim::broadwell(sim::EdramMode::kOn), false},
      {"bdw-edram-on+pf", sim::broadwell(sim::EdramMode::kOn), true},
      {"knl-ddr", sim::knl(sim::McdramMode::kOff), false},
      {"knl-cache", sim::knl(sim::McdramMode::kCache), false},
      {"knl-cache+pf", sim::knl(sim::McdramMode::kCache), true},
      {"knl-flat", sim::knl(sim::McdramMode::kFlat), false},
      {"knl-hybrid", sim::knl(sim::McdramMode::kHybrid), false},
  };
}

/// The hot-path phase mix (sequential, triad, strided, pointer chase,
/// block copy, NT stream) at a configurable working-set size — the same
/// shape bench/sim_hotpath measures, shrunk for test runtime.
template <typename Rec>
void run_trace(Rec& rec, std::uint64_t ws_bytes) {
  const std::uint64_t base = 1ull << 32;
  const std::uint64_t quarter = ws_bytes / 4;
  // Phase 1: sequential 8B reads over the working set.
  for (std::uint64_t off = 0; off < ws_bytes; off += 8) rec.load(base + off, 8);
  // Phase 2: triad over three quarter-size arrays.
  for (std::uint64_t off = 0; off < quarter; off += 8) {
    rec.load(base + ws_bytes + off, 8);
    rec.load(base + ws_bytes + quarter + off, 8);
    rec.store(base + ws_bytes + 2 * quarter + off, 8);
  }
  // Phase 3: 256B strided walk (every 4th line).
  for (std::uint64_t off = 0; off < ws_bytes; off += 256) rec.load(base + off, 8);
  // Phase 4: seeded pointer chase.
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < ws_bytes / 512; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    rec.load(base + (s % ws_bytes) / 8 * 8, 8);
  }
  // Phase 5: contiguous 256B block copies (the multi-line batch path).
  for (std::uint64_t off = 0; off + 256 <= quarter; off += 256) {
    rec.access_range(base + off, 256, false);
    rec.access_range(base + 2 * quarter + off, 256, true);
  }
  // Phase 6: NT stores over the last quarter.
  for (std::uint64_t off = 0; off < quarter; off += 64)
    rec.store_nt(base + 3 * quarter + off, 64);
}

/// Exposes MemorySystem through the same recording surface WindowSampler
/// offers, so run_trace() drives both identically.
struct ExactRec {
  sim::MemorySystem& sys;
  void load(std::uint64_t addr, std::uint64_t size) { sys.access_range(addr, size, false); }
  void store(std::uint64_t addr, std::uint64_t size) { sys.access_range(addr, size, true); }
  void access_range(std::uint64_t addr, std::uint64_t size, bool is_write) {
    sys.access_range(addr, size, is_write);
  }
  void store_nt(std::uint64_t addr, std::uint64_t size) { sys.store_nt(addr, size); }
};

sim::TrafficReport exact_report(const Config& cfg, std::uint64_t ws_bytes) {
  sim::MemorySystem sys(cfg.platform);
  if (cfg.prefetcher) sys.enable_prefetcher();
  ExactRec rec{sys};
  run_trace(rec, ws_bytes);
  return sys.report();
}

sim::SampledTraffic sampled_run(const Config& cfg, std::uint64_t ws_bytes,
                                const sim::SampleConfig& sample = {}) {
  sim::WindowSampler sampler(cfg.platform, sample);
  if (cfg.prefetcher) sampler.enable_prefetcher();
  run_trace(sampler, ws_bytes);
  return sampler.sampled_report();
}

/// Worst relative error over counters carrying at least 1% of total line
/// traffic on either side (the significance rule of the sampled contract:
/// a counter below the floor can move total traffic by at most its share).
double worst_rel_error(const sim::TrafficReport& exact, const sim::TrafficReport& got) {
  const double total = static_cast<double>(exact.total_accesses);
  double worst = 0.0;
  const auto check = [&](std::uint64_t want, std::uint64_t have) {
    if (static_cast<double>(want) / total < 0.01 &&
        static_cast<double>(have) / total < 0.01)
      return;
    const double denom = std::max<double>(static_cast<double>(want), 1.0);
    worst = std::max(
        worst, std::abs(static_cast<double>(have) - static_cast<double>(want)) / denom);
  };
  EXPECT_EQ(exact.tiers.size(), got.tiers.size());
  EXPECT_EQ(exact.devices.size(), got.devices.size());
  for (std::size_t i = 0; i < exact.tiers.size(); ++i) {
    check(exact.tiers[i].hits, got.tiers[i].hits);
    check(exact.tiers[i].writebacks, got.tiers[i].writebacks);
  }
  for (std::size_t i = 0; i < exact.devices.size(); ++i) {
    check(exact.devices[i].hits, got.devices[i].hits);
    check(exact.devices[i].writebacks, got.devices[i].writebacks);
    check(exact.devices[i].prefetches, got.devices[i].prefetches);
  }
  return worst;
}

void expect_traffic_equal(const sim::TrafficReport& a, const sim::TrafficReport& b) {
  ASSERT_EQ(a.tiers.size(), b.tiers.size());
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.tiers.size(); ++i) {
    EXPECT_EQ(a.tiers[i].hits, b.tiers[i].hits) << a.tiers[i].name;
    EXPECT_EQ(a.tiers[i].writebacks, b.tiers[i].writebacks) << a.tiers[i].name;
    EXPECT_EQ(a.tiers[i].bytes_served, b.tiers[i].bytes_served) << a.tiers[i].name;
  }
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].hits, b.devices[i].hits) << a.devices[i].name;
    EXPECT_EQ(a.devices[i].writebacks, b.devices[i].writebacks) << a.devices[i].name;
    EXPECT_EQ(a.devices[i].prefetches, b.devices[i].prefetches) << a.devices[i].name;
  }
  EXPECT_EQ(a.total_accesses, b.total_accesses);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
}

// -------------------------------------------------------- differential --

constexpr std::uint64_t kWsBytes = 4ull << 20;  // big enough for stable shares

TEST(SamplingDifferential, ExtrapolationWithinOnePercentOnEveryConfig) {
  for (const Config& cfg : paper_configs()) {
    const sim::TrafficReport exact = exact_report(cfg, kWsBytes);
    const sim::SampledTraffic st = sampled_run(cfg, kWsBytes);
    ASSERT_TRUE(st.sampled) << cfg.name;
    EXPECT_EQ(st.traffic.total_accesses, exact.total_accesses) << cfg.name;
    EXPECT_EQ(st.traffic.total_bytes, exact.total_bytes) << cfg.name;
    EXPECT_LE(worst_rel_error(exact, st.traffic), 0.01) << cfg.name;
    // The half-slice bound is an error *estimate*, not a hard envelope —
    // but it must be present, finite, and far from the useless 100%.
    EXPECT_GT(st.max_rel_error, 0.0) << cfg.name;
    EXPECT_LT(st.max_rel_error, 0.10) << cfg.name;
    EXPECT_GT(st.windows_measured, 0u) << cfg.name;
    // The sampler simulated roughly 1/slice of the observed lines.
    EXPECT_LT(st.lines_simulated * 4, st.lines_observed) << cfg.name;
    EXPECT_GT(st.lines_simulated * 16, st.lines_observed) << cfg.name;
  }
}

// ------------------------------------------------------- fast-or-exact --

TEST(SamplingExactness, ShortTraceIsExact) {
  // 64 KiB of trace is far under min_exact_lines: the sampler must fall
  // back to an exact full-platform replay and say so.
  const Config cfg{"bdw-edram-on", sim::broadwell(sim::EdramMode::kOn), false};
  const sim::TrafficReport exact = exact_report(cfg, 64 << 10);
  const sim::SampledTraffic st = sampled_run(cfg, 64 << 10);
  EXPECT_FALSE(st.sampled);
  EXPECT_EQ(st.max_rel_error, 0.0);
  expect_traffic_equal(exact, st.traffic);
}

TEST(SamplingExactness, SliceOneIsExact) {
  const Config cfg{"knl-cache", sim::knl(sim::McdramMode::kCache), false};
  const sim::TrafficReport exact = exact_report(cfg, 1 << 20);
  sim::SampleConfig sample;
  sample.slice = 1;
  const sim::SampledTraffic st = sampled_run(cfg, 1 << 20, sample);
  EXPECT_FALSE(st.sampled);
  EXPECT_EQ(st.max_rel_error, 0.0);
  expect_traffic_equal(exact, st.traffic);
}

// --------------------------------------------------------- determinism --

TEST(SamplingDeterminism, SameSeedSameTraffic) {
  const Config cfg{"knl-flat", sim::knl(sim::McdramMode::kFlat), false};
  sim::SampleConfig sample;
  sample.seed = 0xfeedfacecafebeefull;
  const sim::SampledTraffic a = sampled_run(cfg, kWsBytes, sample);
  const sim::SampledTraffic b = sampled_run(cfg, kWsBytes, sample);
  ASSERT_TRUE(a.sampled);
  ASSERT_TRUE(b.sampled);
  expect_traffic_equal(a.traffic, b.traffic);
  EXPECT_EQ(a.max_rel_error, b.max_rel_error);
  EXPECT_EQ(a.windows_measured, b.windows_measured);
  EXPECT_EQ(a.lines_simulated, b.lines_simulated);
  EXPECT_EQ(a.lines_observed, b.lines_observed);
}

TEST(SamplingDeterminism, SeedIsContentAddressed) {
  // sample_config_for folds the 128-bit request digest into the seed, so
  // the same request always samples the same sets.
  const util::Digest128 d{0x1234, 0x5678};
  EXPECT_EQ(sim::sample_config_for(d).seed, d.hi ^ d.lo);
  EXPECT_EQ(sim::sample_config_for(d), sim::sample_config_for(d));
}

TEST(SamplingDeterminism, MetricsPublishedOnSampledRuns) {
  auto& reg = util::MetricsRegistry::instance();
  const std::uint64_t windows_before = reg.counter("sim.sampled_windows").value();
  const double err_before = reg.double_counter("sim.sampling_rel_error").value();
  const Config cfg{"bdw-edram-off", sim::broadwell(sim::EdramMode::kOff), false};
  const sim::SampledTraffic st = sampled_run(cfg, 1 << 20);
  ASSERT_TRUE(st.sampled);
  EXPECT_EQ(reg.counter("sim.sampled_windows").value(),
            windows_before + st.windows_measured);
  EXPECT_GE(reg.double_counter("sim.sampling_rel_error").value(),
            err_before + st.max_rel_error);
}

// ------------------------------------------- advise + ResultCache keys --

class SamplingCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_config_ = core::result_cache_config();
    saved_workers_ = core::sweep_workers();
    saved_mode_ = sim::sampling_mode();
    dir_ = fs::temp_directory_path() /
           ("opm-sampling-test-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    core::configure_result_cache(
        {.enabled = true, .disk = true, .dir = dir_.string(), .max_entries = 4096});
    core::reset_result_cache_stats();
  }

  void TearDown() override {
    sim::set_sampling_mode(saved_mode_);
    core::set_sweep_workers(saved_workers_);
    core::configure_result_cache(saved_config_);
    fs::remove_all(dir_);
  }

  static advise::AdviseRequest request() {
    advise::AdviseRequest req;
    req.kernel = core::KernelId::kStream;
    req.platform = "knl-ddr";
    req.verify = false;  // probe + prediction only: cheap and sampler-driven
    return req;
  }

  core::CacheConfig saved_config_;
  std::size_t saved_workers_ = 0;
  sim::SamplingMode saved_mode_ = sim::SamplingMode::kOff;
  fs::path dir_;
};

TEST_F(SamplingCacheTest, SampledAndExactNeverCollide) {
  const advise::AdviseRequest req = request();
  sim::set_sampling_mode(sim::SamplingMode::kOff);
  const util::Digest128 exact_key = advise::advise_cache_key(req);
  const std::string exact_payload = advise::run_and_render(req);
  sim::set_sampling_mode(sim::SamplingMode::kFast);
  const util::Digest128 fast_key = advise::advise_cache_key(req);
  const std::string fast_payload = advise::run_and_render(req);

  EXPECT_FALSE(exact_key == fast_key);
  EXPECT_NE(exact_payload, fast_payload);
  EXPECT_NE(exact_payload.find("\"sampled\":false"), std::string::npos);
  EXPECT_NE(fast_payload.find("\"sampled\":true"), std::string::npos);

  // Flipping the mode back serves the exact payload again — the sampled
  // record cannot shadow it in either cache tier.
  sim::set_sampling_mode(sim::SamplingMode::kOff);
  EXPECT_EQ(advise::run_and_render(req), exact_payload);
}

TEST_F(SamplingCacheTest, SampledPayloadRoundTripsDiskTier) {
  const advise::AdviseRequest req = request();
  sim::set_sampling_mode(sim::SamplingMode::kFast);
  const std::string stored = advise::run_and_render(req);
  ASSERT_NE(stored.find("\"sampled\":true"), std::string::npos);

  // Drop the memory tier: the second call must load the .opmrec record
  // from disk bit-identically.
  core::ResultCache::instance().clear_memory();
  const core::CacheStats before = core::result_cache_stats();
  EXPECT_EQ(advise::run_and_render(req), stored);
  const core::CacheStats after = core::result_cache_stats();
  EXPECT_GT(after.disk_hits, before.disk_hits);
}

TEST_F(SamplingCacheTest, PayloadByteIdenticalAcrossSweepWorkers) {
  sim::set_sampling_mode(sim::SamplingMode::kFast);
  const advise::AdviseRequest req = request();
  std::vector<std::string> payloads;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    core::set_sweep_workers(workers);
    core::ResultCache::instance().clear_memory();
    payloads.push_back(advise::run_and_render(req));
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], payloads[1]);
  EXPECT_EQ(payloads[0], payloads[2]);
  EXPECT_NE(payloads[0].find("\"sampled\":true"), std::string::npos);
}

// --------------------------------------------------------- protocol v2 --

TEST(SamplingProtocol, SampledEnvelopeRendersAndParses) {
  serve::protocol::Envelope env;
  env.version = 2;
  env.id = "q1";
  env.shard = 3;
  const std::string payload = R"({"answer":42})";
  const serve::protocol::SampleNote note{true, "0x1.9p-9"};
  const std::string line = serve::protocol::render_response(
      env, serve::protocol::RequestType::kAdvise, payload, note);
  EXPECT_NE(line.find("\"sampled\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"max_rel_error\":\"0x1.9p-9\""), std::string::npos) << line;

  serve::protocol::ResponseView view;
  ASSERT_TRUE(serve::protocol::parse_response(line, &view)) << line;
  EXPECT_TRUE(view.sampled);
  EXPECT_EQ(view.max_rel_error, "0x1.9p-9");
  EXPECT_EQ(view.payload, payload);
  EXPECT_EQ(view.shard, 3);

  // Byte-stable re-render: the router depends on this to forward shard
  // responses without perturbing them.
  EXPECT_EQ(serve::protocol::render_view(env, view), line);
}

TEST(SamplingProtocol, ExactAndV1BytesAreUnchanged) {
  serve::protocol::Envelope v2;
  v2.version = 2;
  v2.id = "q2";
  const std::string payload = R"({"x":1})";
  // An exact note must not add members to a v2 envelope.
  EXPECT_EQ(serve::protocol::render_response(v2, serve::protocol::RequestType::kAdvise,
                                             payload, serve::protocol::SampleNote{}),
            serve::protocol::render_response(
                v2, serve::protocol::RequestType::kAdvise, payload));
  // A v1 envelope never carries sampling members, sampled or not.
  serve::protocol::Envelope v1;
  v1.version = 1;
  v1.id = "q3";
  const serve::protocol::SampleNote note{true, "0x1p-8"};
  const std::string line = serve::protocol::render_response(
      v1, serve::protocol::RequestType::kAdvise, payload, note);
  EXPECT_EQ(line.find("sampled"), std::string::npos) << line;
  EXPECT_EQ(line, serve::protocol::render_response(
                      v1, serve::protocol::RequestType::kAdvise, payload));
}

}  // namespace
}  // namespace opm
