// Measures the content-addressed result cache on the two layers that keep
// it: the serve tier's escaped sweep payloads for the 48 paper
// (platform x kernel) sweeps (protocol::escaped_sweep_payload), and the
// advisor's rendered JSON payloads (advise::run_and_render). Per layer:
// one cold pass (compute + store), repeated disk-warm passes (memory tier
// dropped before each, records re-read and re-validated from disk), and
// repeated memory-warm passes, each tier followed by one untimed pass that
// compares every payload against the cold bytes. The harness FAILS
// (nonzero exit) if any warm payload is not bit-identical to the cold one,
// or if on either layer the MEDIAN disk-warm pass is less than 10x faster
// than the cold pass — the cache's two contracts.
//
// Warm phases are sampled through bench::Sampler per the statistical perf
// contract (docs/MODEL.md §12); the cold pass is inherently a single
// sample (recomputing it would require wiping and re-storing the cache).
// The harness emits BENCH_cache.json in the shared opm-bench schema for
// the CI trajectory gate (tools/opm_benchdiff).
//
//   --quick      fewer warm repeats and a 16-key advise subset (CI perf job)
//   --out=PATH   JSON output path (default BENCH_cache.json)
#include <filesystem>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "advise/advise.hpp"
#include "common.hpp"
#include "core/result_cache.hpp"
#include "serve/protocol.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

namespace {

using namespace opm;
namespace protocol = serve::protocol;

constexpr const char* kPlatforms[] = {"broadwell-edram-off", "broadwell-edram-on", "knl-ddr",
                                      "knl-cache",           "knl-flat",           "knl-hybrid"};
constexpr core::KernelId kKernels[] = {core::KernelId::kGemm,    core::KernelId::kCholesky,
                                       core::KernelId::kSpmv,    core::KernelId::kSptrans,
                                       core::KernelId::kSptrsv,  core::KernelId::kFft,
                                       core::KernelId::kStencil, core::KernelId::kStream};

const char* sweep_type(core::KernelId k) {
  switch (k) {
    case core::KernelId::kGemm:
    case core::KernelId::kCholesky: return "dense";
    case core::KernelId::kSpmv:
    case core::KernelId::kSptrans:
    case core::KernelId::kSptrsv: return "sparse";
    default: return "footprint";
  }
}

/// The 48 paper sweeps as a client sends them: type, platform and kernel,
/// every other field at the canonical request defaults.
std::vector<protocol::Request> paper_sweep_requests() {
  std::vector<protocol::Request> out;
  for (const char* platform : kPlatforms)
    for (const core::KernelId k : kKernels) {
      const std::string line = std::string("{\"type\":\"") + sweep_type(k) +
                               "\",\"platform\":\"" + platform + "\",\"kernel\":\"" +
                               protocol::kernel_name(k) + "\"}";
      protocol::Request req;
      protocol::Error err;
      if (!protocol::parse_request(line, &req, &err))
        throw std::runtime_error("cache_effectiveness: " + err.message);
      out.push_back(std::move(req));
    }
  return out;
}

/// Every (platform x kernel x objective) advise question — 96 keys — or,
/// in quick mode, the 16 perf questions on the two DDR-only baselines.
std::vector<advise::AdviseRequest> advise_requests(bool quick) {
  std::vector<advise::AdviseRequest> out;
  for (const char* platform : kPlatforms) {
    const std::string p = platform;
    if (quick && p != "broadwell-edram-off" && p != "knl-ddr") continue;
    for (const core::KernelId k : kKernels)
      for (const auto objective : {advise::Objective::kPerf, advise::Objective::kEnergy}) {
        if (quick && objective != advise::Objective::kPerf) continue;
        out.push_back({.kernel = k, .platform = p, .objective = objective});
      }
  }
  return out;
}

struct LayerResult {
  std::vector<util::BenchMetric> metrics;  ///< cold, disk-warm, mem-warm, disk speedup
  double disk_speedup = 0.0;
  double mem_speedup = 0.0;
  std::size_t keys = 0;
  bool identical = true;
};

/// Cold, disk-warm and memory-warm passes over one cached layer of `keys`
/// payloads; `payload(i)` looks up (or computes and stores) the i-th.
LayerResult measure(const std::string& layer, std::size_t keys, int warm_repeats, int mem_iters,
                    const std::function<std::string(std::size_t)>& payload) {
  std::vector<std::string> cold(keys);
  // Timed warm passes use each payload as a server would (take it, drop
  // it); the bit-identity check runs in untimed passes of its own below.
  std::size_t bytes = 0;
  const auto warm_pass = [&] {
    for (std::size_t i = 0; i < keys; ++i) bytes += payload(i).size();
  };
  std::size_t mismatches = 0;
  const auto check_pass = [&] {
    for (std::size_t i = 0; i < keys; ++i)
      if (payload(i) != cold[i]) ++mismatches;
  };
  /// Cache hits and misses of one phase, summed over its passes.
  struct Tally {
    std::size_t hits = 0;
    std::size_t misses = 0;
  };
  const auto counted = [](Tally& tally, const auto& pass) {
    const core::CacheStats s0 = core::result_cache_stats();
    pass();
    const core::CacheStats s1 = core::result_cache_stats();
    tally.hits += s1.hits() - s0.hits();
    tally.misses += s1.misses - s0.misses;
  };
  Tally cold_tally, disk_tally, mem_tally;

  // Cold pass: the layer's first pass in this process computes, renders
  // and stores every payload, paying what a freshly started server pays
  // (the advisor's per-process probe simulations included) — the cost the
  // disk tier exists to save across restarts. One sample by construction:
  // running it fills the cache.
  bench::Sampler cold_sampler({.warmup = 0, .iters = 1, .repeats = 1});
  cold_sampler.run([&] {
    counted(cold_tally, [&] {
      for (std::size_t i = 0; i < keys; ++i) cold[i] = payload(i);
    });
  });
  const double cold_ms = cold_sampler.aggregate_ns().median / 1e6;

  // Disk-warm passes: the setup hook drops the memory tier before every
  // repeat (re-applying the configuration clears it), so each sample
  // re-reads and re-validates every .opmrec record. No warmup — a warmup
  // pass would re-populate the memory tier.
  bench::Sampler disk_sampler({.warmup = 0, .iters = 1, .repeats = warm_repeats});
  disk_sampler.run([](int) { core::configure_result_cache(core::result_cache_config()); },
                   [&] { counted(disk_tally, warm_pass); });
  core::configure_result_cache(core::result_cache_config());
  check_pass();

  // Memory-warm passes: everything already resident in the sharded LRU.
  bench::Sampler mem_sampler({.warmup = 1, .iters = mem_iters, .repeats = warm_repeats});
  mem_sampler.run([&] { counted(mem_tally, warm_pass); });
  check_pass();

  LayerResult r;
  r.keys = keys;
  r.identical = mismatches == 0 && bytes > 0;
  util::BenchMetric m_cold = bench::time_metric_ms(layer + "/cold_ms", cold_sampler);
  util::BenchMetric m_disk = bench::time_metric_ms(layer + "/disk_warm_ms", disk_sampler);
  util::BenchMetric m_mem = bench::time_metric_ms(layer + "/mem_warm_ms", mem_sampler);

  // Per-repeat speedup samples: cold wall over each disk-warm sample — a
  // machine-speed-invariant trajectory of the cache's benefit.
  std::vector<std::vector<double>> speedups;
  for (const auto& rep : disk_sampler.samples_ns()) {
    std::vector<double> s;
    for (double ns : rep) s.push_back(ns > 0.0 ? cold_ms / (ns / 1e6) : 0.0);
    speedups.push_back(std::move(s));
  }
  util::BenchMetric m_speedup =
      bench::value_metric(layer + "/disk_speedup", "x", /*higher_is_better=*/true, speedups);
  r.disk_speedup = m_speedup.summary.median;
  r.mem_speedup = m_mem.summary.median > 0.0 ? cold_ms / m_mem.summary.median : 0.0;

  const auto row = [&](const std::string& phase, const util::BenchMetric& m, double speedup,
                       const Tally& tally, const std::string& source) {
    std::cout << util::pad(layer, 16) << util::pad(phase, 13)
              << util::pad(util::format_fixed(m.summary.median, 2) + " ms", 13)
              << util::pad(util::format_fixed(m.summary.cv * 100.0, 1) + "%", 8)
              << util::pad(util::format_fixed(speedup, 2) + "x", 10)
              << util::pad(std::to_string(tally.hits), 7)
              << util::pad(std::to_string(tally.misses), 8) << source << "\n";
  };
  row("cold", m_cold, 1.0, cold_tally, "compute + store");
  row("disk-warm", m_disk, r.disk_speedup, disk_tally,
      ".opmrec records, re-validated x" + std::to_string(warm_repeats));
  row("memory-warm", m_mem, r.mem_speedup, mem_tally, "sharded LRU");
  r.metrics = {m_cold, m_disk, m_mem, m_speedup};
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;

  core::SweepConfig cfg = bench::init(argc, argv);
  const util::Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  const std::string out_path = cli.get("out", "BENCH_cache.json");
  const int warm_repeats = quick ? 3 : 5;
  const int mem_iters = quick ? 2 : 3;
  bench::banner("Cache effectiveness",
                "cold vs warm serve sweep payloads and advise payloads through "
                "core::ResultCache");

  // A private subdirectory of the configured cache dir, wiped up front so
  // the first pass is genuinely cold even across repeated invocations.
  cfg.cache.enabled = true;
  cfg.cache.disk = true;
  cfg.cache.dir = (fs::path(cfg.cache.dir) / "cache_effectiveness").string();
  std::error_code ec;
  fs::remove_all(cfg.cache.dir, ec);
  core::configure_result_cache(cfg.cache);
  core::reset_result_cache_stats();

  const std::vector<protocol::Request> sweeps = paper_sweep_requests();
  const std::vector<advise::AdviseRequest> advice = advise_requests(quick);
  protocol::serve_suite();  // built once per process, outside the timed passes

  std::cout << "\n" << util::pad("layer", 16) << util::pad("phase", 13)
            << util::pad("median wall", 13) << util::pad("cv", 8) << util::pad("speedup", 10)
            << util::pad("hits", 7) << util::pad("misses", 8) << "source\n";
  const LayerResult sweep_layer =
      measure("sweep_payload", sweeps.size(), warm_repeats, mem_iters, [&](std::size_t i) {
        bool hit = false;
        return protocol::escaped_sweep_payload(sweeps[i], &hit);
      });
  const LayerResult advise_layer =
      measure("advise_payload", advice.size(), warm_repeats, mem_iters,
              [&](std::size_t i) { return advise::run_and_render(advice[i]); });

  const core::CacheStats totals = core::result_cache_stats();
  std::cout << "\nkeys: " << sweep_layer.keys << " sweep payloads, " << advise_layer.keys
            << " advise payloads; bytes stored: " << totals.bytes_stored
            << ", bytes loaded (all phases): " << totals.bytes_loaded
            << ", faults: " << totals.faults() << "\n";
  const bool identical = sweep_layer.identical && advise_layer.identical;
  std::cout << "bit-identical cold vs warm: " << (identical ? "yes" : "NO") << "\n";

  util::BenchReport report = bench::make_report("cache", quick);
  report.knobs.emplace_back("warm_repeats", warm_repeats);
  report.knobs.emplace_back("mem_iters", mem_iters);
  report.knobs.emplace_back("sweep_keys", static_cast<double>(sweep_layer.keys));
  report.knobs.emplace_back("advise_keys", static_cast<double>(advise_layer.keys));
  for (const LayerResult* layer : {&sweep_layer, &advise_layer})
    report.metrics.insert(report.metrics.end(), layer->metrics.begin(), layer->metrics.end());
  if (!bench::write_report(report, out_path)) return 1;

  bench::print_sweep_stats("cache_effectiveness");

  const bool fast_enough = sweep_layer.disk_speedup >= 10.0 && advise_layer.disk_speedup >= 10.0;
  bench::shape_note(
      std::string("Cache contract: warm payloads are bit-identical to cold (") +
      (identical ? "holds" : "VIOLATED") + ") and on each layer the MEDIAN disk-warm pass "
      "runs >= 10x faster than cold (sweep payloads " +
      util::format_fixed(sweep_layer.disk_speedup, 1) + "x, advise payloads " +
      util::format_fixed(advise_layer.disk_speedup, 1) + "x: " +
      (fast_enough ? "holds" : "VIOLATED") + "); the memory tier reaches " +
      util::format_fixed(sweep_layer.mem_speedup, 1) + "x / " +
      util::format_fixed(advise_layer.mem_speedup, 1) + "x over cold. This is the "
      "paper's on-package-memory story applied to the service itself: a near tier pays "
      "where reuse meets an expensive miss, so the cache sits only in front of rendered "
      "payloads, never in front of the cheap analytic sweeps.");
  return (identical && fast_enough) ? 0 : 1;
}
