#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep_config.hpp"
#include "sim/platform.hpp"
#include "sparse/collection.hpp"
#include "util/ascii_plot.hpp"
#include "util/bench_report.hpp"
#include "util/stats.hpp"

/// Shared plumbing for the figure-reproduction harnesses.
///
/// Every harness prints: a banner identifying the paper artifact, a CSV
/// block for downstream plotting, an ASCII rendition of the figure's
/// shape, and a "paper vs reproduced" note block.
namespace opm::bench {

/// Resolves and applies the process-wide sweep configuration: bench
/// defaults (hardware workers, telemetry on, cache enabled under
/// ".opm-cache"), overlaid by environment, overlaid by CLI. Call it first
/// thing in main(); returns the resolved config for harness-local use.
///
///   --sweep-workers=N    worker count      (env OPM_SWEEP_WORKERS)
///   --cache-dir=PATH     disk-cache dir    (env OPM_CACHE_DIR)
///   --no-cache           disable the cache (env OPM_NO_CACHE=1)
///   --no-sweep-stats     mute telemetry    (env OPM_SWEEP_STATS=0)
core::SweepConfig init(int argc, const char* const* argv);

/// Prints the standard banner for one paper artifact.
void banner(const std::string& artifact, const std::string& title);

/// Prints a closing block comparing the paper's claim with what this
/// harness produced (free text; each harness states its own checks).
void shape_note(const std::string& note);

/// The 968-matrix suite, constructed once per process (thread-safe magic
/// static — sweep workers may race on first use).
const sparse::SyntheticCollection& paper_suite();

/// Renders a dense (n, nb) sweep as the Figure 7/8/15/16 heat map:
/// matrix order on x, tile size on y, mean GFlop/s as color.
void print_dense_heatmap(const std::string& label, const std::vector<core::SweepPoint>& points);

/// Emits the dense sweep as CSV (n, nb, gflops).
void print_dense_csv(const std::string& label, const std::vector<core::SweepPoint>& points);

/// Renders the sparse "triptych" of Figures 9-11: raw throughput scatter
/// vs footprint, speedup vs footprint against a baseline, and the
/// structure heat map over (nonzeros, rows) in log space.
void print_sparse_triptych(const std::string& kernel, const std::string& base_label,
                           const std::vector<core::SweepPoint>& base,
                           const std::string& opm_label,
                           const std::vector<core::SweepPoint>& opm);

/// Renders just the structure heat map (Figures 20-22).
void print_structure_heatmap(const std::string& label,
                             const std::vector<core::SweepPoint>& points);

/// Renders footprint-sweep curves (Figures 12-14, 23-25) for several
/// modes; `series` x is footprint bytes, y is GFlop/s.
void print_footprint_curves(const std::string& y_label,
                            const std::vector<util::Series>& series);

/// Per-mode footprint sweep helper: runs `kernel` on each platform and
/// names the series by the platform's mode label.
std::vector<util::Series> footprint_series(const std::vector<sim::Platform>& platforms,
                                           core::KernelId kernel, double fp_lo, double fp_hi,
                                           std::size_t points);

/// The four KNL mode platforms in the paper's order (DDR, cache, flat,
/// hybrid).
std::vector<sim::Platform> knl_modes();

/// Broadwell with and without eDRAM.
std::vector<sim::Platform> broadwell_modes();

// ---------------------------------------------------------------------------
// The statistical benchmark contract (docs/MODEL.md §12). Every perf
// harness measures through bench::Sampler (warmup, prefault hook,
// per-iteration ns samples, repeat loops) and emits one versioned
// util::BenchReport so tools/opm_benchdiff can gate the trajectory.
// ---------------------------------------------------------------------------

/// Shape of one standardized measurement loop.
struct SampleSpec {
  int warmup = 1;   ///< unmeasured iterations per repeat (cache/frequency settle)
  int iters = 5;    ///< measured iterations per repeat, one ns sample each
  int repeats = 3;  ///< repeat loops; aggregation is median-of-medians
};

/// Collects per-iteration wall-nanosecond samples grouped by repeat.
///
/// The loop per repeat: `setup(repeat)` (unmeasured — fresh state,
/// prefault), `warmup` unmeasured calls of `fn`, then `iters` measured
/// calls. Harnesses whose samples come from elsewhere (per-request
/// latencies, phase timings) push them with add_repeat() and still get the
/// same aggregation and report shape.
class Sampler {
 public:
  explicit Sampler(SampleSpec spec) : spec_(spec) {}

  template <class Setup, class Fn>
  void run(Setup&& setup, Fn&& fn) {
    samples_ns_.clear();
    for (int r = 0; r < spec_.repeats; ++r) {
      setup(r);
      for (int w = 0; w < spec_.warmup; ++w) fn();
      std::vector<double> ns;
      ns.reserve(static_cast<std::size_t>(spec_.iters));
      for (int i = 0; i < spec_.iters; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        ns.push_back(std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
      }
      samples_ns_.push_back(std::move(ns));
    }
  }

  template <class Fn>
  void run(Fn&& fn) {
    run([](int) {}, fn);
  }

  /// Appends one repeat's worth of externally collected ns samples.
  void add_repeat(std::vector<double> ns) { samples_ns_.push_back(std::move(ns)); }

  const SampleSpec& spec() const { return spec_; }
  const std::vector<std::vector<double>>& samples_ns() const { return samples_ns_; }
  util::SampleSummary aggregate_ns() const { return util::aggregate_repeats(samples_ns_); }

 private:
  SampleSpec spec_;
  std::vector<std::vector<double>> samples_ns_;
};

/// Touches one byte per 4 KiB page so first-touch faults land outside the
/// timed region. Call from the Sampler setup hook on fresh buffers.
void prefault(void* data, std::size_t bytes);

/// Wall-time metric in milliseconds (lower is better) from the sampler's
/// ns samples.
util::BenchMetric time_metric_ms(const std::string& name, const Sampler& sampler);

/// Rate metric (higher is better): `work_per_iter` units divided by each
/// iteration's seconds, e.g. lines/s, req/s, ops/s.
util::BenchMetric rate_metric(const std::string& name, const std::string& unit,
                              double work_per_iter, const Sampler& sampler);

/// Metric from raw per-repeat value samples already in the target unit.
util::BenchMetric value_metric(const std::string& name, const std::string& unit,
                               bool higher_is_better,
                               const std::vector<std::vector<double>>& repeats);

/// Skeleton report for this harness: schema/version fields, the git
/// revision baked in at configure time, and the environment snapshot
/// (threads, compiler, build type). Callers fill knobs and metrics.
util::BenchReport make_report(const std::string& bench, bool quick);

/// Writes the canonical serialization (plus trailing newline) and prints
/// a "wrote <path>" note; false on IO failure (message on stdout).
bool write_report(const util::BenchReport& report, const std::string& path);

/// Drains the sweep engine's stats log and prints it as a
/// `csv:<label>_sweep_stats` block plus one JSON line per sweep, so every
/// harness's output carries the scheduler telemetry (tasks, steals,
/// per-worker busy time, wall time) of the sweeps it ran, followed by the
/// process's cache.* totals when the result cache is on. Muted — but
/// still drained — when core::sweep_telemetry() is off, which is how
/// byte-identity checks of harness stdout keep outputs deterministic.
void print_sweep_stats(const std::string& label);

}  // namespace opm::bench
