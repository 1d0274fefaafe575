// Exercises the parallel sweep engine itself: runs the 968-matrix sparse
// suite and a dense (n, nb) grid serially (workers = 0) and through the
// work-stealing pool (workers = hardware concurrency), checks the outputs
// are bit-identical, and reports wall times plus the engine's SweepStats
// telemetry.
//
// Timing follows the statistical perf contract (docs/MODEL.md §12):
// every configuration is measured through bench::Sampler (warmup
// iteration, per-iteration ns samples, repeat loops) and the harness
// emits BENCH_sweep.json in the shared opm-bench schema — the sweep
// engine's committed trajectory, diffed in CI by tools/opm_benchdiff.
//
//   --quick      fewer measured iterations (CI perf job)
//   --out=PATH   JSON output path (default BENCH_sweep.json)
#include <iostream>
#include <thread>

#include "common.hpp"
#include "core/sweep.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace opm;
  bench::init(argc, argv);
  const util::Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  const std::string out_path = cli.get("out", "BENCH_sweep.json");
  bench::banner("Sweep engine", "work-stealing parallel sweeps with deterministic reduction");

  const auto& suite = bench::paper_suite();
  const sim::Platform knl = sim::knl(sim::McdramMode::kFlat);
  const sim::Platform brd = sim::broadwell(sim::EdramMode::kOn);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const bench::SampleSpec spec{.warmup = 1, .iters = quick ? 3 : 6, .repeats = 3};

  const auto sparse_sweep = [&] {
    return core::sweep_sparse(knl, {.kernel = core::KernelId::kSpmv}, suite);
  };
  const auto dense_sweep = [&] {
    return core::sweep_dense(brd, {.kernel = core::KernelId::kGemm,
                                   .n_lo = 256.0,
                                   .n_hi = 16128.0,
                                   .n_step = 1024.0,
                                   .nb_lo = 128.0,
                                   .nb_hi = 4096.0,
                                   .nb_step = 256.0});
  };

  // One measured configuration: set the worker count, sample the sweep,
  // and keep the last result for the bit-identity check.
  std::vector<core::SweepPoint> sparse_serial, dense_serial, sparse_par, dense_par;
  const auto measure = [&](std::size_t workers, auto& sweep, auto& out) {
    core::set_sweep_workers(workers);
    sweep();  // warm-up outside the sampler: first parallel sweep spawns the pool
    core::drain_sweep_stats();
    bench::Sampler sampler(spec);
    sampler.run([&] { out = sweep(); });
    return sampler;
  };

  const bench::Sampler sparse_serial_s = measure(0, sparse_sweep, sparse_serial);
  const bench::Sampler dense_serial_s = measure(0, dense_sweep, dense_serial);
  const bench::Sampler sparse_par_s = measure(hw, sparse_sweep, sparse_par);
  const bench::Sampler dense_par_s = measure(hw, dense_sweep, dense_par);

  const bool sparse_identical = sparse_serial == sparse_par;
  const bool dense_identical = dense_serial == dense_par;

  util::BenchMetric m_sparse_serial = bench::time_metric_ms("sparse_spmv/serial_ms", sparse_serial_s);
  util::BenchMetric m_dense_serial = bench::time_metric_ms("dense_gemm_grid/serial_ms", dense_serial_s);
  util::BenchMetric m_sparse_par = bench::time_metric_ms("sparse_spmv/parallel_ms", sparse_par_s);
  util::BenchMetric m_dense_par = bench::time_metric_ms("dense_gemm_grid/parallel_ms", dense_par_s);

  const auto speedup = [](const util::BenchMetric& serial, const util::BenchMetric& par) {
    return par.summary.median > 0.0 ? serial.summary.median / par.summary.median : 0.0;
  };

  std::cout << "\nworkers: serial=0 vs parallel=" << hw << " (hardware concurrency), "
            << spec.repeats << " repeats x " << spec.iters
            << " iterations per measurement (median-of-medians)\n\n";
  const auto print_row = [&](const std::string& label, std::size_t points,
                             const util::BenchMetric& serial, const util::BenchMetric& par,
                             bool identical) {
    std::cout << util::pad(label, 26) << util::pad(std::to_string(points), 8)
              << util::pad(util::format_fixed(serial.summary.median, 1) + " ms", 11)
              << util::pad(util::format_fixed(par.summary.median, 1) + " ms", 11)
              << util::pad(util::format_fixed(speedup(serial, par), 2) + "x", 9)
              << util::pad("cv " + util::format_fixed(
                               std::max(serial.summary.cv, par.summary.cv) * 100.0, 1) +
                               "%",
                           10)
              << (identical ? "yes" : "NO — DETERMINISM BROKEN") << "\n";
  };
  print_row("sweep_sparse:SpMV (968)", sparse_serial.size(), m_sparse_serial, m_sparse_par,
            sparse_identical);
  print_row("sweep_dense:GEMM grid", dense_serial.size(), m_dense_serial, m_dense_par,
            dense_identical);

  util::BenchReport report = bench::make_report("sweep", quick);
  report.knobs.emplace_back("warmup", spec.warmup);
  report.knobs.emplace_back("iters", spec.iters);
  report.knobs.emplace_back("repeats", spec.repeats);
  report.knobs.emplace_back("sparse_points", static_cast<double>(sparse_serial.size()));
  report.knobs.emplace_back("dense_points", static_cast<double>(dense_serial.size()));
  report.metrics = {m_sparse_serial, m_sparse_par, m_dense_serial, m_dense_par};
  if (!bench::write_report(report, out_path)) return 1;

  bench::print_sweep_stats("sweep_engine");

  bench::shape_note(
      std::string("Engine guarantee: parallel output is bit-identical to serial for every "
                  "sweep (") +
      (sparse_identical && dense_identical ? "holds" : "VIOLATED") +
      " on this run); speedup scales with cores — on a single-core container the pool "
      "adds only scheduling overhead, on >= 4 cores the 968-matrix sweep runs >= 2x "
      "faster. Medians and CVs across repeats land in BENCH_sweep.json for the CI "
      "trajectory gate.");
  return (sparse_identical && dense_identical) ? 0 : 1;
}
