#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <thread>

#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/histogram.hpp"

#ifndef OPM_GIT_REV
#define OPM_GIT_REV "unknown"
#endif
#ifndef OPM_BUILD_TYPE
#define OPM_BUILD_TYPE "unknown"
#endif

namespace opm::bench {

core::SweepConfig init(int argc, const char* const* argv) {
  const core::SweepConfig cfg = core::resolve_sweep_config(argc, argv);
  core::apply_sweep_config(cfg);
  return cfg;
}

void banner(const std::string& artifact, const std::string& title) {
  std::cout << "\n================================================================\n"
            << artifact << " — " << title << "\n"
            << "================================================================\n";
}

void shape_note(const std::string& note) {
  std::cout << "\n[paper-vs-reproduced] " << note << "\n";
}

const sparse::SyntheticCollection& paper_suite() {
  static const auto suite = sparse::SyntheticCollection::paper_suite();
  return suite;
}

void print_dense_heatmap(const std::string& label, const std::vector<core::SweepPoint>& points) {
  if (points.empty()) return;
  double x_hi = 0.0, y_hi = 0.0;
  for (const auto& p : points) {
    x_hi = std::max(x_hi, p.x);
    y_hi = std::max(y_hi, p.y);
  }
  util::Grid2D grid(0.0, x_hi * 1.001, 32, 0.0, y_hi * 1.001, 16);
  double best = 0.0;
  for (const auto& p : points) {
    grid.add(p.x, p.y, p.gflops);
    best = std::max(best, p.gflops);
  }
  std::cout << "\n-- " << label << " (best " << util::format_fixed(best, 1) << " GFlop/s)\n";
  std::cout << util::render_heatmap(grid, "matrix order", "tile size");
}

void print_dense_csv(const std::string& label, const std::vector<core::SweepPoint>& points) {
  std::cout << "\ncsv:" << label << "\n";
  util::CsvWriter csv(std::cout);
  csv.header({"n", "nb", "gflops"});
  for (const auto& p : points) csv.row(p.x, p.y, util::format_fixed(p.gflops, 2));
}

namespace {
util::Grid2D structure_grid(const std::vector<core::SweepPoint>& points, bool speedup_mode,
                            const std::vector<core::SweepPoint>* base) {
  util::Grid2D grid(5.0, 8.5, 28, 3.0, 7.0, 14);  // log10(nnz) x log10(rows)
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    const double value = speedup_mode && base ? p.gflops / std::max((*base)[i].gflops, 1e-9)
                                              : p.gflops;
    grid.add(std::log10(std::max(p.nnz, 1.0)), std::log10(std::max(p.rows, 1.0)), value);
  }
  return grid;
}
}  // namespace

void print_sparse_triptych(const std::string& kernel, const std::string& base_label,
                           const std::vector<core::SweepPoint>& base,
                           const std::string& opm_label,
                           const std::vector<core::SweepPoint>& opm) {
  // Panel 1: raw throughput vs footprint (scatter, both configurations).
  util::Series s_base{base_label, {}, {}};
  util::Series s_opm{opm_label, {}, {}};
  for (const auto& p : base) {
    s_base.x.push_back(p.footprint / (1024.0 * 1024.0));
    s_base.y.push_back(p.gflops);
  }
  for (const auto& p : opm) {
    s_opm.x.push_back(p.footprint / (1024.0 * 1024.0));
    s_opm.y.push_back(p.gflops);
  }
  std::cout << "\n-- " << kernel << ": raw throughput vs memory footprint (MB)\n";
  const util::Series raw[] = {s_opm, s_base};
  std::cout << util::render_line_plot(raw, 72, 14, true, "footprint [MB]", "GFlop/s");

  // Panel 2: speedup vs footprint.
  util::Series s_speed{opm_label + " / " + base_label, {}, {}};
  double avg = 0.0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const double sp = opm[i].gflops / std::max(base[i].gflops, 1e-9);
    s_speed.x.push_back(base[i].footprint / (1024.0 * 1024.0));
    s_speed.y.push_back(sp);
    avg += sp;
  }
  avg /= static_cast<double>(std::max<std::size_t>(base.size(), 1));
  std::cout << "\n-- " << kernel << ": speedup vs footprint (avg "
            << util::format_speedup(avg) << ")\n";
  const util::Series sp[] = {s_speed};
  std::cout << util::render_line_plot(sp, 72, 10, true, "footprint [MB]", "speedup");

  // Panel 3: structure heat map of the speedup over (nonzeros, rows).
  std::cout << "\n-- " << kernel << ": speedup by sparse structure\n";
  std::cout << util::render_heatmap(structure_grid(opm, true, &base), "log10(nonzeros)",
                                    "log10(rows)");

  // CSV of all three panels.
  std::cout << "\ncsv:" << kernel << "_sparse_sweep\n";
  util::CsvWriter csv(std::cout);
  csv.header({"id", "rows", "nnz", "footprint_mb", "gflops_base", "gflops_opm", "speedup"});
  for (std::size_t i = 0; i < base.size(); ++i)
    csv.row(base[i].input_id, base[i].rows, base[i].nnz,
            util::format_fixed(base[i].footprint / (1024.0 * 1024.0), 2),
            util::format_fixed(base[i].gflops, 3), util::format_fixed(opm[i].gflops, 3),
            util::format_fixed(opm[i].gflops / std::max(base[i].gflops, 1e-9), 3));
}

void print_structure_heatmap(const std::string& label,
                             const std::vector<core::SweepPoint>& points) {
  std::cout << "\n-- " << label << ": throughput by sparse structure\n";
  std::cout << util::render_heatmap(structure_grid(points, false, nullptr), "log10(nonzeros)",
                                    "log10(rows)");
}

void print_footprint_curves(const std::string& y_label,
                            const std::vector<util::Series>& series) {
  std::cout << "\n" << util::render_line_plot(series, 72, 16, true, "footprint [MB]", y_label);
  std::cout << "\ncsv:footprint_sweep\n";
  util::CsvWriter csv(std::cout);
  std::vector<std::string> head = {"footprint_mb"};
  for (const auto& s : series) head.push_back(s.name);
  csv.row_strings(head);
  if (!series.empty()) {
    for (std::size_t i = 0; i < series[0].x.size(); ++i) {
      std::vector<std::string> row = {util::format_fixed(series[0].x[i], 3)};
      for (const auto& s : series) row.push_back(util::format_fixed(s.y[i], 3));
      csv.row_strings(row);
    }
  }
}

std::vector<util::Series> footprint_series(const std::vector<sim::Platform>& platforms,
                                           core::KernelId kernel, double fp_lo, double fp_hi,
                                           std::size_t points) {
  std::vector<util::Series> out;
  for (const auto& p : platforms) {
    util::Series s{p.mode_label, {}, {}};
    for (const auto& pt : core::sweep_footprint_kernel(
             p, {.kernel = kernel, .fp_lo = fp_lo, .fp_hi = fp_hi, .points = points})) {
      s.x.push_back(pt.x / (1024.0 * 1024.0));
      s.y.push_back(pt.gflops);
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<sim::Platform> knl_modes() {
  return {sim::knl(sim::McdramMode::kOff), sim::knl(sim::McdramMode::kCache),
          sim::knl(sim::McdramMode::kFlat), sim::knl(sim::McdramMode::kHybrid)};
}

std::vector<sim::Platform> broadwell_modes() {
  return {sim::broadwell(sim::EdramMode::kOff), sim::broadwell(sim::EdramMode::kOn)};
}

void prefault(void* data, std::size_t bytes) {
  volatile char* p = static_cast<char*>(data);
  for (std::size_t off = 0; off < bytes; off += 4096) p[off] = p[off];
  if (bytes > 0) p[bytes - 1] = p[bytes - 1];
}

util::BenchMetric time_metric_ms(const std::string& name, const Sampler& sampler) {
  std::vector<std::vector<double>> ms;
  ms.reserve(sampler.samples_ns().size());
  for (const auto& rep : sampler.samples_ns()) {
    std::vector<double> scaled;
    scaled.reserve(rep.size());
    for (double ns : rep) scaled.push_back(ns / 1e6);
    ms.push_back(std::move(scaled));
  }
  return value_metric(name, "ms", /*higher_is_better=*/false, ms);
}

util::BenchMetric rate_metric(const std::string& name, const std::string& unit,
                              double work_per_iter, const Sampler& sampler) {
  std::vector<std::vector<double>> rates;
  rates.reserve(sampler.samples_ns().size());
  for (const auto& rep : sampler.samples_ns()) {
    std::vector<double> r;
    r.reserve(rep.size());
    for (double ns : rep) r.push_back(ns > 0.0 ? work_per_iter / (ns * 1e-9) : 0.0);
    rates.push_back(std::move(r));
  }
  return value_metric(name, unit, /*higher_is_better=*/true, rates);
}

util::BenchMetric value_metric(const std::string& name, const std::string& unit,
                               bool higher_is_better,
                               const std::vector<std::vector<double>>& repeats) {
  util::BenchMetric m;
  m.name = name;
  m.unit = unit;
  m.higher_is_better = higher_is_better;
  m.repeats = repeats.size();
  m.iters = repeats.empty() ? 0 : repeats.front().size();
  m.summary = util::aggregate_repeats(repeats);
  for (const auto& rep : repeats)
    if (!rep.empty()) m.repeat_medians.push_back(util::median(rep));
  return m;
}

util::BenchReport make_report(const std::string& bench, bool quick) {
  util::BenchReport r;
  r.bench = bench;
  r.git_rev = OPM_GIT_REV;
  r.quick = quick;
  r.environment.emplace_back("compiler", __VERSION__);
  r.environment.emplace_back("build", OPM_BUILD_TYPE);
  r.environment.emplace_back(
      "hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  return r;
}

bool write_report(const util::BenchReport& report, const std::string& path) {
  std::string error;
  if (!report.write_file(path, &error)) {
    std::cout << "bench: FAILED to write report: " << error << "\n";
    return false;
  }
  std::cout << "\nwrote " << path << " (schema " << util::kBenchSchemaName << " v"
            << util::kBenchSchemaVersion << ", " << report.metrics.size()
            << " metrics)\n";
  return true;
}

void print_sweep_stats(const std::string& label) {
  const auto stats = core::drain_sweep_stats();
  if (!core::sweep_telemetry()) return;  // drained either way, printed only when on
  if (stats.empty()) return;
  std::cout << "\ncsv:" << label << "_sweep_stats\n";
  core::write_sweep_stats_csv(std::cout, stats);
  for (const auto& s : stats) std::cout << "json:" << core::sweep_stats_json(s) << "\n";
  if (core::result_cache_config().enabled)
    std::cout << "json:" << core::cache_totals_json() << "\n";
}

}  // namespace opm::bench
