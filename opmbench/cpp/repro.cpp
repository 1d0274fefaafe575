// repro-cold: the paper reproduction, every table/figure/ablation/
// validation harness in sequence with the result cache off.
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <numeric>
#include <stdexcept>

#include "common.hpp"
#include "core/sweep.hpp"
#include "core/sweep_config.hpp"
#include "core/validation.hpp"
#include "dense/matrix.hpp"
#include "gen.hpp"
#include "kernels/gemm.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stencil.hpp"
#include "kernels/stream.hpp"
#include "proc.hpp"
#include "sim/memory_system.hpp"
#include "sparse/generators.hpp"
#include "sparse/stats.hpp"
#include "trace/recorder.hpp"
#include "trace/reuse.hpp"
#include "util/fingerprint.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace opmbench {
namespace {

/// Set-up probes per round.
constexpr int kProbes = 3;

struct Harness {
  std::string name;
  std::string digest;  ///< expected Hasher128 hex of its stdout
};

std::vector<Harness> read_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest table " + path);
  std::vector<Harness> out;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) throw std::runtime_error("bad digest line: " + line);
    out.push_back({line.substr(0, space), line.substr(space + 1)});
  }
  if (out.empty()) throw std::runtime_error("empty digest table " + path);
  return out;
}

std::string digest_of(const std::string& text) {
  opm::util::Hasher128 h;
  h.add(std::string_view(text));
  return h.digest().hex();
}

std::vector<std::string> harness_argv(const Options& opt, const Harness& h) {
  return {opt.bin_dir + "/bench/" + h.name, "--no-cache", "--no-sweep-stats",
          "--sweep-workers=" + std::to_string(kSweepWorkers)};
}

/// One pass over `order` (indices into `harnesses`), one harness at a time.
struct Pass {
  double wall_s = 0.0;
  std::vector<Exit> exits;            ///< in `order` order
  std::vector<std::size_t> bytes;     ///< stdout bytes, in `order` order
  std::size_t bad = 0;                ///< nonzero exits + digest mismatches
};

Pass run_pass(const Options& opt, const std::vector<Harness>& harnesses,
              const std::vector<std::size_t>& order, Result& res) {
  Pass pass;
  const double t0 = mono_s();
  for (std::size_t i : order) {
    Child child(harness_argv(opt, harnesses[i]), "harness-" + harnesses[i].name + ".out",
                "/dev/null");
    pass.exits.push_back(child.wait());
  }
  pass.wall_s = mono_s() - t0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Harness& h = harnesses[order[k]];
    const std::string text = read_file("harness-" + h.name + ".out");
    pass.bytes.push_back(text.size());
    const bool ok = pass.exits[k].ok() && digest_of(text) == h.digest;
    if (!ok) {
      ++pass.bad;
      if (res.problems.size() < 8)
        res.problems.push_back("harness " + h.name +
                               (pass.exits[k].ok() ? " printed output that differs from the "
                                                     "digest table"
                                                   : " exited with an error"));
    }
  }
  res.attempted += order.size();
  res.failed += pass.bad;
  return pass;
}

std::vector<std::size_t> seeded_order(std::size_t n, opm::util::Xoshiro256& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.bounded(i)]);
  return order;
}

/// Adds one span per harness run of `pass` under `parent`.
void trace_pass(Tracer& tr, const Pass& pass, const std::vector<Harness>& harnesses,
                const std::vector<std::size_t>& order, int parent) {
  const double shift = tr.now() - mono_s();
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Exit& e = pass.exits[k];
    tr.add("harness." + harnesses[order[k]].name, e.start_s + shift,
           e.start_s + e.wall_s + shift, parent);
  }
}

// ---- In-process probes of the layers the harnesses spend their time in ----

struct SimTally {
  std::uint64_t lines = 0;
};

/// One trace through the exact simulator (Broadwell, eDRAM off), as the
/// prefetcher ablation runs it.
template <class Body>
void simulate(Tracer& tr, SimTally& tally, bool prefetch, Body&& body) {
  opm::sim::MemorySystem ms(opm::sim::broadwell(opm::sim::EdramMode::kOff));
  if (prefetch) ms.enable_prefetcher(16, 8);
  opm::trace::SystemRecorder rec(ms);
  {
    Scope s(tr, "sim.exact");
    body(rec);
  }
  tally.lines += ms.lines_simulated();
}

/// The prefetcher, replacement and validation traces through
/// sim::MemorySystem, and the validation traces through the reuse-distance
/// analyzer + core::validate_model.
SimTally probe_sim_and_trace(Tracer& tr) {
  using namespace opm;
  SimTally tally;
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);

  // Prefetcher ablation traces: TRIAD over 3 x 4 MiB, random SpMV 60000 rows.
  {
    const std::size_t n = (4 * util::MiB) / 8;
    std::vector<double> a(n), b(n), c(n);
    int id = tr.begin("sparse.generate");
    const sparse::Csr m = sparse::make_random_uniform(60000, 12.0, 3);
    tr.end(id);
    std::vector<double> x(60000, 1.0), y(60000);
    for (bool prefetch : {false, true}) {
      simulate(tr, tally, prefetch,
               [&](auto& rec) { kernels::stream_triad_instrumented(a, b, c, 1.0, rec); });
      simulate(tr, tally, prefetch, [&](auto& rec) { kernels::spmv_csr_instrumented(m, x, y, rec); });
    }
  }
  // Replacement ablation traces: banded and scattered SpMV, TRIAD 2 MiB x 2.
  for (const bool banded : {true, false}) {
    int id = tr.begin("sparse.generate");
    const sparse::Csr a = banded ? sparse::make_banded(20000, 16, 10.0, 1)
                                 : sparse::make_random_uniform(20000, 10.0, 1);
    tr.end(id);
    std::vector<double> x(20000, 1.0), y(20000);
    simulate(tr, tally, false, [&](auto& rec) { kernels::spmv_csr_instrumented(a, x, y, rec); });
  }
  {
    const std::size_t n = (2 * util::MiB) / 24;
    std::vector<double> a(n), b(n), c(n);
    simulate(tr, tally, false, [&](auto& rec) {
      for (int pass = 0; pass < 2; ++pass) kernels::stream_triad_instrumented(a, b, c, 1.0, rec);
    });
  }
  // Validation traces: exact simulation, then reuse distance + model check.
  const std::size_t sn = (1 << 20) / 24;
  std::vector<double> sa(sn), sb(sn), sc(sn);
  dense::Matrix ga(96, 96), gb(96, 96), gc(96, 96);
  ga.fill_random(1);
  gb.fill_random(2);
  int gen_id = tr.begin("sparse.generate");
  const sparse::Csr scattered = sparse::make_random_uniform(8192, 8.0, 5);
  const sparse::Csr banded = sparse::make_banded(8192, 8, 8.0, 5);
  tr.end(gen_id);
  std::vector<double> vx(8192, 1.0), vy(8192);
  kernels::StencilGrid grid(40, 40, 40);
  grid.seed(7);
  const std::vector<std::function<void(trace::SystemRecorder&)>> sim_bodies = {
      [&](auto& rec) {
        for (int pass = 0; pass < 2; ++pass) kernels::stream_triad_instrumented(sa, sb, sc, 1.0, rec);
      },
      [&](auto& rec) { kernels::gemm_instrumented(ga, gb, gc, 32, rec); },
      [&](auto& rec) { kernels::spmv_csr_instrumented(scattered, vx, vy, rec); },
      [&](auto& rec) { kernels::spmv_csr_instrumented(banded, vx, vy, rec); },
      [&](auto& rec) { kernels::stencil_step_instrumented(grid, 0, 0, rec); },
  };
  for (const auto& body : sim_bodies) simulate(tr, tally, false, body);

  Scope reuse_scope(tr, "trace.reuse");
  {
    trace::ReuseDistanceAnalyzer reuse;
    for (int pass = 0; pass < 2; ++pass) kernels::stream_triad_instrumented(sa, sb, sc, 1.0, reuse);
    core::validate_model(reuse, kernels::stream_model(p, static_cast<double>(sn)), p, 2.0);
  }
  {
    trace::ReuseDistanceAnalyzer reuse;
    kernels::gemm_instrumented(ga, gb, gc, 32, reuse);
    core::validate_model(reuse, kernels::gemm_model(p, 96.0, 32.0), p);
  }
  for (const bool is_banded : {false, true}) {
    const sparse::Csr& a = is_banded ? banded : scattered;
    const auto stats = sparse::compute_stats(a);
    trace::ReuseDistanceAnalyzer reuse;
    kernels::spmv_csr_instrumented(a, vx, vy, reuse);
    core::validate_model(reuse,
                         kernels::spmv_model(p, {.rows = 8192,
                                                 .nnz = static_cast<double>(stats.nnz),
                                                 .locality = is_banded ? 0.95 : 0.05,
                                                 .row_cv = stats.row_cv}),
                         p);
  }
  {
    trace::ReuseDistanceAnalyzer reuse;
    kernels::stencil_step_instrumented(grid, 0, 0, reuse);
    core::validate_model(reuse, kernels::stencil_model(p, 40.0, 3.0 * 40 * 40 * 8), p);
  }
  return tally;
}

struct SweepTally {
  double points_per_s = 0.0;
  double parallel_eff = 0.0;
  double serial_points_per_s = 0.0;
};

/// The analytic sweeps of the figure harnesses (dense, sparse-suite and
/// footprint on every platform), first on the fixed worker pool, then
/// serially as the single-thread baseline. Cache off: every point computes.
SweepTally probe_sweeps(Tracer& tr, const opm::sparse::SyntheticCollection& suite) {
  using namespace opm;
  std::vector<sim::Platform> platforms = bench::broadwell_modes();
  for (const sim::Platform& p : bench::knl_modes()) platforms.push_back(p);
  auto sweep_all = [&] {
    std::size_t items = 0;
    for (const sim::Platform& p : platforms) {
      items += core::sweep_dense(p, core::DenseSweepRequest{}).size();
      items += core::sweep_sparse(p, core::SparseSweepRequest{}, suite).size();
      items += core::sweep_footprint_kernel(p, core::FootprintSweepRequest{}).size();
    }
    return items;
  };
  SweepTally out;
  core::drain_sweep_stats();
  core::set_sweep_workers(kSweepWorkers);
  {
    Scope s(tr, "core.sweep");
    sweep_all();
  }
  double items = 0.0, wall = 0.0, busy = 0.0, capacity = 0.0;
  for (const core::SweepStats& st : core::drain_sweep_stats()) {
    items += static_cast<double>(st.items);
    wall += st.wall_seconds;
    busy += st.busy_seconds;
    // The pool's workers plus the calling thread, which helps while it joins
    // (SweepStats::worker_busy_seconds counts it in its last entry).
    capacity += st.wall_seconds * static_cast<double>(st.workers + 1);
  }
  out.points_per_s = wall > 0 ? items / wall : 0.0;
  out.parallel_eff = capacity > 0 ? busy / capacity : 0.0;

  core::set_sweep_workers(0);
  const double t0 = mono_s();
  std::size_t serial_items = 0;
  {
    Scope s(tr, "core.sweep_serial");
    serial_items = sweep_all();
  }
  out.serial_points_per_s = static_cast<double>(serial_items) / (mono_s() - t0);
  core::drain_sweep_stats();
  return out;
}

double mean(const std::vector<std::size_t>& v) {
  return v.empty() ? 0.0
                   : static_cast<double>(std::accumulate(v.begin(), v.end(), std::size_t{0})) /
                         static_cast<double>(v.size());
}

}  // namespace

int setup_probe() {
  const opm::sparse::SyntheticCollection suite = opm::sparse::SyntheticCollection::paper_suite();
  std::vector<opm::sim::Platform> platforms = opm::bench::broadwell_modes();
  for (const opm::sim::Platform& p : opm::bench::knl_modes()) platforms.push_back(p);
  return suite.size() > 0 && platforms.size() == 6 ? 0 : 1;
}

int record_digests(const Options& opt) {
  for (const Harness& h : read_digests(opt.digests)) {
    Child child(harness_argv(opt, h), "record.out", "/dev/null");
    if (!child.wait().ok()) {
      std::cerr << "opmbench: harness " << h.name << " failed\n";
      return 1;
    }
    std::cout << h.name << ' ' << digest_of(read_file("record.out")) << '\n';
  }
  return 0;
}

Result run_repro(const Options& opt, Tracer& tr) {
  Result res;
  const std::vector<Harness> harnesses = read_digests(opt.digests);
  const std::size_t n = harnesses.size();
  opm::util::Xoshiro256 rng(opt.seed ^ 0x726570726f2d636full);

  if (opt.trace) {
    // Cache off: every probe computes, the serial sweep baseline included.
    apply_offline_config(false);
    const int root = tr.begin("run");
    double suite_ms = 0.0;
    std::optional<opm::sparse::SyntheticCollection> suite;
    {
      const double t0 = mono_s();
      Scope s(tr, "sparse.suite_build");
      suite.emplace(opm::sparse::SyntheticCollection::paper_suite());
      suite_ms = 1000.0 * (mono_s() - t0);
    }
    const SimTally sim = probe_sim_and_trace(tr);
    const SweepTally sweeps = probe_sweeps(tr, *suite);

    // Passes alternate untraced and traced; each is timed with its span
    // recording, so the two kinds compare what tracing adds.
    std::vector<double> untraced_s, traced_s;
    std::vector<std::size_t> bytes;
    for (int p = 0; p < 4; ++p) {
      const std::vector<std::size_t> order = seeded_order(n, rng);
      const double t0 = mono_s();
      const bool traced = p % 2 == 1;
      const int pass_id = traced ? tr.begin("harness.pass") : -1;
      const Pass pass = run_pass(opt, harnesses, order, res);
      if (traced) trace_pass(tr, pass, harnesses, order, pass_id);
      tr.end(pass_id);
      (traced ? traced_s : untraced_s).push_back(mono_s() - t0);
      bytes = pass.bytes;
    }
    tr.end(root);

    const std::vector<double> self = self_times(tr.spans());
    double sim_self = 0.0, reuse_self = 0.0;
    for (std::size_t i = 0; i < tr.spans().size(); ++i) {
      const std::string layer = layer_of(tr.spans()[i].name);
      if (layer == "sim") sim_self += self[i];
      if (layer == "trace") reuse_self += self[i];
    }
    res.metric("sparse.suite_build_ms", suite_ms, "ms");
    res.metric("sim.exact_lines_per_s", sim_self > 0 ? static_cast<double>(sim.lines) / sim_self : 0.0,
               "1/s");
    res.metric("sim.exact_self_s", sim_self, "s");
    res.metric("sim.lines", static_cast<double>(sim.lines), "count");
    res.metric("trace.reuse_self_s", reuse_self, "s");
    res.metric("core.sweep_points_per_s", sweeps.points_per_s, "1/s");
    res.metric("core.sweep_parallel_eff", sweeps.parallel_eff, "ratio");
    res.metric("core.sweep_serial_points_per_s", sweeps.serial_points_per_s, "1/s");
    res.metric("bytes_per_response", mean(bytes), "bytes");
    const double untraced = opm::util::median(untraced_s);
    res.metric("trace.overhead_pct", 100.0 * (opm::util::median(traced_s) - untraced) / untraced,
               "%");
    res.metric("other.self_s", self[static_cast<std::size_t>(root)], "s");
    return res;
  }

  // Rounds until --seconds have passed (at least four), so that every
  // figure samples the whole run: each round makes kProbes set-up probes
  // and one serial pass in seeded order (about 2 s on the reference host).
  // The gated figures are CPU times (proc.hpp); the wall times go to the
  // result file.
  std::vector<double> setup_cpu, setup_wall, pass_cpu, pass_wall, pooled_ms;
  std::vector<std::vector<double>> per_harness_cpu(n), per_harness_wall(n);
  double rss = 0.0;
  const double t_end = mono_s() + opt.seconds;
  for (int r = 0; r < 4 || mono_s() < t_end; ++r) {
    // Set-up: a process that builds the suite and the platforms.
    for (int i = 0; i < kProbes; ++i) {
      Child probe({opt.self_exe, "--setup-probe"}, "/dev/null", "/dev/null");
      const Exit e = probe.wait();
      ++res.attempted;
      if (!e.ok()) {
        ++res.failed;
        res.problems.push_back("set-up probe failed");
      }
      setup_cpu.push_back(e.cpu_s);
      setup_wall.push_back(e.wall_s);
    }
    const std::vector<std::size_t> order = seeded_order(n, rng);
    const Pass pass = run_pass(opt, harnesses, order, res);
    double cpu = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const Exit& e = pass.exits[k];
      cpu += e.cpu_s;
      per_harness_cpu[order[k]].push_back(1000.0 * e.cpu_s);
      per_harness_wall[order[k]].push_back(1000.0 * e.wall_s);
      pooled_ms.push_back(1000.0 * e.wall_s);
      rss = std::max(rss, e.maxrss_mb);
    }
    pass_cpu.push_back(cpu);
    pass_wall.push_back(pass.wall_s);
  }
  // A harness's CPU time is its median over the passes; op_cpu_p50_ms is
  // the median of those 38.
  std::vector<double> harness_cpu_ms(n);
  for (std::size_t i = 0; i < n; ++i) harness_cpu_ms[i] = opm::util::median(per_harness_cpu[i]);

  int used = 0;
  const double tail = tail_value(pooled_ms, 99, &used);
  res.metric("setup_s", opm::util::median(setup_cpu), "s");
  res.metric("pass_cpu_s", opm::util::median(pass_cpu), "s");
  res.metric("rss_mb", rss, "MB");
  // Not gated (METRICS.md): the median harness's CPU time, and the wall
  // times of set-up, pass, and the tail over every harness run of the run.
  res.note("op_cpu_p50_ms", opm::util::format_json_number(opm::util::median(harness_cpu_ms)));
  res.note("setup_wall_s", opm::util::format_json_number(opm::util::median(setup_wall)));
  res.note("pass_wall_s", opm::util::format_json_number(opm::util::median(pass_wall)));
  res.note("latency_p99_ms", opm::util::format_json_number(tail));
  res.note("latency_samples", std::to_string(pooled_ms.size()));
  res.note("latency_tail_percentile", std::to_string(used));
  res.note("serial_passes", std::to_string(pass_cpu.size()));
  // The per-round figures behind each metric; harness_pass_*_ms list each
  // harness's times in every serial pass, in digest-table order.
  auto per_pass = [&](const std::vector<std::vector<double>>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < n; ++i) out += (i ? "," : "") + json_numbers(v[i]);
    return out + "]";
  };
  res.note("rounds", "{\"pass_cpu_s\":" + json_numbers(pass_cpu) + ",\"pass_wall_s\":" +
                         json_numbers(pass_wall) + ",\"harness_pass_cpu_ms\":" +
                         per_pass(per_harness_cpu) + ",\"harness_pass_wall_ms\":" +
                         per_pass(per_harness_wall) + "}");
  return res;
}

}  // namespace opmbench
