#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

#include "util/thread_pool.hpp"

/// The parallel sweep engine.
///
/// Every figure/table sweep in core/experiment.hpp fans its independent
/// model evaluations out over a process-wide work-stealing pool
/// (util::ThreadPool) and writes each result by index, so the output of
/// any sweep is **bit-identical for every worker count** — the serial
/// path is simply workers == 0. The worker knob is process-wide:
///
///   core::set_sweep_workers(0);   // serial (deterministic unit tests)
///   core::set_sweep_workers(64);  // KNL-style massive multithreading
///
/// Default: hardware concurrency. Each top-level sweep records a
/// SweepStats sample (tasks, steals, per-worker busy time, wall time)
/// that the bench harnesses drain and print as CSV/JSON, which makes the
/// perf trajectory of the sweep hot path measurable run over run.
namespace opm::core {

/// Observability record for one top-level sweep. Nested sweeps (a sweep
/// launched from inside another sweep's task) execute through the same
/// pool but are folded into the enclosing record.
struct SweepStats {
  std::string name;           ///< e.g. "sweep_sparse:SpMV"
  std::size_t workers = 0;    ///< pool size used (0 = serial inline)
  std::size_t items = 0;      ///< sweep points evaluated
  std::size_t tasks = 0;      ///< scheduler chunk tasks executed
  std::size_t steals = 0;     ///< tasks that migrated between workers
  double wall_seconds = 0.0;  ///< fork-to-join wall time
  double busy_seconds = 0.0;  ///< total exclusive task-body time across workers
  /// Busy seconds per worker (index = worker id; last entry aggregates
  /// helping non-worker threads). Empty for serial sweeps.
  std::vector<double> worker_busy_seconds;

  /// Simulator throughput: line-granular accesses the trace-driven
  /// MemorySystem walked during this sweep (delta of the process-wide
  /// "sim.lines_simulated" metric; 0 for purely analytical sweeps).
  std::uint64_t sim_lines = 0;

  /// Sampled-simulation telemetry (sim/window_sampler.hpp): true when any
  /// WindowSampler finalized during this sweep, with the summed per-run
  /// error bounds (delta of "sim.sampling_rel_error" — a sum of maxima,
  /// so it upper-bounds the worst single run). False/0 for exact sweeps.
  bool sampled = false;
  double max_rel_error = 0.0;

  /// busy_seconds approximates the serial wall time of the same sweep, so
  /// busy/wall estimates the speedup actually delivered by the pool.
  double speedup_estimate() const {
    return wall_seconds > 0.0 ? busy_seconds / wall_seconds : 1.0;
  }

  /// Simulated lines per wall second (the sim hot-path throughput this
  /// sweep actually saw; 0 when no simulation ran).
  double sim_lines_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(sim_lines) / wall_seconds : 0.0;
  }

  bool operator==(const SweepStats&) const = default;
};

/// Sets the process-wide sweep worker count. 0 runs every sweep inline
/// and serial (today's pre-engine behavior); n > 0 (re)builds the shared
/// pool with n workers. Not safe to call concurrently with running
/// sweeps.
void set_sweep_workers(std::size_t n);

/// Currently configured worker count (default: hardware concurrency).
std::size_t sweep_workers();

/// Copies the stats log (most recent last; the log keeps the latest 256
/// top-level sweeps).
std::vector<SweepStats> sweep_stats_log();

/// Returns the stats log and clears it.
std::vector<SweepStats> drain_sweep_stats();

/// Emits stats as a CSV block via util::CsvWriter (one row per sweep).
void write_sweep_stats_csv(std::ostream& os, const std::vector<SweepStats>& stats);

/// One sweep as a single-line JSON object (all fields, including the
/// per-worker busy array).
std::string sweep_stats_json(const SweepStats& s);

namespace detail {

/// Shared pool sized to sweep_workers(); nullptr when serial.
util::ThreadPool* sweep_pool();

/// RAII sampler around one sweep_transform call: snapshots the pool
/// counters at construction and records a SweepStats delta at stop().
/// Records nothing for nested sweeps (their work is attributed to the
/// enclosing top-level record).
class SweepTimer {
 public:
  SweepTimer(const char* name, std::size_t items, util::ThreadPool* pool);
  ~SweepTimer() { stop(); }
  void stop();

 private:
  std::string name_;
  std::size_t items_;
  util::ThreadPool* pool_;
  bool active_ = false;
  bool stopped_ = false;
  std::vector<util::ThreadPool::WorkerCounters> before_;
  std::uint64_t sim_lines_before_ = 0;  ///< "sim.lines_simulated" watermark
  std::uint64_t sampled_windows_before_ = 0;  ///< "sim.sampled_windows" watermark
  double rel_error_before_ = 0.0;  ///< "sim.sampling_rel_error" watermark
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace detail

namespace detail {
/// Chunk size actually used: at least `min_grain`, but no more than ~8
/// chunks per worker, so sweeps with cheap per-point work don't drown in
/// scheduling overhead while stealing still has slack to balance.
inline std::size_t sweep_grain(std::size_t count, std::size_t min_grain,
                               std::size_t workers) {
  const std::size_t target_chunks = workers * 8;
  const std::size_t g = target_chunks > 0 ? count / target_chunks : count;
  return std::max<std::size_t>(min_grain, std::max<std::size_t>(g, 1));
}
}  // namespace detail

/// Evaluates fn(0..count-1) through the sweep pool and returns the
/// results in index order — bit-identical to the serial loop for any
/// worker count (fn must be pure w.r.t. shared state). `grain` is the
/// minimum number of items per scheduler task.
template <typename Fn>
auto sweep_transform(const char* name, std::size_t count, std::size_t grain, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
  using T = std::decay_t<decltype(fn(std::size_t{0}))>;
  util::ThreadPool* pool = detail::sweep_pool();
  detail::SweepTimer timer(name, count, pool);
  if (pool == nullptr) {
    std::vector<T> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) out.push_back(fn(i));
    timer.stop();
    return out;
  }
  auto out = pool->parallel_transform(
      0, count, detail::sweep_grain(count, grain, pool->workers()), fn);
  timer.stop();
  return out;
}

}  // namespace opm::core
