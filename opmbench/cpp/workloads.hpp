#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep_config.hpp"
#include "spans.hpp"

/// The two workloads of the repository benchmark (opmbench/METRICS.md).
namespace opmbench {

struct Options {
  std::string workload;     ///< repro-cold | serve-hot
  std::uint64_t seed = 1;
  int seconds = 10;         ///< measured time of one run
  bool trace = false;       ///< traced run: per-layer metrics instead of end-to-end
  std::string bin_dir;      ///< build tree holding bench/ and serve/
  std::string digests;      ///< repro-cold oracle: "<harness> <digest>" lines
  std::string self_exe;     ///< this program (re-executed for the set-up probe)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< why the run is not valid; empty = valid
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  ///< extra key -> JSON value

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& json) { notes.emplace_back(key, json); }
};

/// Sweep-worker pool size of every harness, server and in-process sweep
/// the benchmark runs, fixed so that results do not follow the host's
/// core count.
inline constexpr int kSweepWorkers = 2;

/// The in-process library path the benchmark calls (references, probes,
/// replays): serial sweeps, no telemetry, and a memory-only result cache
/// when `cache` is set, none otherwise.
inline void apply_offline_config(bool cache) {
  opm::core::SweepConfig config = opm::core::default_sweep_config();
  config.workers = 0;
  config.telemetry = false;
  config.cache.enabled = cache;
  config.cache.disk = false;
  opm::core::apply_sweep_config(config);
}

Result run_repro(const Options& opt, Tracer& tracer);
Result run_serve(const Options& opt, Tracer& tracer);

/// The set-up probe repro-cold times in a fresh process: construct the
/// paper's sparse suite and every platform, as each harness does first.
int setup_probe();

/// Runs every harness in the digest table once and prints a new table
/// (for a change that alters harness output on purpose).
int record_digests(const Options& opt);

}  // namespace opmbench
