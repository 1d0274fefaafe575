#pragma once

#include <cstddef>

#include "core/result_cache.hpp"
#include "sim/window_sampler.hpp"

/// The consolidated runtime-knob surface for the sweep engine.
///
/// A harness (or opm_serve) resolves one SweepConfig — defaults, overlaid
/// by environment, overlaid by CLI (see bench::init) — and applies it
/// once. The cache.* knobs configure core::ResultCache, which holds only
/// rendered payloads (serve's escaped sweep payloads and advise JSON); the
/// sweeps themselves always compute, so a harness that only sweeps reads
/// and writes no cache whatever these say:
///
///   knob                 CLI                    environment
///   ------------------   --------------------   ------------------------
///   workers              --sweep-workers=N      OPM_SWEEP_WORKERS=N
///   cache.dir            --cache-dir=PATH       OPM_CACHE_DIR=PATH
///   cache.enabled        --no-cache             OPM_NO_CACHE=1
///   cache.max_disk_bytes --cache-max-bytes=N    OPM_CACHE_MAX_BYTES=N
///   telemetry            --no-sweep-stats       OPM_SWEEP_STATS=0
///   sampling             --sample=off|fast      OPM_SAMPLE=off|fast
///
/// Tests and libraries that need one specific knob can still call
/// set_sweep_workers() / configure_result_cache() directly.
namespace opm::core {

struct SweepConfig {
  std::size_t workers = 0;  ///< sweep worker count (0 = serial inline)
  bool telemetry = true;    ///< bench harnesses emit SweepStats blocks
  CacheConfig cache;        ///< payload-cache tiers (core/result_cache.hpp)
  /// Trace-simulation sampling (sim/window_sampler.hpp). kOff = every
  /// simulation is exact; kFast = sampling-aware consumers (the advise
  /// probe) run a WindowSampler and surface sampled:true + the error
  /// bound. Sampled and exact results are keyed separately in the
  /// ResultCache, so flipping this never aliases cached payloads.
  sim::SamplingMode sampling = sim::SamplingMode::kOff;
};

/// Bench-harness defaults: hardware-concurrency workers, telemetry on, and
/// the cache enabled with both tiers (disk under ".opm-cache"). Note this
/// differs from the library default — a process that never applies a
/// SweepConfig runs with the cache disabled.
SweepConfig default_sweep_config();

/// Overlays OPM_SWEEP_WORKERS / OPM_CACHE_DIR / OPM_CACHE_MAX_BYTES /
/// OPM_NO_CACHE / OPM_SWEEP_STATS onto `base`. Unset or unparsable
/// variables leave the base value untouched.
SweepConfig apply_env(SweepConfig base);

/// The full defaults → environment → CLI resolution (the table above) in
/// one call, without applying it. Shared by bench::init and opm_serve so
/// both front ends accept the same knobs.
SweepConfig resolve_sweep_config(int argc, const char* const* argv);

/// Applies the config process-wide: set_sweep_workers(), the result-cache
/// configuration, and the telemetry switch.
void apply_sweep_config(const SweepConfig& config);

/// The telemetry switch applied last (default: on).
void set_sweep_telemetry(bool enabled);
bool sweep_telemetry();

}  // namespace opm::core
