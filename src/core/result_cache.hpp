#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/fingerprint.hpp"

/// Content-addressed byte store for rendered payloads.
///
/// The cache sits at the two boundaries where a hit pays: the serve tier's
/// escaped sweep payloads (serve::protocol::escaped_sweep_payload, keyed by
/// protocol::payload_cache_key) and the advisor's rendered JSON
/// (advise::run_and_render, keyed by advise_cache_key). Both payloads are
/// pure functions of (platform spec, canonical request serialization,
/// suite fingerprint, model version), so the bytes are stored under a
/// 128-bit fingerprint of exactly those inputs, in two tiers —
///
///   * a thread-safe, sharded, in-memory LRU (fast tier), and
///   * an optional on-disk tier of versioned binary records under the
///     configured cache directory (default ".opm-cache/", overridable via
///     OPM_CACHE_DIR / --cache-dir), which makes warm starts survive
///     process restarts.
///
/// The analytic sweeps themselves are not cached: all 48 paper
/// (platform x kernel) table-input sweeps run cold in 10-25 ms, which
/// bounds what a sweep-level cache could save (docs/MODEL.md §7).
///
/// Determinism is the contract — a hit returns exactly the bytes a cold
/// compute would produce. Robustness is equally part of it: a missing,
/// truncated, corrupted, version-skewed, or permission-denied cache file
/// must never change results or crash. Every such fault degrades to a miss
/// (the caller recomputes) and is counted, by reason, in CacheStats.
///
/// The cache ships disabled; bench::init() / core::apply_sweep_config()
/// enable it for the harnesses and opm_serve. Tier-1 tests run with it off
/// so they keep exercising the compute path.
namespace opm::core {

/// Bumping this invalidates every existing record (it is folded into both
/// the key derivation and the on-disk header). Bump whenever the meaning
/// of cached payloads changes: model recalibrations that are NOT visible
/// in the hashed inputs, payload format changes, etc.
inline constexpr std::uint32_t kResultCacheVersion = 1;

struct CacheConfig {
  bool enabled = false;        ///< master switch; disabled = every call no-ops
  bool disk = true;            ///< persist records under `dir` (when enabled)
  std::string dir = ".opm-cache";
  std::size_t max_entries = 4096;  ///< in-memory LRU capacity (entries, all shards)
  /// Byte budget for the disk tier (payload + header bytes of .opmrec
  /// records; 0 = unlimited). When a store pushes the directory over
  /// budget, the oldest records by mtime are deleted until it fits —
  /// LRU-by-mtime, because disk hits touch their record's mtime. Several
  /// processes sharing one cache dir (the sharded serve tier's L2) each
  /// prune safely: deleting a record another process is reading degrades
  /// to a miss there, never to corruption.
  std::size_t max_disk_bytes = 0;
};

/// Process-wide counters, aggregated across every lookup/store.
struct CacheStats {
  std::size_t memory_hits = 0;
  std::size_t disk_hits = 0;       ///< served from disk (and promoted to memory)
  std::size_t misses = 0;          ///< absent in both tiers
  std::size_t stores = 0;          ///< store() calls that cached a new payload
  std::size_t bytes_loaded = 0;    ///< payload bytes served (both tiers)
  std::size_t bytes_stored = 0;    ///< payload bytes written to the disk tier
  std::size_t corrupt_records = 0; ///< bad magic/length/key/checksum → recompute
  std::size_t version_skew = 0;    ///< record from another cache version → recompute
  std::size_t type_mismatch = 0;   ///< record elem_size is not 1 (not a byte payload) → recompute
  std::size_t io_errors = 0;       ///< unreadable/unwritable files or dirs → recompute
  // Evictions, by reason (also in the metrics registry as cache.evicted_*):
  std::size_t evicted_memory = 0;  ///< memory LRU entries popped at capacity
  std::size_t evicted_budget = 0;  ///< disk records deleted by max_disk_bytes pruning
  std::size_t evicted_orphan = 0;  ///< stale .tmp- files from crashed writers
  std::size_t evicted_bytes = 0;   ///< disk bytes reclaimed by pruning (both reasons)
  double lookup_seconds = 0.0;
  double store_seconds = 0.0;

  std::size_t hits() const { return memory_hits + disk_hits; }
  std::size_t faults() const {
    return corrupt_records + version_skew + type_mismatch + io_errors;
  }
};

class ResultCache {
 public:
  /// The process-wide instance (thread-safe lazy construction; the shard
  /// table is built exactly once, before any lookup can race on it).
  static ResultCache& instance();

  /// Replaces the configuration and drops the in-memory tier (disk records
  /// are left alone: they are re-validated on next read). Not a hot-path
  /// call; safe to invoke concurrently with lookups.
  void configure(const CacheConfig& config);
  CacheConfig config() const;
  bool enabled() const;

  CacheStats stats() const;
  void reset_stats();

  /// Drops every in-memory entry (disk tier untouched), so the next lookup
  /// reads the disk tier in isolation. configure() does the same.
  void clear_memory();

  /// Looks `key` up in memory, then disk. Returns the payload on a hit
  /// (bit-identical to what was stored) or nullopt on any miss or fault.
  std::optional<std::string> find(const util::Digest128& key);

  /// Stores `payload` in both tiers. Disk failures (unwritable directory,
  /// full disk, ...) are absorbed: the in-memory entry still lands and the
  /// fault is counted. Returns false only when the cache is disabled.
  bool store(const util::Digest128& key, std::string_view payload);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

 private:
  ResultCache();
  ~ResultCache();

  struct Impl;
  Impl* impl_;
};

/// Convenience accessors mirroring ResultCache::instance() for call sites
/// that only flip configuration (bench::init, tests).
void configure_result_cache(const CacheConfig& config);
CacheConfig result_cache_config();
CacheStats result_cache_stats();
void reset_result_cache_stats();

/// The process-wide cache totals as one JSON line payload:
/// {"cache_totals":{"memory_hits":N,...}}. The counters live in the
/// util::MetricsRegistry (names "cache.*"), so the bench harness stats
/// block and the opm_serve "stats" request render the same numbers through
/// this one code path.
std::string cache_totals_json();

}  // namespace opm::core
