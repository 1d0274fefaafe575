#pragma once

#include <cstdint>
#include <map>
#include <vector>

/// Reuse-distance (LRU stack distance) analysis.
///
/// The stack distance of an access is the number of *distinct* cache lines
/// touched since the previous access to the same line. Under a fully
/// associative LRU cache of capacity C lines, an access hits iff its stack
/// distance is < C — so one pass over a trace yields the miss curve
/// miss_lines(C) for *every* capacity at once. This is how the analytical
/// per-kernel traffic models are cross-validated against real traces.
///
/// Implementation: Bennett–Kruskal marker counting. Every distinct line
/// owns one marker at the time position of its latest access; the stack
/// distance of a reuse is the number of markers after the line's previous
/// position, a Fenwick-tree suffix count. The tree is bounded: it holds
/// about 2x the live markers, and when the positions run out the markers
/// are renumbered in time order (a compaction) into a tree sized for the
/// new live count. With D distinct lines, state is O(D) — the tree, an
/// open-addressing line -> position table and a flat histogram — and an
/// access costs O(log D) amortized, independent of the trace length. A
/// touch of the line accessed immediately before (distance 0, the common
/// case for sub-line accesses) skips the table and the tree entirely.
namespace opm::trace {

class ReuseDistanceAnalyzer {
 public:
  /// `line_size` must be a power of two; accesses are line-granular.
  explicit ReuseDistanceAnalyzer(std::uint32_t line_size = 64);

  /// Recorder interface: reads and writes profile identically.
  void load(std::uint64_t addr, std::uint32_t size) { touch(addr, size); }
  void store(std::uint64_t addr, std::uint32_t size) { touch(addr, size); }

  /// Records one access of `size` bytes at `addr`.
  void touch(std::uint64_t addr, std::uint32_t size);

  /// Total line-granular accesses recorded.
  std::uint64_t accesses() const { return accesses_; }
  /// Accesses to lines never seen before (cold misses).
  std::uint64_t cold_misses() const { return cold_; }
  /// Number of distinct lines touched (the footprint, in lines).
  std::uint64_t distinct_lines() const { return cold_; }

  /// Misses of a fully associative LRU cache with `capacity_lines` lines
  /// (cold misses included).
  std::uint64_t miss_lines(std::uint64_t capacity_lines) const;

  /// Same expressed in bytes: misses of a cache of `capacity_bytes`.
  std::uint64_t miss_bytes(std::uint64_t capacity_bytes) const;

  /// Hit rate at the given capacity in bytes.
  double hit_rate(std::uint64_t capacity_bytes) const;

  /// The raw distance histogram: distance -> access count, distances with
  /// a zero count omitted. Distance is in distinct lines; cold misses are
  /// excluded (they miss at any capacity). Built on each call.
  std::map<std::uint64_t, std::uint64_t> histogram() const;

  /// Marker renumberings so far (the tree ran out of positions).
  std::uint64_t compactions() const { return compactions_; }

  std::uint32_t line_size() const { return line_size_; }

 private:
  static constexpr std::uint64_t kFree = ~0ull;
  /// One line -> marker position entry; `pos == kFree` marks an empty slot.
  struct Entry {
    std::uint64_t line = 0;
    std::uint64_t pos = kFree;
  };

  /// The line's entry, inserted with `pos == kFree` if absent — a state
  /// probes read as empty, so the caller assigns a position before the
  /// next lookup.
  Entry& entry(std::uint64_t line);
  void grow_table();
  /// Renumbers the live markers 0..D-1 in time order and rebuilds the tree
  /// with room for about D more.
  void compact();
  /// Next free marker position (compacting first when none is left).
  std::uint64_t next_position();
  /// Adds `delta` (mod 2^32: ~0u removes a marker) at `pos`.
  void tree_add(std::uint64_t pos, std::uint32_t delta);
  /// Markers at positions [0, count).
  std::uint64_t tree_prefix(std::uint64_t count) const;

  std::uint32_t line_size_;
  std::uint64_t line_shift_;
  std::uint64_t accesses_ = 0;
  std::uint64_t cold_ = 0;
  std::uint64_t compactions_ = 0;
  /// The line touched last, whose marker is the newest (valid once
  /// accesses_ > 0).
  std::uint64_t last_line_ = 0;
  /// Fenwick tree over marker positions, 1-based (slot 0 unused).
  std::vector<std::uint32_t> tree_;
  std::uint64_t next_pos_ = 0;
  std::vector<Entry> table_;
  std::uint64_t table_used_ = 0;
  std::uint32_t table_shift_ = 0;
  std::vector<std::uint64_t> histogram_;  ///< distance -> count
};

}  // namespace opm::trace
