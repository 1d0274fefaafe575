#pragma once

#include <cstdint>
#include <vector>

/// Hardware stride-prefetcher model for the trace-driven simulator.
///
/// Both evaluated machines prefetch aggressively on sequential streams —
/// it is why Stream and the stencil sweep at full DRAM bandwidth despite
/// per-access latencies. The model mirrors a per-stream next-N-lines
/// prefetcher: it tracks up to `streams` independent access streams; when
/// an address continues a stream's stride (+/- one line), the next
/// `depth` lines are issued as prefetches.
///
/// The MemorySystem consumes the prefetch suggestions by pre-installing
/// lines (counted separately from demand traffic), which converts demand
/// misses on streaming kernels into prefetch hits — and leaves irregular
/// gather streams (SpMV's x vector) untouched, exactly the asymmetry the
/// paper's kernels exhibit.
///
/// Stream table layout: structure-of-arrays (`last_line`, `stride`,
/// `last_use`), padded to a multiple of 4 entries, plus a valid bitmask.
/// Every observe scans the whole table — on gather streams almost no line
/// continues a stream, so the no-match path (first match, else the highest
/// free slot, else the least recently used stream) is the hot one. The scan
/// has two implementations behind one contract:
///
///   - scan_scalar(): the entry-by-entry loop, the bit-identity oracle;
///     observe() (tests and the reference simulation path) uses it;
///   - an AVX2 scan computing the "continues stride" and "nascent +/-1/+/-2"
///     masks four entries per compare (first match = ctz), and the least
///     recently used entry by a vector min; observe_into() (the flat hot
///     path) uses it when the host supports AVX2.
///
/// Dispatch follows sim/simd_probe.hpp: x86-64 builds compile the vector
/// scan, selected at construction by one `__builtin_cpu_supports("avx2")`
/// test; other targets use the scalar oracle. self_check() replays seeded
/// streams through both and fails on any disagreement, and the
/// flat-vs-reference differential suite pins them end to end.
namespace opm::sim {

class StridePrefetcher {
 public:
  /// `streams`: tracked concurrent streams (>= 1; 0 throws
  /// std::invalid_argument); `depth`: lines prefetched ahead on a stream
  /// hit; `line_size`: bytes per line.
  StridePrefetcher(std::size_t streams = 16, std::size_t depth = 4,
                   std::uint32_t line_size = 64);

  /// Observes a demand line access; writes the line addresses to prefetch
  /// into `out` (caller-provided, at least depth() slots) and returns how
  /// many were written. This is the hot-path entry: no allocation, vector
  /// table scan where available.
  std::size_t observe_into(std::uint64_t line_addr, std::uint64_t* out);

  /// Allocating convenience wrapper (tests and the reference simulation
  /// path; the flat hot path never calls it). Scans with the scalar oracle,
  /// so it is behavior-identical to observe_into() by contract.
  std::vector<std::uint64_t> observe(std::uint64_t line_addr);

  /// Upper bound on the targets one observe can issue.
  std::size_t depth() const { return depth_; }
  /// Number of prefetches issued so far.
  std::uint64_t issued() const { return issued_; }
  /// Number of stream detections (an access continuing a known stream).
  std::uint64_t stream_hits() const { return stream_hits_; }

  void reset();

  /// Runtime verification battery: seeded random lines, ascending and
  /// descending strides, targets below line 0, and stream counts around
  /// the 4-entry padding, each replayed through an observe_into() and an
  /// observe() prefetcher, with both scans compared on every reached table
  /// state. False on any disagreement.
  static bool self_check();

 private:
  /// Outcome of a table scan: the matched entry, or the slot to allocate.
  struct Scan {
    std::size_t slot = 0;
    bool matched = false;
    bool operator==(const Scan&) const = default;
  };

  Scan scan_scalar(std::int64_t line) const;
  Scan scan(std::int64_t line) const;
  /// Applies a scan outcome (train, continue or allocate) and writes the
  /// prefetch targets of a continued stream into `out`.
  std::size_t apply(Scan s, std::int64_t line, std::uint64_t* out);
  std::int64_t line_of(std::uint64_t line_addr) const {
    return static_cast<std::int64_t>(line_pow2_ ? line_addr >> line_shift_
                                                : line_addr / line_size_);
  }
  bool valid(std::size_t i) const { return ((valid_[i >> 6] >> (i & 63)) & 1u) != 0; }

  std::size_t streams_;
  std::size_t depth_;
  std::uint32_t line_size_;
  /// Power-of-two line sizes (every real platform) turn the per-observe
  /// address/line conversions into shifts instead of 64-bit divisions.
  bool line_pow2_ = false;
  std::uint32_t line_shift_ = 0;
  bool use_avx2_ = false;
  std::int64_t clock_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t stream_hits_ = 0;
  // Stream table, padded to a multiple of 4 entries. Invalid entries
  // (free and padding) hold last_use == INT64_MAX so the vector min never
  // picks one.
  std::vector<std::int64_t> last_line_;
  std::vector<std::int64_t> stride_;  ///< in lines; 0 = not yet established
  std::vector<std::int64_t> last_use_;
  std::vector<std::uint64_t> valid_;  ///< bit i = entry i tracks a stream
};

}  // namespace opm::sim
