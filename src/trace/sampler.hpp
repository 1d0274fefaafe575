#pragma once

#include <cstdint>

#include "trace/reuse.hpp"

/// Sampled reuse-distance analysis for long traces.
///
/// Exact reuse-distance measurement costs O(log D) per access with O(D)
/// state, D distinct lines; for billion-access traces over large
/// footprints that still dominates runtime. Set sampling keeps the
/// analysis unbiased while shrinking it: only cache lines whose hash
/// falls under `rate` are tracked, and every tracked access's
/// measured *sampled* stack distance is scaled back by 1/rate — the
/// classic StatStack/set-sampling estimator. Tests cross-check the
/// estimated miss curve against the exact analyzer.
namespace opm::trace {

class SampledReuseAnalyzer {
 public:
  /// `rate` in (0, 1]: fraction of distinct lines tracked (1.0 = exact).
  explicit SampledReuseAnalyzer(double rate, std::uint32_t line_size = 64,
                                std::uint64_t seed = 0x5eed);

  /// Recorder interface.
  void load(std::uint64_t addr, std::uint32_t size) { touch(addr, size); }
  void store(std::uint64_t addr, std::uint32_t size) { touch(addr, size); }
  void touch(std::uint64_t addr, std::uint32_t size);

  /// Total line accesses observed (sampled or not).
  std::uint64_t observed() const { return observed_; }
  /// Line accesses that passed the sampling filter.
  std::uint64_t sampled() const { return inner_.accesses(); }

  /// Estimated misses (in lines) of a fully associative LRU cache of
  /// `capacity_bytes`, scaled back to the full trace.
  double estimated_miss_lines(std::uint64_t capacity_bytes) const;

  /// Estimated hit rate over the full trace.
  double estimated_hit_rate(std::uint64_t capacity_bytes) const;

  double rate() const { return rate_; }

 private:
  bool selected(std::uint64_t line) const;

  double rate_;
  std::uint32_t line_size_;
  std::uint64_t line_shift_;
  std::uint64_t seed_;
  std::uint64_t threshold_;
  std::uint64_t observed_ = 0;
  ReuseDistanceAnalyzer inner_;
};

}  // namespace opm::trace
