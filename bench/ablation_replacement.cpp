// Ablation: cache replacement policy. The analytical models assume LRU
// (reuse-distance theory is exact only for LRU); this harness quantifies
// how far FIFO and random replacement stray on the kernels' real traces —
// i.e. how much error the LRU assumption can contribute.
#include <iostream>

#include "common.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stream.hpp"
#include "sim/flat_cache.hpp"
#include "sparse/generators.hpp"
#include "trace/recorder.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/units.hpp"

namespace {
/// Hit rate of a 1 MB 8-way cache with the given policy on a trace (the flat
/// core: bit-identical to the reference model, random victims included).
double hit_rate(opm::sim::ReplacementPolicy policy,
                const std::vector<opm::trace::MemEvent>& events) {
  opm::sim::FlatCache cache({.name = "c", .capacity = 1024 * 1024, .line_size = 64,
                             .associativity = 8, .policy = policy});
  for (const auto& e : events) {
    const std::uint64_t line = e.addr & ~63ull;
    const std::uint64_t end = (e.addr + e.size - 1) & ~63ull;
    for (std::uint64_t l = line; l <= end; l += 64) cache.access(l, e.is_write);
  }
  return cache.stats().hit_rate();
}
}  // namespace

int main() {
  using namespace opm;
  bench::banner("Ablation", "Replacement policy: LRU vs FIFO vs random on kernel traces");

  util::CsvWriter csv(std::cout);
  csv.header({"trace", "lru_hit_rate", "fifo_hit_rate", "random_hit_rate"});

  // SpMV on a banded matrix: strong recency in the x-vector gathers.
  {
    const sparse::Csr a = sparse::make_banded(20000, 16, 10.0, 1);
    std::vector<double> x(20000, 1.0), y(20000);
    trace::VectorRecorder rec;
    kernels::spmv_csr_instrumented(a, x, y, rec);
    csv.row("spmv_banded",
            util::format_fixed(hit_rate(sim::ReplacementPolicy::kLru, rec.events), 4),
            util::format_fixed(hit_rate(sim::ReplacementPolicy::kFifo, rec.events), 4),
            util::format_fixed(hit_rate(sim::ReplacementPolicy::kRandom, rec.events), 4));
  }

  // SpMV on a scattered matrix: little recency to exploit.
  {
    const sparse::Csr a = sparse::make_random_uniform(20000, 10.0, 1);
    std::vector<double> x(20000, 1.0), y(20000);
    trace::VectorRecorder rec;
    kernels::spmv_csr_instrumented(a, x, y, rec);
    csv.row("spmv_random",
            util::format_fixed(hit_rate(sim::ReplacementPolicy::kLru, rec.events), 4),
            util::format_fixed(hit_rate(sim::ReplacementPolicy::kFifo, rec.events), 4),
            util::format_fixed(hit_rate(sim::ReplacementPolicy::kRandom, rec.events), 4));
  }

  // Stream triad over 2 MB: cyclic scans, LRU's worst case.
  {
    const std::size_t n = (2 * util::MiB) / 24;
    std::vector<double> a(n), b(n), c(n);
    trace::VectorRecorder rec;
    for (int pass = 0; pass < 2; ++pass)
      kernels::stream_triad_instrumented(a, b, c, 1.0, rec);
    csv.row("stream_2mb_x2",
            util::format_fixed(hit_rate(sim::ReplacementPolicy::kLru, rec.events), 4),
            util::format_fixed(hit_rate(sim::ReplacementPolicy::kFifo, rec.events), 4),
            util::format_fixed(hit_rate(sim::ReplacementPolicy::kRandom, rec.events), 4));
  }

  bench::shape_note(
      "Reuse-heavy traces favour LRU; cyclic scans slightly favour random (LRU thrashes a "
      "working set just over capacity). The spreads are small on these kernels, which is "
      "why modelling every tier as LRU — the assumption under the reuse-distance ground "
      "truth — is safe for the paper's figures.");
  return 0;
}
