// Ablation: cache replacement policy. The analytical models assume LRU
// (reuse-distance theory is exact only for LRU); this harness quantifies
// how far FIFO and random replacement stray on the kernels' real traces —
// i.e. how much error the LRU assumption can contribute.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stream.hpp"
#include "sim/flat_cache.hpp"
#include "sparse/generators.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/units.hpp"

namespace {
/// Feeds every touched line to three 1 MB 8-way caches, one per policy, in
/// a single pass over the kernel (the flat core: bit-identical to the
/// reference model). Each cache draws random victims from its own seeded
/// state, so the hit rates match replaying a stored trace three times.
class PolicyRecorder {
 public:
  void load(std::uint64_t addr, std::uint32_t size) { touch(addr, size, false); }
  void store(std::uint64_t addr, std::uint32_t size) { touch(addr, size, true); }

  /// CSV row: trace name, then LRU / FIFO / random hit rates.
  void row(opm::util::CsvWriter& csv, const char* trace) const {
    csv.row(trace, rate(0), rate(1), rate(2));
  }

 private:
  void touch(std::uint64_t addr, std::uint32_t size, bool is_write) {
    const std::uint64_t end = (addr + size - 1) & ~63ull;
    for (std::uint64_t l = addr & ~63ull; l <= end; l += 64)
      for (opm::sim::FlatCache& c : caches_) c.access(l, is_write);
  }
  std::string rate(std::size_t i) const {
    return opm::util::format_fixed(caches_[i].stats().hit_rate(), 4);
  }
  static opm::sim::FlatCache make(opm::sim::ReplacementPolicy policy) {
    return opm::sim::FlatCache({.name = "c", .capacity = 1024 * 1024, .line_size = 64,
                                .associativity = 8, .policy = policy});
  }

  opm::sim::FlatCache caches_[3] = {make(opm::sim::ReplacementPolicy::kLru),
                                    make(opm::sim::ReplacementPolicy::kFifo),
                                    make(opm::sim::ReplacementPolicy::kRandom)};
};
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
    PolicyRecorder rec;
    kernels::spmv_csr_instrumented(a, x, y, rec);
    rec.row(csv, "spmv_banded");
  }

  // SpMV on a scattered matrix: little recency to exploit.
  {
    const sparse::Csr a = sparse::make_random_uniform(20000, 10.0, 1);
    std::vector<double> x(20000, 1.0), y(20000);
    PolicyRecorder rec;
    kernels::spmv_csr_instrumented(a, x, y, rec);
    rec.row(csv, "spmv_random");
  }

  // Stream triad over 2 MB: cyclic scans, LRU's worst case.
  {
    const std::size_t n = (2 * util::MiB) / 24;
    std::vector<double> a(n), b(n), c(n);
    PolicyRecorder rec;
    for (int pass = 0; pass < 2; ++pass)
      kernels::stream_triad_instrumented(a, b, c, 1.0, rec);
    rec.row(csv, "stream_2mb_x2");
  }

  bench::shape_note(
      "Reuse-heavy traces favour LRU; cyclic scans slightly favour random (LRU thrashes a "
      "working set just over capacity). The spreads are small on these kernels, which is "
      "why modelling every tier as LRU — the assumption under the reuse-distance ground "
      "truth — is safe for the paper's figures.");
  return 0;
}
