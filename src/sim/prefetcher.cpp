#include "sim/prefetcher.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "sim/simd_probe.hpp"
#include "util/rng.hpp"

namespace opm::sim {

namespace {

constexpr std::int64_t kIdle = std::numeric_limits<std::int64_t>::max();
constexpr std::size_t kNone = ~std::size_t{0};

/// line - last as a wrapping 64-bit difference (the stride domain).
std::int64_t delta_of(std::int64_t line, std::int64_t last) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(line) -
                                   static_cast<std::uint64_t>(last));
}

#if OPM_SIMD_X86

constexpr std::size_t kMatched = std::size_t{1} << 63;

/// AVX2 table scan, four entries per compare. Returns the first entry that
/// continues its stride or trains a nascent stream, as `slot | kMatched`;
/// on no match, the highest free slot, else the least recently used entry.
/// Mirrors StridePrefetcher::scan_scalar() exactly.
__attribute__((target("avx2"))) std::size_t scan_avx2(
    const std::int64_t* last_line, const std::int64_t* stride, const std::int64_t* last_use,
    const std::uint64_t* valid, std::size_t streams, std::size_t padded, std::int64_t line) {
  const __m256i vline = _mm256_set1_epi64x(line);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i minus3 = _mm256_set1_epi64x(-3);
  const __m256i plus3 = _mm256_set1_epi64x(3);
  const __m256i four = _mm256_set1_epi64x(4);
  // Running per-lane minimum of last_use and the entry index holding it.
  __m256i vmin = _mm256_set1_epi64x(kIdle);
  __m256i vmin_at = _mm256_setzero_si256();
  __m256i at = _mm256_setr_epi64x(0, 1, 2, 3);
  for (std::size_t i = 0; i < padded; i += 4) {
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(stride + i));
    const __m256i d = _mm256_sub_epi64(
        vline, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(last_line + i)));
    const __m256i untrained = _mm256_cmpeq_epi64(s, zero);
    // continues: stride != 0 && delta == stride
    const __m256i cont = _mm256_andnot_si256(untrained, _mm256_cmpeq_epi64(d, s));
    // nascent: stride == 0 && delta != 0 && -2 <= delta <= 2
    const __m256i near = _mm256_and_si256(_mm256_cmpgt_epi64(d, minus3),
                                          _mm256_cmpgt_epi64(plus3, d));
    const __m256i nascent =
        _mm256_andnot_si256(_mm256_cmpeq_epi64(d, zero), _mm256_and_si256(untrained, near));
    const auto matches = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_or_si256(cont, nascent))));
    const unsigned hits = matches & static_cast<unsigned>((valid[i >> 6] >> (i & 63)) & 0xFu);
    if (hits != 0) return (i + static_cast<std::size_t>(std::countr_zero(hits))) | kMatched;
    const __m256i u = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(last_use + i));
    const __m256i older = _mm256_cmpgt_epi64(vmin, u);
    vmin = _mm256_blendv_epi8(vmin, u, older);
    vmin_at = _mm256_blendv_epi8(vmin_at, at, older);
    at = _mm256_add_epi64(at, four);
  }
  // No match: the highest free entry, if any.
  for (std::size_t w = (streams + 63) / 64; w-- > 0;) {
    const std::size_t bits = streams - w * 64;
    const std::uint64_t in_table = bits >= 64 ? ~0ull : (1ull << bits) - 1;
    const std::uint64_t free = ~valid[w] & in_table;
    if (free != 0) return w * 64 + 63 - static_cast<std::size_t>(std::countl_zero(free));
  }
  // Table full: the least recently used entry. Valid last_use values are
  // distinct and free/padding entries hold kIdle, so the minimum is unique;
  // a branchless two-step lane reduction carries its index along.
  __m256i other = _mm256_permute4x64_epi64(vmin, 0b10110001);  // lane pairs
  __m256i other_at = _mm256_permute4x64_epi64(vmin_at, 0b10110001);
  __m256i later = _mm256_cmpgt_epi64(vmin, other);
  vmin = _mm256_blendv_epi8(vmin, other, later);
  vmin_at = _mm256_blendv_epi8(vmin_at, other_at, later);
  other = _mm256_permute4x64_epi64(vmin, 0b01001110);  // 128-bit halves
  other_at = _mm256_permute4x64_epi64(vmin_at, 0b01001110);
  later = _mm256_cmpgt_epi64(vmin, other);
  vmin_at = _mm256_blendv_epi8(vmin_at, other_at, later);
  return static_cast<std::size_t>(_mm256_extract_epi64(vmin_at, 0));
}

#endif  // OPM_SIMD_X86

}  // namespace

StridePrefetcher::StridePrefetcher(std::size_t streams, std::size_t depth,
                                   std::uint32_t line_size)
    : streams_(streams), depth_(depth), line_size_(line_size) {
  if (streams == 0)
    throw std::invalid_argument("StridePrefetcher: streams must be >= 1 (got 0)");
  line_pow2_ = line_size_ != 0 && std::has_single_bit(line_size_);
  if (line_pow2_) line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_size_));
#if OPM_SIMD_X86
#if defined(__AVX2__)
  use_avx2_ = true;
#else
  use_avx2_ = __builtin_cpu_supports("avx2");
#endif
#endif
  const std::size_t padded = (streams + 3) / 4 * 4;
  last_line_.assign(padded, 0);
  stride_.assign(padded, 0);
  last_use_.assign(padded, kIdle);
  valid_.assign((padded + 63) / 64, 0);
}

StridePrefetcher::Scan StridePrefetcher::scan_scalar(std::int64_t line) const {
  // Look for a stream this access continues: either it matches the
  // established stride, or it is within +/- 2 lines of a tracked head
  // (stride training). Otherwise remember the highest free slot and the
  // least recently used stream.
  std::size_t free_slot = kNone;
  std::size_t oldest = kNone;
  for (std::size_t i = 0; i < streams_; ++i) {
    if (!valid(i)) {
      free_slot = i;
      continue;
    }
    const std::int64_t delta = delta_of(line, last_line_[i]);
    if (stride_[i] != 0 && delta == stride_[i]) return {i, true};
    if (stride_[i] == 0 && delta != 0 && delta >= -2 && delta <= 2) return {i, true};
    if (oldest == kNone || last_use_[i] < last_use_[oldest]) oldest = i;
  }
  return {free_slot != kNone ? free_slot : oldest, false};
}

StridePrefetcher::Scan StridePrefetcher::scan(std::int64_t line) const {
#if OPM_SIMD_X86
  if (use_avx2_) {
    const std::size_t r = scan_avx2(last_line_.data(), stride_.data(), last_use_.data(),
                                    valid_.data(), streams_, last_line_.size(), line);
    return {r & ~kMatched, (r & kMatched) != 0};
  }
#endif
  return scan_scalar(line);
}

std::size_t StridePrefetcher::apply(Scan s, std::int64_t line, std::uint64_t* out) {
  const std::size_t i = s.slot;
  if (!s.matched) {
    // No stream matched: allocate, preferring a free slot over replacing
    // the least recently useful stream.
    valid_[i >> 6] |= 1ull << (i & 63);
    last_line_[i] = line;
    stride_[i] = 0;
    last_use_[i] = clock_;
    return 0;
  }
  if (stride_[i] == 0) {
    // Second access of a nascent stream: lock the stride in.
    stride_[i] = delta_of(line, last_line_[i]);
    last_line_[i] = line;
    last_use_[i] = clock_;
    return 0;
  }
  // Established stream continues: prefetch depth lines ahead.
  last_line_[i] = line;
  last_use_[i] = clock_;
  ++stream_hits_;
  std::size_t n = 0;
  for (std::size_t d = 1; d <= depth_; ++d) {
    const std::int64_t target = line + stride_[i] * static_cast<std::int64_t>(d);
    if (target < 0) break;
    out[n++] = line_pow2_ ? static_cast<std::uint64_t>(target) << line_shift_
                          : static_cast<std::uint64_t>(target) * line_size_;
  }
  issued_ += n;
  return n;
}

std::size_t StridePrefetcher::observe_into(std::uint64_t line_addr, std::uint64_t* out) {
  ++clock_;
  const std::int64_t line = line_of(line_addr);
  return apply(scan(line), line, out);
}

std::vector<std::uint64_t> StridePrefetcher::observe(std::uint64_t line_addr) {
  ++clock_;
  const std::int64_t line = line_of(line_addr);
  std::vector<std::uint64_t> out(depth_);
  out.resize(apply(scan_scalar(line), line, out.data()));
  return out;
}

void StridePrefetcher::reset() {
  std::fill(last_line_.begin(), last_line_.end(), 0);
  std::fill(stride_.begin(), stride_.end(), 0);
  std::fill(last_use_.begin(), last_use_.end(), kIdle);
  std::fill(valid_.begin(), valid_.end(), 0);
  clock_ = 0;
  issued_ = stream_hits_ = 0;
}

bool StridePrefetcher::self_check() {
  constexpr std::size_t kStreams[] = {1, 4, 5, 16, 17, 64, 65};
  constexpr std::size_t kDepths[] = {1, 4, 8};
  util::Xoshiro256 rng(0x9f3c);
  for (const std::size_t streams : kStreams) {
    for (const std::size_t depth : kDepths) {
      StridePrefetcher fast(streams, depth), oracle(streams, depth);
      std::vector<std::uint64_t> out(depth);
      // Interleaved ascending/descending runs, random jumps and lines near
      // 0 (descending targets below line 0 end the issue loop early).
      std::int64_t heads[6] = {0, 1 << 20, 5, 3 << 20, 7 << 20, 2};
      const std::int64_t strides[6] = {1, -1, -1, 2, -2, 1};
      for (int step = 0; step < 4000; ++step) {
        std::uint64_t line = 0;
        const std::uint64_t pick = rng.bounded(10);
        if (pick < 6) {
          std::int64_t& head = heads[pick];
          head += strides[pick];
          if (head < 0) head = static_cast<std::int64_t>(rng.bounded(8));
          line = static_cast<std::uint64_t>(head);
        } else {
          line = rng.bounded(pick == 9 ? 16 : 1u << 22);
        }
        if (fast.scan(static_cast<std::int64_t>(line)) !=
            fast.scan_scalar(static_cast<std::int64_t>(line)))
          return false;
        const std::size_t n = fast.observe_into(line * 64, out.data());
        const std::vector<std::uint64_t> want = oracle.observe(line * 64);
        if (n != want.size()) return false;
        for (std::size_t k = 0; k < n; ++k)
          if (out[k] != want[k]) return false;
      }
      if (fast.issued() != oracle.issued() || fast.stream_hits() != oracle.stream_hits())
        return false;
    }
  }
  return true;
}

}  // namespace opm::sim
