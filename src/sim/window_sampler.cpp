#include "sim/window_sampler.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#include "util/metrics.hpp"

namespace opm::sim {
namespace {

std::atomic<SamplingMode> g_sampling_mode{SamplingMode::kOff};

/// splitmix64 finalizer — a stateless hash that turns the request seed
/// into the filter's (offset, step) pair without an RNG whose state
/// would depend on call order.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Power-of-two slice in [1, 32]: each half-slice divides capacities by
/// 2*slice, which must stay within the 64-residue span.
std::uint32_t clamp_slice(std::uint32_t s) {
  if (s == 0) s = 1;
  return std::bit_floor(std::min<std::uint32_t>(s, 32));
}

/// The platform one half-slice replays against: every tier (and device)
/// capacity divided by `factor`, which divides each tier's set count by
/// `factor` at unchanged associativity. `flat_opm_bytes` scales too, so
/// address-based device routing stays consistent with the compressed
/// address space.
Platform shrink_platform(Platform p, std::uint32_t factor) {
  for (auto& tier : p.tiers) tier.geometry.capacity /= factor;
  for (auto& dev : p.devices) dev.capacity /= factor;
  p.flat_opm_bytes /= factor;
  return p;
}

SampleConfig normalize(SampleConfig c) {
  c.slice = clamp_slice(c.slice);
  if (c.window_lines == 0) c.window_lines = 1;
  return c;
}

}  // namespace

const char* to_string(SamplingMode mode) {
  return mode == SamplingMode::kFast ? "fast" : "off";
}

bool parse_sampling_mode(std::string_view text, SamplingMode* out) {
  if (text == "off") {
    *out = SamplingMode::kOff;
    return true;
  }
  if (text == "fast") {
    *out = SamplingMode::kFast;
    return true;
  }
  return false;
}

void set_sampling_mode(SamplingMode mode) {
  g_sampling_mode.store(mode, std::memory_order_relaxed);
}

SamplingMode sampling_mode() {
  return g_sampling_mode.load(std::memory_order_relaxed);
}

SampleConfig sample_config_for(const util::Digest128& digest) {
  SampleConfig cfg;
  cfg.seed = digest.hi ^ digest.lo;
  return cfg;
}

WindowSampler::WindowSampler(const Platform& platform, const SampleConfig& config)
    : platform_(platform),
      config_(normalize(config)),
      exact_(config_.slice == 1),
      half_a_(exact_ ? platform : shrink_platform(platform, config_.slice * 2)),
      half_b_(shrink_platform(platform, exact_ ? 2 : config_.slice * 2)) {
  ranks_ = static_cast<std::uint32_t>(kResidueSpan) / config_.slice;
  half_ranks_ = std::max<std::uint32_t>(ranks_ / 2, 1);

  const std::uint32_t line_size =
      platform.tiers.empty() ? 64u : platform.tiers[0].geometry.line_size;
  line_mask_ = line_size - 1;
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_size));

  // Sampled residues: an arithmetic progression with odd step, so the
  // residue set covers every class mod 2^k (2^k <= ranks_) uniformly —
  // power-of-two strides cannot alias against the filter. The halves
  // split by AP INDEX, not by residue value: each half is then itself an
  // odd-step AP with the same coverage guarantee, so the half-sample
  // error bound is not poisoned by one half drawing only even residues.
  // Within a half, ranks follow ascending residue order, which keeps
  // compressed addresses monotone within each 64-line block (streams
  // stay streams for the prefetcher).
  const std::uint64_t h = splitmix64(config_.seed);
  const std::uint64_t offset = h & (kResidueSpan - 1);
  const std::uint64_t step = ((h >> 8) & (kResidueSpan - 1)) | 1ull;
  std::vector<std::uint64_t> residues;
  residues.reserve(ranks_);
  for (std::uint32_t j = 0; j < ranks_; ++j)
    residues.push_back((offset + j * step) & (kResidueSpan - 1));
  for (auto& r : rank_) r = -1;
  std::vector<std::uint64_t> half(residues.begin(), residues.begin() + half_ranks_);
  std::sort(half.begin(), half.end());
  for (std::uint32_t j = 0; j < half.size(); ++j)
    rank_[half[j]] = static_cast<std::int8_t>(j);
  half.assign(residues.begin() + half_ranks_, residues.end());
  std::sort(half.begin(), half.end());
  for (std::uint32_t j = 0; j < half.size(); ++j)
    rank_[half[j]] = static_cast<std::int8_t>(half_ranks_ + j);
  sample_mask_ = 0;
  for (std::uint64_t r = 0; r < kResidueSpan; ++r)
    if (rank_[r] >= 0) sample_mask_ |= 1ull << r;

  if (exact_) {
    // Degenerate slice: everything is simulated at full scale; skip the
    // buffering stage (the "short trace" replay would duplicate work).
    buffering_ = false;
  } else {
    buffer_.reserve(std::min<std::uint64_t>(config_.min_exact_lines, 1u << 20));
  }
}

void WindowSampler::enable_prefetcher(std::uint32_t streams, std::uint32_t depth) {
  // The halves construct (and validate) their prefetchers first, so a
  // rejected configuration leaves the sampler unchanged.
  half_a_.enable_prefetcher(streams, depth);
  half_b_.enable_prefetcher(streams, depth);
  prefetcher_ = true;
  pf_streams_ = streams;
  pf_depth_ = depth;
}

void WindowSampler::forward_line(std::uint64_t line, std::int8_t rank,
                                 std::uint64_t offset, std::uint64_t size,
                                 bool is_write, bool nt) {
  const std::uint32_t h =
      static_cast<std::uint32_t>(rank) >= half_ranks_ ? 1u : 0u;
  ++half_lines_[h];
  const std::uint64_t local =
      static_cast<std::uint64_t>(rank) - static_cast<std::uint64_t>(h) * half_ranks_;
  // kResidueSpan == 64, so the block index is line >> 6; each half packs
  // its half_ranks_ sampled lines per block densely.
  const std::uint64_t compressed = (line >> 6) * half_ranks_ + local;
  const std::uint64_t addr = (compressed << line_shift_) | offset;
  MemorySystem& sys = h ? half_b_ : half_a_;
  if (nt) {
    sys.store_nt(addr, size);
  } else {
    sys.access(addr, size, is_write);
  }
}

void WindowSampler::forward_span(std::uint64_t addr, std::uint64_t size, bool is_write,
                                 bool nt) {
  // Walk the spanned lines and forward the sampled ones with their
  // intra-line byte ranges, so partial head/tail accesses replay exactly.
  const std::uint64_t end = addr + size;
  std::uint64_t cur = addr;
  while (cur < end) {
    const std::uint64_t line = cur >> line_shift_;
    const std::uint64_t line_end = (line + 1) << line_shift_;
    const std::uint64_t piece = std::min(end, line_end) - cur;
    const std::int8_t rank = rank_[line & (kResidueSpan - 1)];
    if (rank >= 0) forward_line(line, rank, cur & line_mask_, piece, is_write, nt);
    cur += piece;
  }
}

void WindowSampler::flush_buffer() {
  buffering_ = false;
  const std::vector<Op> ops = std::move(buffer_);
  buffer_.clear();
  for (const Op& op : ops) {
    const std::uint64_t nlines =
        ((op.addr & line_mask_) + op.size + line_mask_) >> line_shift_;
    if (nlines == 1) {
      const std::uint64_t line = op.addr >> line_shift_;
      const std::int8_t rank = rank_[line & (kResidueSpan - 1)];
      if (rank >= 0)
        forward_line(line, rank, op.addr & line_mask_, op.size, op.is_write, op.nt);
    } else {
      forward_span(op.addr, op.size, op.is_write, op.nt);
    }
  }
}

const SampledTraffic& WindowSampler::sampled_report() {
  if (finalized_) return result_;
  finalized_ = true;

  result_.lines_observed = pos_;

  if (buffering_) {
    // The stream ended under the exactness floor: replay it through a
    // full-platform system — the sampled path never ran.
    MemorySystem exact(platform_);
    if (prefetcher_) exact.enable_prefetcher(pf_streams_, pf_depth_);
    for (const Op& op : buffer_) {
      if (op.nt) {
        exact.store_nt(op.addr, op.size);
      } else {
        exact.access_range(op.addr, op.size, op.is_write);
      }
    }
    buffer_.clear();
    result_.traffic = exact.report();
    result_.sampled = false;
    result_.max_rel_error = 0.0;
    result_.lines_simulated = pos_;
    result_.windows_measured = 0;
    return result_;
  }

  // Windows are a pure progress unit, derived from the observed line
  // count once at finalize so the hot path never tracks boundaries.
  windows_ = pos_ / config_.window_lines;

  if (exact_) {
    result_.traffic = half_a_.report();
    result_.traffic.total_accesses = pos_;
    result_.traffic.total_bytes = bytes_;
    result_.sampled = false;
    result_.max_rel_error = 0.0;
    result_.lines_simulated = pos_;
    result_.windows_measured = windows_;
    return result_;
  }

  if (windows_ == 0) windows_ = 1;  // a sampled run always measured something
  result_.windows_measured = windows_;
  result_.sampled = true;

  const std::uint64_t s_a = half_lines_[0];
  const std::uint64_t s_b = half_lines_[1];
  result_.lines_simulated = s_a + s_b;

  const TrafficReport rep_a = half_a_.report();
  const TrafficReport rep_b = half_b_.report();
  const std::uint64_t line_size = line_mask_ + 1;
  TrafficReport& out = result_.traffic;
  out.tiers.clear();
  out.devices.clear();
  out.total_accesses = pos_;
  out.total_bytes = bytes_;

  if (s_a + s_b == 0) {
    // Pathological: the trace never touched a sampled residue. Report
    // zero traffic and a 100% bound — the caller can see it is unusable.
    for (const TierTraffic& t : rep_a.tiers) out.tiers.push_back({.name = t.name});
    for (const TierTraffic& d : rep_a.devices) out.devices.push_back({.name = d.name});
    result_.max_rel_error = 1.0;
    return result_;
  }

  // Extrapolation: combined half counters scaled by observed/sampled
  // lines. Error bound: the halves are independent 1/(2*slice) samples,
  // so their separately-extrapolated estimates Ya, Yb disagree by about
  // twice the combined estimate's own error — |Ya - Yb| / (Ya + Yb) is a
  // direct half-sample measurement of the spatial sampling error, maxed
  // over every counter carrying at least 1% of sampled line traffic (a
  // counter below the floor can move total traffic by at most its share;
  // docs/MODEL.md §16).
  const double scale =
      static_cast<double>(pos_) / static_cast<double>(s_a + s_b);
  const double up_a = s_a ? static_cast<double>(pos_) / static_cast<double>(s_a) : 0.0;
  const double up_b = s_b ? static_cast<double>(pos_) / static_cast<double>(s_b) : 0.0;
  double max_rel = (s_a == 0 || s_b == 0) ? 1.0 : 0.0;
  const auto combine = [&](std::uint64_t a, std::uint64_t b) {
    if (s_a != 0 && s_b != 0) {
      const double share = static_cast<double>(a + b) / static_cast<double>(s_a + s_b);
      const double ya = static_cast<double>(a) * up_a;
      const double yb = static_cast<double>(b) * up_b;
      if (share >= 0.01 && ya + yb > 0.0)
        max_rel = std::max(max_rel, std::abs(ya - yb) / (ya + yb));
    }
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(a + b) * scale));
  };
  for (std::size_t i = 0; i < rep_a.tiers.size(); ++i) {
    const TierTraffic& a = rep_a.tiers[i];
    const TierTraffic& b = rep_b.tiers[i];
    TierTraffic s;
    s.name = a.name;
    s.hits = combine(a.hits, b.hits);
    s.bytes_served = s.hits * line_size;
    s.writebacks = combine(a.writebacks, b.writebacks);
    out.tiers.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < rep_a.devices.size(); ++i) {
    const TierTraffic& a = rep_a.devices[i];
    const TierTraffic& b = rep_b.devices[i];
    TierTraffic s;
    s.name = a.name;
    s.hits = combine(a.hits, b.hits);
    s.bytes_served = s.hits * line_size;
    s.writebacks = combine(a.writebacks, b.writebacks);
    s.prefetches = combine(a.prefetches, b.prefetches);
    out.devices.push_back(std::move(s));
  }
  result_.max_rel_error = max_rel;

  auto& registry = util::MetricsRegistry::instance();
  registry.counter("sim.sampled_windows").add(windows_);
  registry.double_counter("sim.sampling_rel_error").add(max_rel);
  return result_;
}

}  // namespace opm::sim
