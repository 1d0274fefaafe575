#include "gen.hpp"

#include <algorithm>
#include <cmath>

#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace opmbench {
namespace {

constexpr const char* kPlatforms[] = {"broadwell-edram-off", "broadwell-edram-on", "knl-ddr",
                                      "knl-cache",           "knl-flat",           "knl-hybrid"};

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string head(const char* type, const char* platform, const char* kernel) {
  return std::string("\"type\":\"") + type + "\",\"platform\":\"" + platform +
         "\",\"kernel\":\"" + kernel + "\"";
}

GenRequest dense(const char* platform, const char* kernel, std::uint64_t n_lo,
                 std::uint64_t n_hi, std::uint64_t nb_hi) {
  return {"dense", head("dense", platform, kernel) + ",\"n_lo\":" + num(n_lo) +
                       ",\"n_hi\":" + num(n_hi) + ",\"n_step\":512,\"nb_lo\":128,\"nb_hi\":" +
                       num(nb_hi) + ",\"nb_step\":128"};
}

GenRequest footprint(const char* platform, const char* kernel, std::uint64_t fp_hi,
                     std::uint64_t points) {
  return {"footprint", head("footprint", platform, kernel) + ",\"fp_lo\":16384,\"fp_hi\":" +
                           num(fp_hi) + ",\"points\":" + num(points)};
}

GenRequest advise(const char* platform, const char* kernel, const char* objective) {
  // No footprint_bytes: the advisor's default footprint.
  return {"advise", head("advise", platform, kernel) + ",\"objective\":\"" + objective + "\""};
}

template <class T>
void shuffle(std::vector<T>& v, opm::util::Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.bounded(i)]);
}

}  // namespace

std::string wire_line(const GenRequest& req, std::uint64_t id) {
  return "{\"v\":2,\"req_id\":\"" + num(id) + "\"," + req.body + "}\n";
}

std::vector<GenRequest> hot_universe(std::uint64_t seed, std::size_t n) {
  // Rank r (0 = hottest) has type r % 4 and, within the type, a stratum
  // fixed by j = r / 4: the dense grid or footprint point count (j % 3),
  // the sparse kernel variant (j % 4), the advise kernel and objective
  // (j % 16). The seed picks the platform inside each stratum, so a rank
  // costs about the same on every seed, and so does a zipf cycle.
  opm::util::Xoshiro256 rng(seed ^ 0x686f742d756e6976ull);
  constexpr std::uint64_t kDenseSizes[3][2] = {{4096, 1024}, {8192, 2048}, {16128, 4096}};
  constexpr std::uint64_t kFootprintPoints[3] = {32, 64, 128};
  constexpr const char* kAdviseAll[] = {"gemm",   "cholesky", "spmv",    "sptrans",
                                        "sptrsv", "stream",   "stencil", "fft"};
  // strata[type][stratum] -> candidates, one per platform (several kernels
  // share a dense / footprint size stratum).
  std::vector<std::vector<std::vector<GenRequest>>> strata(4);
  strata[0].resize(3);
  strata[1].resize(4);
  strata[2].resize(3);
  strata[3].resize(16);
  for (const char* p : kPlatforms) {
    for (int c = 0; c < 3; ++c) {
      for (const char* k : {"gemm", "cholesky"})
        strata[0][c].push_back(dense(p, k, 256, kDenseSizes[c][0], kDenseSizes[c][1]));
      for (const char* k : {"stream", "stencil", "fft"})
        strata[2][c].push_back(footprint(p, k, 16777216ull * 24, kFootprintPoints[c]));
    }
    int v = 0;
    for (const char* k : {"spmv", "sptrsv", "sptrans"})
      strata[1][v++].push_back({"sparse", head("sparse", p, k)});
    strata[1][v].push_back({"sparse", head("sparse", p, "sptrans") + ",\"merge_based\":true"});
    for (int k = 0; k < 8; ++k) {
      strata[3][k].push_back(advise(p, kAdviseAll[k], "perf"));
      strata[3][8 + k].push_back(advise(p, kAdviseAll[k], "energy"));
    }
  }
  // Each stratum keeps a fixed subset of its candidates, as many as it has
  // ranks, so the set of keys (and with it the servers' memory) is the
  // same on every seed; the seed only decides which rank gets which key.
  std::vector<std::vector<std::size_t>> slots(4);
  for (std::size_t t = 0; t < 4; ++t) slots[t].assign(strata[t].size(), 0);
  for (std::size_t r = 0; r < n; ++r) ++slots[r % 4][(r / 4) % strata[r % 4].size()];
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t c = 0; c < strata[t].size(); ++c) {
      auto& candidates = strata[t][c];
      candidates.resize(std::min(candidates.size(), std::max<std::size_t>(1, slots[t][c])));
      shuffle(candidates, rng);
      slots[t][c] = 0;
    }
  }
  std::vector<GenRequest> out;
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t t = r % 4, c = (r / 4) % strata[t].size();
    const auto& candidates = strata[t][c];
    out.push_back(candidates[slots[t][c]++ % candidates.size()]);
  }
  return out;
}

std::vector<std::size_t> zipf_deck(std::size_t n, double s, std::size_t cycle) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) total += 1.0 / std::pow(static_cast<double>(k + 1), s);
  std::vector<std::size_t> deck;
  for (std::size_t k = 0; k < n; ++k) {
    const double share = 1.0 / std::pow(static_cast<double>(k + 1), s) / total;
    const auto copies = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(share * static_cast<double>(cycle))));
    deck.insert(deck.end(), copies, k);
  }
  return deck;
}

std::vector<std::size_t> zipf_sequence(std::uint64_t seed, std::size_t n, double s,
                                       std::size_t cycle, std::size_t count) {
  std::vector<std::size_t> deck = zipf_deck(n, s, cycle);
  opm::util::Xoshiro256 rng(seed ^ 0x7a6970662d736571ull);
  std::vector<std::size_t> out;
  out.reserve(count + deck.size());
  while (out.size() < count) {
    shuffle(deck, rng);
    out.insert(out.end(), deck.begin(), deck.end());
  }
  out.resize(count);
  return out;
}

int tail_percentile(std::size_t n, int wanted) {
  if (n < 10) return 0;
  // (100 - p) / 100 * n >= 10  <=>  p <= 100 - 1000 / n
  const std::size_t need = (1000 + n - 1) / n;  // ceil(1000 / n)
  const int cap = need >= 100 ? 0 : 100 - static_cast<int>(need);
  return std::min(wanted, cap);
}

double tail_value(std::span<const double> values, int wanted, int* used) {
  const int p = tail_percentile(values.size(), wanted);
  if (used) *used = p;
  return values.empty() ? 0.0 : opm::util::percentile(values, p);
}

std::string json_numbers(std::span<const double> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += opm::util::format_json_number(values[i]);
  }
  return out + "]";
}

}  // namespace opmbench
