#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// Seeded workload inputs and the benchmark's reporting rules.
///
/// Everything a workload sends is a pure function of the --seed argument:
/// the same seed yields byte-identical request lines, so two runs of one
/// seed drive the program with identical inputs.
namespace opmbench {

/// One generated serve request: its protocol type and the JSON members
/// after the v2 envelope (everything but "v" and "req_id").
struct GenRequest {
  std::string type;  ///< "dense", "sparse", "footprint" or "advise"
  std::string body;  ///< e.g. "\"type\":\"sparse\",\"platform\":\"knl-flat\",\"kernel\":\"spmv\""

  bool operator==(const GenRequest&) const = default;
};

/// The v2 request line (with trailing newline) for `req` under req_id `id`.
std::string wire_line(const GenRequest& req, std::uint64_t id);

/// The serve-hot key universe: `n` requests, a quarter each dense,
/// sparse, footprint and advise, listed hottest rank first. A rank's type
/// and payload size class are the same on every seed; the seed picks the
/// platforms and kernels. Distinct for n <= 96 (sparse has 24 keys).
std::vector<GenRequest> hot_universe(std::uint64_t seed, std::size_t n);

/// One zipf(s) cycle over ranks [0, n): rank k appears
/// max(1, round(cycle * share_k)) times, so the deck holds about `cycle`
/// entries in exact zipf proportions. Index 0 is the hottest key.
std::vector<std::size_t> zipf_deck(std::size_t n, double s, std::size_t cycle);

/// `count` ranks: the zipf deck reshuffled (seeded) for every cycle and
/// concatenated. Every whole cycle has the same mix on every seed; only
/// the order depends on the seed.
std::vector<std::size_t> zipf_sequence(std::uint64_t seed, std::size_t n, double s,
                                       std::size_t cycle, std::size_t count);

/// The reporting rule for tail latency: the highest whole percentile, at
/// most `wanted`, that has at least 10 of the `n` samples beyond it.
/// Returns 0 when fewer than 11 samples exist (nothing qualifies but the
/// minimum).
int tail_percentile(std::size_t n, int wanted);

/// util::percentile of `values` at tail_percentile(values.size(), wanted).
double tail_value(std::span<const double> values, int wanted, int* used = nullptr);

/// `values` as a JSON array of numbers (for the result file).
std::string json_numbers(std::span<const double> values);

}  // namespace opmbench
