#pragma once

#include <cstdint>
#include <string>

/// Human-readable formatting helpers shared by all reporting code.
namespace opm::util {

/// "128 MB", "16 GB", "6 MB" — binary units, trimmed like the paper's prose.
std::string format_bytes(std::uint64_t bytes);

/// "102.4 GB/s" — decimal units as the paper reports bandwidths.
std::string format_bandwidth(double bytes_per_second);

/// "236.8 GFlop/s".
std::string format_gflops(double flops_per_second);

/// Fixed-precision double, e.g. format_fixed(3.14159, 2) == "3.14".
std::string format_fixed(double v, int precision);

/// "1.243x" speedup formatting used in Tables 4 and 5.
std::string format_speedup(double ratio);

/// Appends `v` as a C99 hex float, byte-identical to printf("%a"): the
/// one exact, locale-independent rendering every serialized double
/// (sweep payloads, cache-key canonical text, advise JSON) goes through.
/// Built on std::to_chars, so it never touches the C locale or stdio.
void append_hexf(std::string& out, double v);
std::string hexf(double v);

/// Left-pads or truncates to an exact column width (for ASCII tables).
std::string pad(const std::string& s, std::size_t width);

}  // namespace opm::util
