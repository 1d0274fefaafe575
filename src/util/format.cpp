#include "util/format.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/units.hpp"

namespace opm::util {

namespace {
std::string printf_string(const char* fmt, double v) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), fmt, v);
  return buf.data();
}
}  // namespace

std::string format_bytes(std::uint64_t bytes) {
  if (bytes >= GiB && bytes % GiB == 0) return std::to_string(bytes / GiB) + " GB";
  if (bytes >= MiB && bytes % MiB == 0) return std::to_string(bytes / MiB) + " MB";
  if (bytes >= KiB && bytes % KiB == 0) return std::to_string(bytes / KiB) + " KB";
  if (bytes >= GiB) return printf_string("%.2f GB", static_cast<double>(bytes) / static_cast<double>(GiB));
  if (bytes >= MiB) return printf_string("%.2f MB", static_cast<double>(bytes) / static_cast<double>(MiB));
  if (bytes >= KiB) return printf_string("%.2f KB", static_cast<double>(bytes) / static_cast<double>(KiB));
  return std::to_string(bytes) + " B";
}

std::string format_bandwidth(double bytes_per_second) {
  return printf_string("%.1f GB/s", to_gbps(bytes_per_second));
}

std::string format_gflops(double flops_per_second) {
  return printf_string("%.1f GFlop/s", to_gflops(flops_per_second));
}

std::string format_fixed(double v, int precision) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", precision, v);
  return buf.data();
}

std::string format_speedup(double ratio) { return format_fixed(ratio, 3) + "x"; }

void append_hexf(std::string& out, double v) {
  // glibc's %a spells the sign, then "0x" for finite values only ("inf",
  // "nan"); to_chars' hex form is the same text without either.
  if (std::signbit(v)) out += '-';
  const double mag = std::fabs(v);
  if (std::isfinite(mag)) out += "0x";
  if (std::fpclassify(mag) == FP_SUBNORMAL) {
    // %a keeps subnormals unnormalized, "0.<mantissa>p-1022". Spelled out
    // here because libstdc++ releases disagree on the form to_chars gives
    // some of them (the power-of-two ones).
    const auto mantissa = std::bit_cast<std::uint64_t>(mag);
    char digits[13];
    for (int i = 0; i < 13; ++i) digits[i] = "0123456789abcdef"[(mantissa >> (48 - 4 * i)) & 0xf];
    std::size_t n = 13;
    while (digits[n - 1] == '0') --n;  // a subnormal has a nonzero digit
    out += "0.";
    out.append(digits, n);
    out += "p-1022";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, mag, std::chars_format::hex);
  out.append(buf, res.ptr);
}

std::string hexf(double v) {
  std::string out;
  append_hexf(out, v);
  return out;
}

std::string pad(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s.substr(0, width);
  return s + std::string(width - s.size(), ' ');
}

}  // namespace opm::util
