#include "trace/reuse.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace opm::trace {

namespace {
std::uint64_t lowbit(std::uint64_t i) { return i & (~i + 1); }

/// Marker positions of a fresh tree; compactions never shrink below it.
constexpr std::uint64_t kMinPositions = 64;
constexpr std::size_t kMinTable = 16;
}  // namespace

ReuseDistanceAnalyzer::ReuseDistanceAnalyzer(std::uint32_t line_size)
    : line_size_(line_size),
      tree_(kMinPositions + 1, 0),
      table_(kMinTable),
      table_shift_(64 - static_cast<std::uint32_t>(std::countr_zero(kMinTable))),
      histogram_(1, 0) {
  if (line_size == 0 || !std::has_single_bit(line_size))
    throw std::invalid_argument("line size must be a power of two");
  line_shift_ = static_cast<std::uint64_t>(std::countr_zero(line_size));
}

void ReuseDistanceAnalyzer::touch(std::uint64_t addr, std::uint32_t size) {
  if (size == 0) return;
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t last = (addr + size - 1) >> line_shift_;
  for (std::uint64_t line = first; line <= last; ++line) {
    if (accesses_++ != 0 && line == last_line_) {
      // The line's marker is already the newest: distance 0, nothing moves.
      ++histogram_[0];
      continue;
    }
    last_line_ = line;
    Entry& e = entry(line);
    if (e.pos == kFree) {
      ++cold_;
    } else {
      // Live markers are the most-recent access of each distinct line, so
      // the count of markers strictly after the previous position is the
      // stack distance.
      const std::uint64_t distance = cold_ - tree_prefix(e.pos + 1);
      if (distance >= histogram_.size())
        histogram_.resize(std::max(distance + 1, 2 * histogram_.size()), 0);
      ++histogram_[distance];
      tree_add(e.pos, ~0u);  // -1: the marker leaves its old position
      e.pos = kFree;         // and is not live while a compaction runs
    }
    e.pos = next_position();
    tree_add(e.pos, 1);
  }
}

ReuseDistanceAnalyzer::Entry& ReuseDistanceAnalyzer::entry(std::uint64_t line) {
  for (;;) {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = (line * 0x9e3779b97f4a7c15ull) >> table_shift_;; i = (i + 1) & mask) {
      Entry& e = table_[i];
      if (e.pos == kFree) {
        if (2 * (table_used_ + 1) > table_.size()) break;  // keep load <= 1/2
        e.line = line;
        ++table_used_;
        return e;
      }
      if (e.line == line) return e;
    }
    grow_table();
  }
}

void ReuseDistanceAnalyzer::grow_table() {
  std::vector<Entry> old(table_.size() * 2);
  old.swap(table_);
  --table_shift_;
  const std::size_t mask = table_.size() - 1;
  for (const Entry& e : old) {
    if (e.pos == kFree) continue;
    std::size_t i = (e.line * 0x9e3779b97f4a7c15ull) >> table_shift_;
    while (table_[i].pos != kFree) i = (i + 1) & mask;
    table_[i] = e;
  }
}

std::uint64_t ReuseDistanceAnalyzer::next_position() {
  if (next_pos_ + 1 >= tree_.size()) compact();
  return next_pos_++;
}

void ReuseDistanceAnalyzer::compact() {
  ++compactions_;
  // Position -> table index of the marker there, then renumber in order.
  std::vector<std::uint64_t> owner(next_pos_, kFree);
  for (std::size_t i = 0; i < table_.size(); ++i)
    if (table_[i].pos != kFree) owner[table_[i].pos] = i;
  std::uint64_t live = 0;
  for (const std::uint64_t i : owner)
    if (i != kFree) table_[i].pos = live++;

  // Rebuild the tree over the new positions: ones at [0, live), in O(size).
  const std::uint64_t positions = std::bit_ceil(std::max(2 * live, kMinPositions));
  tree_.assign(positions + 1, 0);
  for (std::uint64_t i = 1; i <= positions; ++i) {
    if (i <= live) ++tree_[i];
    const std::uint64_t parent = i + lowbit(i);
    if (parent <= positions) tree_[parent] += tree_[i];
  }
  next_pos_ = live;
}

void ReuseDistanceAnalyzer::tree_add(std::uint64_t pos, std::uint32_t delta) {
  for (std::uint64_t i = pos + 1; i < tree_.size(); i += lowbit(i)) tree_[i] += delta;
}

std::uint64_t ReuseDistanceAnalyzer::tree_prefix(std::uint64_t count) const {
  std::uint64_t sum = 0;
  for (std::uint64_t i = count; i > 0; i -= lowbit(i)) sum += tree_[i];
  return sum;
}

std::map<std::uint64_t, std::uint64_t> ReuseDistanceAnalyzer::histogram() const {
  std::map<std::uint64_t, std::uint64_t> out;
  for (std::uint64_t d = 0; d < histogram_.size(); ++d)
    if (histogram_[d] != 0) out.emplace_hint(out.end(), d, histogram_[d]);
  return out;
}

std::uint64_t ReuseDistanceAnalyzer::miss_lines(std::uint64_t capacity_lines) const {
  // An access with stack distance d hits a fully associative LRU cache of
  // capacity_lines lines iff d < capacity_lines (d intervening distinct
  // lines plus the reused line itself still fit). Cold misses always miss.
  std::uint64_t misses = cold_;
  for (std::uint64_t d = capacity_lines; d < histogram_.size(); ++d) misses += histogram_[d];
  return misses;
}

std::uint64_t ReuseDistanceAnalyzer::miss_bytes(std::uint64_t capacity_bytes) const {
  return miss_lines(capacity_bytes / line_size_) * line_size_;
}

double ReuseDistanceAnalyzer::hit_rate(std::uint64_t capacity_bytes) const {
  if (accesses_ == 0) return 0.0;
  const std::uint64_t misses = miss_lines(capacity_bytes / line_size_);
  return 1.0 - static_cast<double>(misses) / static_cast<double>(accesses_);
}

}  // namespace opm::trace
