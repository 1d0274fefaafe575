#include "spans.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/format.hpp"
#include "util/json.hpp"

namespace opmbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

int Tracer::begin(const std::string& name, std::uint64_t req) {
  if (!enabled_) return -1;
  const double t = now();
  spans_.push_back({name, t, t, current(), req});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::add(const std::string& name, double start, double end, int parent,
                std::uint64_t req) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, end, parent, req});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start, hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = std::max(0.0, (hi - lo) - covered);
  }
  return out;
}

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

std::map<std::string, double> layer_self_times(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].parent < 0 ? "other" : layer_of(spans[i].name)] += self[i];
  return out;
}

std::string spans_jsonl(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::ostringstream os;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "{\"id\":" << i << ",\"name\":\"" << opm::util::json_escape(s.name)
       << "\",\"start\":" << opm::util::format_json_number(s.start)
       << ",\"end\":" << opm::util::format_json_number(s.end) << ",\"parent\":" << s.parent
       << ",\"req\":" << s.req << ",\"self\":" << opm::util::format_json_number(self[i])
       << "}\n";
  }
  return os.str();
}

std::string layer_table(const std::vector<Span>& spans) {
  double root_total = 0.0;
  std::map<std::string, std::size_t> counts;
  for (const Span& s : spans) {
    if (s.parent < 0) root_total += s.end - s.start;
    ++counts[s.parent < 0 ? "other" : layer_of(s.name)];
  }
  std::ostringstream os;
  os << "layer\tself_s\tshare\tspans\n";
  for (const auto& [layer, self] : layer_self_times(spans))
    os << layer << '\t' << opm::util::format_fixed(self, 6) << '\t'
       << opm::util::format_fixed(root_total > 0 ? self / root_total : 0.0, 4) << '\t'
       << counts[layer] << '\n';
  return os.str();
}

}  // namespace opmbench
