#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// In-memory span recording for the traced run (--trace 1).
///
/// The benchmark brackets its own calls into each layer's public functions
/// with spans; nothing inside the program is instrumented. Spans are kept
/// in memory and written out once the run ends. A span's layer is its name
/// up to the first '.', so "protocol.render_points" belongs to "protocol".
namespace opmbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;         ///< index of the enclosing span, -1 for a root
  std::uint64_t req = 0;   ///< request id the span belongs to (0 = none)
};

/// Single-threaded span recorder. When disabled every call is a no-op that
/// returns -1, so the untraced run pays one branch per bracket.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Seconds since this tracer was constructed (steady clock).
  double now() const;

  /// Opens a span nested in the innermost open span; returns its index.
  int begin(const std::string& name, std::uint64_t req = 0);
  /// Closes span `id` (and must be the innermost open span).
  void end(int id);
  /// Records an already-timed span under `parent` (e.g. a request whose
  /// start was its due time).
  int add(const std::string& name, double start, double end, int parent, std::uint64_t req = 0);
  /// The innermost open span, or -1.
  int current() const { return open_.empty() ? -1 : open_.back(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII bracket around one call.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, std::uint64_t req = 0)
      : tracer_(tracer), id_(tracer.begin(name, req)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the parent).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& name);

/// Sum of self time per layer. Root spans (parent -1) are reported under
/// "other": their self time is what no layer bracket accounts for.
std::map<std::string, double> layer_self_times(const std::vector<Span>& spans);

/// One JSON object per line: name, start, end, parent, req, self.
std::string spans_jsonl(const std::vector<Span>& spans);

/// Tab-separated table: layer, self seconds, share of the root spans'
/// total time, span count.
std::string layer_table(const std::vector<Span>& spans);

}  // namespace opmbench
