#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/fingerprint.hpp"

/// The benchmark's load generator: one thread driving up to four
/// connections to opm_serve or opm_router with poll(), speaking protocol
/// v2 (responses are matched to requests by req_id, so requests pipeline
/// on a connection and may complete out of order).
namespace opmbench {

/// Digest of a response line from its `,"payload":` member to the end —
/// the escaped payload bytes, independent of req_id and serving shard.
/// Equal digests mean byte-identical payloads. Zero digest when the line
/// carries no payload.
opm::util::Digest128 payload_tail_digest(std::string_view line);

/// What a correct response to one request looks like.
struct Expected {
  std::string type;                ///< the response "type" member
  opm::util::Digest128 tail;       ///< payload_tail_digest of the reference rendering
};

/// One request of a phase.
struct Outcome {
  double due = 0.0;   ///< seconds on the client clock; open loop: its slot in the schedule
  double sent = 0.0;
  double recv = 0.0;
  bool answered = false;
  bool correct = false;  ///< ok:true, the expected type, byte-identical payload
  std::size_t bytes = 0;
  /// Serial phases given a cost clock: its advance from the send to the
  /// answer (the server's CPU time spent on this request).
  double cost = 0.0;
};

struct Phase {
  std::vector<Outcome> outcomes;
  double start = 0.0;       ///< client clock at the first due time
  double end = 0.0;         ///< client clock when the phase stopped sending
  std::size_t backlog = 0;  ///< sent minus answered when sending stopped
  std::size_t sent = 0;

  std::size_t failed() const;  ///< sent but unanswered or incorrect
  /// Latencies (ms) of answered requests, measured from each due time.
  std::vector<double> latencies_ms() const;
  /// Lateness (ms) of each send against its due time.
  std::vector<double> lag_ms() const;
};

class LoadClient {
 public:
  /// Connects `connections` sockets to `address` (util::parse_address
  /// grammar). Throws std::runtime_error when a connect fails.
  LoadClient(const std::string& address, std::size_t connections);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Seconds on the client clock (steady).
  double now() const;

  /// Open loop at `rate` requests/s: request i is due at start + i / rate
  /// on connection i % connections, whatever happened to earlier ones.
  /// `lines[i]` must carry req_id first_id + i.
  Phase open_loop(const std::vector<std::string>& lines, std::uint64_t first_id,
                  const std::vector<const Expected*>& expected, double rate);

  /// Closed loop: every connection keeps one request outstanding, taking
  /// the next line when its response arrives, until `seconds` pass or the
  /// lines run out.
  Phase closed_loop(const std::vector<std::string>& lines, std::uint64_t first_id,
                    const std::vector<const Expected*>& expected, double seconds);

  /// One request at a time on connection 0. When `keep` is non-null the
  /// raw response lines are appended to it. When `cost_clock` is set, it
  /// is read before the first send and after each answer, and each
  /// Outcome::cost is the advance between two readings.
  Phase serial(const std::vector<std::string>& lines, std::uint64_t first_id,
               const std::vector<const Expected*>& expected,
               std::vector<std::string>* keep = nullptr,
               const std::function<double()>& cost_clock = {});

  /// One request line (newline-terminated) on connection 0; returns the
  /// response line whose req_id is `id`. Throws on timeout or EOF.
  std::string roundtrip(const std::string& line, std::uint64_t id);

 private:
  struct Conn {
    int fd = -1;
    std::string buf;  ///< bytes received past the last complete line
  };
  /// Reads whatever is available (waiting at most `timeout_s`) and hands
  /// each complete response line to `on_line(conn_index, line, recv_time)`.
  template <class OnLine>
  void pump(double timeout_s, OnLine&& on_line);
  void send(std::size_t conn, const std::string& line);

  std::vector<Conn> conns_;
  std::chrono::steady_clock::time_point epoch_;
};

/// Sends `{"type":"ping"}` repeatedly until the peer answers or
/// `timeout_s` passes; true when it answered.
bool wait_ready(const std::string& address, double timeout_s);

}  // namespace opmbench
