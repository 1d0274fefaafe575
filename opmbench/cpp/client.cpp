#include "client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <stdexcept>
#include <thread>

#include "util/socket.hpp"

namespace opmbench {
namespace {

constexpr std::string_view kPayloadKey = ",\"payload\":";
constexpr double kDrainLimitS = 30.0;

bool response_id(std::string_view line, std::uint64_t* id) {
  constexpr std::string_view key = "\"req_id\":\"";
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  std::uint64_t v = 0;
  std::size_t i = at + key.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return false;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) v = v * 10 + (line[i] - '0');
  *id = v;
  return true;
}

bool verify(std::string_view line, const Expected& exp) {
  const std::size_t payload_at = line.find(kPayloadKey);
  if (payload_at == std::string_view::npos) return false;
  const std::string_view envelope = line.substr(0, payload_at);
  return envelope.find("\"ok\":true") != std::string_view::npos &&
         envelope.find("\"type\":\"" + exp.type + "\"") != std::string_view::npos &&
         payload_tail_digest(line) == exp.tail;
}

}  // namespace

opm::util::Digest128 payload_tail_digest(std::string_view line) {
  const std::size_t at = line.find(kPayloadKey);
  if (at == std::string_view::npos) return {};
  opm::util::Hasher128 h;
  h.add(line.substr(at));
  return h.digest();
}

std::size_t Phase::failed() const {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < sent; ++i) bad += !(outcomes[i].answered && outcomes[i].correct);
  return bad;
}

std::vector<double> Phase::latencies_ms() const {
  std::vector<double> out;
  for (const Outcome& o : outcomes)
    if (o.answered) out.push_back(1000.0 * (o.recv - o.due));
  return out;
}

std::vector<double> Phase::lag_ms() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < sent; ++i) out.push_back(1000.0 * (outcomes[i].sent - outcomes[i].due));
  return out;
}

LoadClient::LoadClient(const std::string& address, std::size_t connections)
    : epoch_(std::chrono::steady_clock::now()) {
  opm::util::SocketAddress addr;
  std::string error;
  if (!opm::util::parse_address(address, &addr, &error))
    throw std::runtime_error("bad address " + address + ": " + error);
  for (std::size_t i = 0; i < connections; ++i) {
    const int fd = opm::util::connect_to(addr, &error);
    if (fd < 0) {
      for (Conn& c : conns_) ::close(c.fd);
      throw std::runtime_error("connect " + address + ": " + error);
    }
    conns_.push_back({fd, {}});
  }
}

LoadClient::~LoadClient() {
  for (Conn& c : conns_) ::close(c.fd);
}

double LoadClient::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void LoadClient::send(std::size_t conn, const std::string& line) {
  if (!opm::util::send_all(conns_[conn].fd, line))
    throw std::runtime_error("send failed: the peer closed the connection");
}

template <class OnLine>
void LoadClient::pump(double timeout_s, OnLine&& on_line) {
  std::vector<pollfd> fds;
  for (const Conn& c : conns_) fds.push_back({c.fd, POLLIN, 0});
  // Busy-poll rather than sleep: a load generator that sleeps adds its own
  // wake-up latency (large and erratic on a virtual machine) to every
  // response it times.
  const double until = now() + std::max(0.0, timeout_s);
  const timespec zero{};
  int ready = 0;
  do {
    ready = ::ppoll(fds.data(), fds.size(), &zero, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
  } while (ready <= 0 && now() < until);
  if (ready <= 0) return;
  char chunk[1 << 16];
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    Conn& c = conns_[i];
    for (;;) {
      const ssize_t got = ::recv(c.fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (got == 0) throw std::runtime_error("the peer closed the connection");
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error("recv failed");
      }
      const double t = now();
      const std::size_t scan_from = c.buf.size();
      c.buf.append(chunk, static_cast<std::size_t>(got));
      std::size_t line_start = 0;
      for (std::size_t nl = c.buf.find('\n', scan_from); nl != std::string::npos;
           nl = c.buf.find('\n', nl + 1)) {
        on_line(i, std::string_view(c.buf).substr(line_start, nl - line_start), t);
        line_start = nl + 1;
      }
      c.buf.erase(0, line_start);
    }
  }
}

Phase LoadClient::open_loop(const std::vector<std::string>& lines, std::uint64_t first_id,
                            const std::vector<const Expected*>& expected, double rate) {
  Phase ph;
  const std::size_t n = lines.size();
  ph.outcomes.resize(n);
  std::size_t next = 0, answered = 0;
  auto on_line = [&](std::size_t, std::string_view line, double t) {
    std::uint64_t id = 0;
    if (!response_id(line, &id) || id < first_id || id - first_id >= n) return;
    Outcome& o = ph.outcomes[id - first_id];
    if (o.answered) return;
    o.answered = true;
    o.recv = t;
    o.bytes = line.size();
    o.correct = verify(line, *expected[id - first_id]);
    ++answered;
  };
  ph.start = now() + 0.005;
  bool stopped = false;
  for (;;) {
    while (next < n && ph.start + static_cast<double>(next) / rate <= now()) {
      Outcome& o = ph.outcomes[next];
      o.due = ph.start + static_cast<double>(next) / rate;
      o.sent = now();
      send(next % conns_.size(), lines[next]);
      ++next;
    }
    if (next == n && !stopped) {
      stopped = true;
      ph.end = now();
      ph.backlog = n - answered;
    }
    if (answered == n || (stopped && now() > ph.end + kDrainLimitS)) break;
    const double wake = next < n ? ph.start + static_cast<double>(next) / rate
                                 : ph.end + kDrainLimitS;
    pump(wake - now(), on_line);
  }
  ph.sent = next;
  return ph;
}

Phase LoadClient::closed_loop(const std::vector<std::string>& lines, std::uint64_t first_id,
                              const std::vector<const Expected*>& expected, double seconds) {
  Phase ph;
  const std::size_t n = lines.size();
  ph.outcomes.resize(n);
  std::size_t next = 0, answered = 0;
  ph.start = now();
  const double deadline = ph.start + seconds;
  bool stopped = false;
  auto send_next = [&](std::size_t conn) {
    if (stopped) return;
    if (next == n || now() >= deadline) {
      stopped = true;
      ph.end = now();
      return;
    }
    Outcome& o = ph.outcomes[next];
    o.due = o.sent = now();
    send(conn, lines[next]);
    ++next;
  };
  auto on_line = [&](std::size_t conn, std::string_view line, double t) {
    std::uint64_t id = 0;
    if (!response_id(line, &id) || id < first_id || id - first_id >= n) return;
    Outcome& o = ph.outcomes[id - first_id];
    if (o.answered) return;
    o.answered = true;
    o.recv = t;
    o.bytes = line.size();
    o.correct = verify(line, *expected[id - first_id]);
    ++answered;
    send_next(conn);
  };
  for (std::size_t c = 0; c < conns_.size(); ++c) send_next(c);
  while (answered < next) {
    if (stopped && now() > ph.end + kDrainLimitS) break;
    pump(stopped ? ph.end + kDrainLimitS - now() : deadline - now(), on_line);
    if (!stopped && now() >= deadline) {
      stopped = true;
      ph.end = now();
    }
  }
  if (!stopped) ph.end = now();
  ph.sent = next;
  ph.backlog = next - answered;
  return ph;
}

Phase LoadClient::serial(const std::vector<std::string>& lines, std::uint64_t first_id,
                         const std::vector<const Expected*>& expected,
                         std::vector<std::string>* keep,
                         const std::function<double()>& cost_clock) {
  Phase ph;
  const std::size_t n = lines.size();
  ph.outcomes.resize(n);
  double cost = cost_clock ? cost_clock() : 0.0;
  ph.start = now();
  for (std::size_t i = 0; i < n; ++i) {
    Outcome& o = ph.outcomes[i];
    o.due = o.sent = now();
    send(0, lines[i]);
    ph.sent = i + 1;
    while (!o.answered) {
      if (now() > o.sent + kDrainLimitS) {
        ph.end = now();
        return ph;
      }
      pump(o.sent + kDrainLimitS - now(), [&](std::size_t, std::string_view line, double t) {
        std::uint64_t id = 0;
        if (!response_id(line, &id) || id != first_id + i) return;
        o.answered = true;
        o.recv = t;
        o.bytes = line.size();
        o.correct = verify(line, *expected[i]);
        if (keep) keep->emplace_back(line);
      });
    }
    if (cost_clock) {
      const double was = cost;
      cost = cost_clock();
      o.cost = cost - was;
    }
  }
  ph.end = now();
  return ph;
}

std::string LoadClient::roundtrip(const std::string& line, std::uint64_t id) {
  send(0, line);
  const double limit = now() + kDrainLimitS;
  std::string out;
  bool done = false;
  while (!done) {
    if (now() > limit) throw std::runtime_error("no response to " + line);
    pump(limit - now(), [&](std::size_t, std::string_view got, double) {
      std::uint64_t got_id = 0;
      if (!done && response_id(got, &got_id) && got_id == id) {
        out.assign(got);
        done = true;
      }
    });
  }
  return out;
}

bool wait_ready(const std::string& address, double timeout_s) {
  const auto limit = std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < limit) {
    try {
      LoadClient probe(address, 1);
      const std::string pong = probe.roundtrip("{\"v\":2,\"req_id\":\"1\",\"type\":\"ping\"}\n", 1);
      if (pong.find("\"ok\":true") != std::string::npos) return true;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace opmbench
