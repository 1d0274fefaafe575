#include "serve/listener.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <system_error>
#include <utility>

#include "util/logging.hpp"

namespace opm::serve {

/// Self-pipe bytes: a finished reader asks for its join with kReap; any
/// other byte (request_drain, a signal handler) asks for the drain.
constexpr char kReap = 'r';

LineReader::Status LineReader::next(std::string_view* line) {
  for (;;) {
    const std::size_t nl = buf_.find('\n', scanned_);
    if (nl != std::string::npos) {
      *line = std::string_view(buf_).substr(start_, nl - start_);
      start_ = scanned_ = nl + 1;
      return line->size() > max_line_bytes_ ? Status::kOversized : Status::kLine;
    }
    if (buf_.size() - start_ > max_line_bytes_) return Status::kOversized;
    buf_.erase(0, start_);
    start_ = 0;
    scanned_ = buf_.size();
    char chunk[4096];
    ssize_t n;
    do {
      n = ::read(fd_, chunk, sizeof chunk);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return Status::kEof;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

Listener::Listener(const std::string& address, std::string auth_token,
                   std::size_t max_line_bytes, util::Counter& errors_protocol,
                   util::Counter& rejected_auth, LineFn on_line, ClientFn client_of)
    : auth_token_(std::move(auth_token)),
      max_line_bytes_(max_line_bytes),
      errors_protocol_(errors_protocol),
      rejected_auth_(rejected_auth),
      on_line_(std::move(on_line)),
      client_of_(std::move(client_of)) {
  util::parse_address(address, &addr_, &parse_error_);
}

Listener::~Listener() {
  request_drain();  // harmless when not running: stop_accepting() is then a no-op
  stop_accepting();
  close_all();
  if (pipe_r_ >= 0) ::close(pipe_r_);
  if (pipe_w_ >= 0) ::close(pipe_w_);
}

bool Listener::start(std::string* error) {
  ::signal(SIGPIPE, SIG_IGN);
  if (!parse_error_.empty()) {
    if (error) *error = parse_error_;
    return false;
  }
  int p[2];
  if (::pipe(p) != 0) {
    if (error) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  pipe_r_ = p[0];
  pipe_w_ = p[1];

  listen_fd_ = util::listen_on(addr_, error);
  if (listen_fd_ < 0) return false;
  if (addr_.kind == util::SocketAddress::Kind::kTcp) {
    port_ = util::bound_port(listen_fd_);
    auth_required_ = !auth_token_.empty();
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Listener::nudge(char byte) {
  if (pipe_w_ < 0) return;
  ssize_t rc;
  do {
    rc = ::write(pipe_w_, &byte, 1);
  } while (rc < 0 && errno == EINTR);
}

void Listener::request_drain() { nudge('d'); }

bool Listener::stop_accepting() {
  if (!accept_thread_.joinable()) return false;
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (addr_.kind == util::SocketAddress::Kind::kUnix) ::unlink(addr_.path.c_str());
  return true;
}

void Listener::close_all() {
  // The accept loop is gone, so no entry is added from here on. A reader
  // that exits after the swap finds no entry and is joined below.
  std::unordered_map<std::uint64_t, Reader> live;
  {
    util::MutexLock lock(mutex_);
    live.swap(live_);
  }
  for (auto& [id, reader] : live) reader.conn->request_close();
  for (auto& [id, reader] : live) reader.thread.join();
  join_finished();
}

void Listener::join_finished() {
  std::vector<std::thread> finished;
  {
    util::MutexLock lock(mutex_);
    finished.swap(finished_);
    reap_pending_ = false;
  }
  for (std::thread& t : finished) t.join();
}

void Listener::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {pipe_r_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      util::log_error(std::string("listener: poll failed: ") + std::strerror(errno));
      return;
    }
    if (fds[1].revents != 0) {
      char bytes[64];
      const ssize_t n = ::read(pipe_r_, bytes, sizeof bytes);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0 || std::count(bytes, bytes + n, kReap) != n) return;  // drain requested
      join_finished();
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd >= 0) admit(cfd);
  }
}

void Listener::admit(int fd) {
  auto conn = std::make_shared<Conn>();
  conn->init(fd, /*socket=*/true);
  if (auth_required_) conn->auth = Conn::Auth::kHelloRequired;
  const std::uint64_t client = client_of_ ? client_of_(fd) : 0;
  {
    // The reader is started under the lock, so it cannot look for its
    // registry entry before the entry exists.
    util::MutexLock lock(mutex_);
    const std::uint64_t id = next_id_++;
    try {
      std::thread thread([this, conn, fd, client, id] { reader_main(conn, fd, client, id); });
      live_.emplace(id, Reader{conn, std::move(thread)});
      return;
    } catch (const std::system_error& e) {
      util::log_error(std::string("listener: cannot start a reader; closing connection: ") +
                      e.what());
    }
  }
  conn->close_fd();
}

void Listener::reader_main(const std::shared_ptr<Conn>& conn, int fd, std::uint64_t client,
                           std::uint64_t id) {
  serve(conn, fd, client);
  conn->close_fd();  // EOF, error, auth failure, or oversized: this reader owns the fd
  {
    util::MutexLock lock(mutex_);
    const auto it = live_.find(id);
    if (it == live_.end()) return;  // close_all() holds the handle and joins it
    finished_.push_back(std::move(it->second.thread));
    live_.erase(it);
    if (std::exchange(reap_pending_, true)) return;  // a wake-up is already queued
  }
  nudge(kReap);
}

void Listener::serve(const std::shared_ptr<Conn>& conn, int in_fd, std::uint64_t client) {
  LineReader reader(in_fd, max_line_bytes_);
  std::string_view line;
  for (;;) {
    switch (reader.next(&line)) {
      case LineReader::Status::kEof:
        return;
      case LineReader::Status::kOversized:
        errors_protocol_.add(1);
        conn->write_line(protocol::render_error(
            "", protocol::make_error("oversized", "request line exceeds " +
                                                      std::to_string(max_line_bytes_) +  // opm-lint: allow(float-print) — integer limit
                                                      " bytes; closing connection")));
        return;
      case LineReader::Status::kLine:
        if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;  // blank
        if (!on_line_(conn, client, line)) return;
    }
  }
}

Listener::Verdict Listener::gate(Conn& conn, const protocol::Request& req,
                                 const protocol::Envelope& env, std::string* reply) const {
  const char* refusal = nullptr;
  if (req.type == protocol::RequestType::kHello) {
    if (conn.auth == Conn::Auth::kLocal || req.token == auth_token_) {
      if (conn.auth != Conn::Auth::kLocal) conn.auth = Conn::Auth::kAuthed;
      *reply = protocol::render_hello_ok(env);
      return Verdict::kAnswered;
    }
    refusal = "hello token does not match; closing connection";
  } else if (conn.auth == Conn::Auth::kHelloRequired) {
    refusal =
        "this listener requires a {\"type\":\"hello\",\"token\":...} first; closing connection";
  } else {
    return Verdict::kPass;
  }
  rejected_auth_.add(1);
  *reply = protocol::render_error(env, protocol::make_error("auth", refusal));
  return Verdict::kClose;
}

}  // namespace opm::serve
