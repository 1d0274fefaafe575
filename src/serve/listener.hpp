#pragma once

#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/protocol.hpp"
#include "util/metrics.hpp"
#include "util/mutex.hpp"
#include "util/socket.hpp"

/// The connection layer of the server and the router. A Listener owns
/// what does not depend on what a request means: the address and bind,
/// the drain self-pipe, the accept thread, the registry of live
/// connections and their reader threads, framing, the hello gate and
/// unlink-on-close. Its owner supplies the line handler and runs wait()
/// as: stop_accepting() → its own drain step → close_all().
///
/// Policy per connection:
///   * one request per '\n'-terminated line; blank lines are ignored;
///   * a line longer than max_line_bytes gets an "oversized" error and the
///     connection closes (framing is lost, resync is not possible);
///   * a client that disconnects mid-request is fine: its pending
///     responses are dropped, never written to a dead fd;
///   * on a TCP listener with an auth token, the first request must be
///     {"type":"hello","token":"<secret>"}; anything else, or a wrong
///     token, gets an "auth" error and a hangup. Unix sockets and stdio
///     are local trust (hello still answers, so clients can probe either
///     transport uniformly).
///
/// A reader that stops closes its fd, leaves the registry and nudges the
/// accept thread through the self-pipe to join it, so the state held is
/// bounded by the live connections, not by the connections served.
namespace opm::serve {

/// One response sink. Sockets write via send(MSG_NOSIGNAL) and are owned
/// (close_fd closes them); a stream fd (stdio, pipes) is written via
/// write() and stays its caller's (the serve binaries also ignore SIGPIPE
/// process-wide as a second line of defense, since tests drive
/// serve_stream over pipes). The mutex serializes concurrent responses
/// from different worker threads and makes close-vs-write safe.
struct Conn {
  enum class Auth { kLocal, kHelloRequired, kAuthed };

  util::Mutex mutex;
  int fd OPM_GUARDED_BY(mutex) = -1;
  bool is_socket OPM_GUARDED_BY(mutex) = true;
  bool open OPM_GUARDED_BY(mutex) = true;
  /// Where the hello gate stands: local trust (unix, stdio, TCP without a
  /// token), owing its hello, or authenticated. Only the connection's
  /// reader thread, which runs the gate, touches it.
  Auth auth = Auth::kLocal;

  /// Publishes the fd and its flavor; called once, before the Conn is
  /// shared with any writer.
  void init(int new_fd, bool socket) OPM_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    fd = new_fd;
    is_socket = socket;
  }

  bool is_open() OPM_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    return open && fd >= 0;
  }

  void write_line(std::string line) OPM_EXCLUDES(mutex) {
    line.push_back('\n');
    util::MutexLock lock(mutex);
    if (!open || fd < 0) return;  // client went away: drop the response
    if (!util::send_all(fd, line, is_socket)) {
      open = false;  // broken pipe or similar; subsequent responses drop
    }
  }

  /// Wakes a reader blocked in read() and stops future writes. The fd is
  /// closed by whoever owns the reader loop, after it exits.
  void request_close() OPM_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    open = false;
    if (fd >= 0 && is_socket) ::shutdown(fd, SHUT_RDWR);
  }

  void close_fd() OPM_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    open = false;
    if (fd >= 0 && is_socket) ::close(fd);
    fd = -1;
  }
};

/// Newline framing over one blocking fd. The buffer persists across
/// lines: each read scans only the bytes it added, and consumed lines
/// leave the front of the buffer once per read, not once per line.
class LineReader {
 public:
  enum class Status { kLine, kEof, kOversized };

  LineReader(int fd, std::size_t max_line_bytes) : fd_(fd), max_line_bytes_(max_line_bytes) {}

  /// The next line without its '\n' (valid until the next call). kEof on
  /// end of stream or a read error; a partial last line is dropped.
  /// kOversized once a line exceeds max_line_bytes: framing is lost.
  Status next(std::string_view* line);

 private:
  int fd_;
  std::size_t max_line_bytes_;
  std::string buf_;
  std::size_t start_ = 0;    ///< first byte of the line being assembled
  std::size_t scanned_ = 0;  ///< [start_, scanned_) holds no '\n'
};

class Listener {
 public:
  /// One complete non-blank line; returning false closes the connection.
  using LineFn = std::function<bool(const std::shared_ptr<Conn>& conn, std::uint64_t client,
                                    std::string_view line)>;
  /// Dispatcher client identity of an accepted fd; unset = client 0.
  using ClientFn = std::function<std::uint64_t(int fd)>;

  /// `address` in util::parse_address grammar; a non-empty `auth_token`
  /// gates TCP connections behind hello. The counters are the owner's:
  /// oversized lines bump `errors_protocol`, gate rejections
  /// `rejected_auth`.
  Listener(const std::string& address, std::string auth_token, std::size_t max_line_bytes,
           util::Counter& errors_protocol, util::Counter& rejected_auth, LineFn on_line,
           ClientFn client_of = nullptr);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds (unlinking a stale unix file) and starts the accept thread.
  bool start(std::string* error);
  /// The port a TCP listener bound ("HOST:0"), or -1.
  int bound_port() const { return port_; }
  /// Write end of the self-pipe: any byte requests a drain
  /// (async-signal-safe).
  int drain_fd() const { return pipe_w_; }
  void request_drain();

  /// Blocks until a drain is requested, then closes the listening socket
  /// and unlinks a unix socket file. False when not running.
  bool stop_accepting();
  /// Shuts down every live connection and joins every reader.
  void close_all();

  /// The framing loop of one connection, until EOF, an oversized line or
  /// the handler closes it. Closes no fd; Server::serve_stream runs it on
  /// stdio.
  void serve(const std::shared_ptr<Conn>& conn, int in_fd, std::uint64_t client);

  enum class Verdict { kPass, kAnswered, kClose };
  /// The hello/auth gate, run by the owner on each parsed request. A
  /// hello on a local connection or with the right token is answered
  /// (*reply = hello ok, kAnswered). A wrong token, or anything else
  /// from a connection that owes its hello, gets an "auth" error in
  /// *reply and kClose. All else is kPass.
  Verdict gate(Conn& conn, const protocol::Request& req, const protocol::Envelope& env,
               std::string* reply) const;

 private:
  struct Reader {
    std::shared_ptr<Conn> conn;
    std::thread thread;
  };

  void accept_loop();
  void admit(int fd);
  void reader_main(const std::shared_ptr<Conn>& conn, int fd, std::uint64_t client,
                   std::uint64_t id);
  void join_finished();
  void nudge(char byte);

  util::SocketAddress addr_;
  std::string parse_error_;
  std::string auth_token_;
  std::size_t max_line_bytes_;
  util::Counter& errors_protocol_;
  util::Counter& rejected_auth_;
  LineFn on_line_;
  ClientFn client_of_;

  bool auth_required_ = false;
  int listen_fd_ = -1;
  int port_ = -1;
  int pipe_r_ = -1;
  int pipe_w_ = -1;

  util::Mutex mutex_;
  std::uint64_t next_id_ OPM_GUARDED_BY(mutex_) = 0;
  std::unordered_map<std::uint64_t, Reader> live_ OPM_GUARDED_BY(mutex_);
  std::vector<std::thread> finished_ OPM_GUARDED_BY(mutex_);  ///< exited, awaiting join
  /// A kReap byte is in the pipe: at most one is, so the pipe never fills
  /// and a drain byte is never refused.
  bool reap_pending_ OPM_GUARDED_BY(mutex_) = false;
  std::thread accept_thread_;  ///< declared after everything it uses
};

}  // namespace opm::serve
