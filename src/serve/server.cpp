#include "serve/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <csignal>
#include <memory>
#include <string_view>

#include "serve/listener.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace opm::serve {

namespace {

/// Hard ceiling on batch (array) request size: a batch is a convenience
/// for scripting clients, not a bulk-load side channel around the
/// per-client quota. 64 matches the default queue depth.
constexpr std::size_t kMaxBatchRequests = 64;

}  // namespace

struct Server::Impl {
  explicit Impl(const ServerConfig& cfg)
      : config(cfg),
        dispatcher(cfg.dispatch),
        listener(
            cfg.listen_address, cfg.auth_token, cfg.max_line_bytes,
            util::MetricsRegistry::instance().counter("serve.errors_protocol"),
            util::MetricsRegistry::instance().counter("serve.rejected_auth"),
            [this](const std::shared_ptr<Conn>& conn, std::uint64_t client,
                   std::string_view line) { return handle_line(line, client, conn); },
            [this](int fd) { return client_id_for(fd); }) {}

  ServerConfig config;
  Dispatcher dispatcher;
  std::atomic<std::uint64_t> next_client{1};
  /// Last member: destroyed first, so no reader outlives the dispatcher.
  Listener listener;

  protocol::Envelope error_envelope(const protocol::Request& req) const {
    return protocol::envelope_of(req, config.dispatch.shard_id);
  }

  /// Handles one complete request line for `client`, answering through
  /// `conn`. Shared by the socket readers and serve_stream. Returns false
  /// when the connection must close (auth failure).
  bool handle_line(std::string_view line, std::uint64_t client,
                   const std::shared_ptr<Conn>& conn) {
    // The Listener drops blank lines, so a non-space character exists.
    if (line[line.find_first_not_of(" \t\r")] == '[') return handle_batch(line, client, conn);
    protocol::Request req;
    protocol::Error err;
    if (!protocol::parse_request(line, &req, &err)) {
      util::MetricsRegistry::instance().counter("serve.errors_protocol").add(1);
      conn->write_line(protocol::render_error(error_envelope(req), err));
      return true;  // framing is intact; the connection stays open
    }
    std::string reply;
    const Listener::Verdict verdict = listener.gate(*conn, req, error_envelope(req), &reply);
    if (verdict != Listener::Verdict::kPass) {
      conn->write_line(std::move(reply));
      return verdict == Listener::Verdict::kAnswered;
    }
    dispatcher.submit(client, std::move(req),
                      [conn](std::string response) { conn->write_line(std::move(response)); });
    return true;
  }

  /// A top-level JSON array is a v2 batch: every element is validated and
  /// dispatched independently, and each gets its own response line in
  /// completion order (clients match by req_id). Batch-level faults (not
  /// an array, empty, oversized) answer with one error line carrying an
  /// empty req_id; per-element faults answer under that element's own
  /// recovered envelope. hello cannot ride in a batch — auth is a
  /// connection property, not a request property — so a gated connection
  /// must have sent its hello line before its first batch.
  bool handle_batch(std::string_view line, std::uint64_t client,
                    const std::shared_ptr<Conn>& conn) {
    auto& errors_protocol = util::MetricsRegistry::instance().counter("serve.errors_protocol");
    const protocol::Envelope batch_env{2, std::string(), config.dispatch.shard_id};
    auto batch_error = [&](const protocol::Error& err) {
      errors_protocol.add(1);
      conn->write_line(protocol::render_error(batch_env, err));
      return true;
    };
    std::string parse_error;
    const auto doc = util::parse_json(line, &parse_error);
    if (!doc || !doc->is_array())
      return batch_error(protocol::make_error(
          "parse", doc ? "batch must be a JSON array of request objects" : parse_error));
    if (doc->items.empty())
      return batch_error(protocol::make_error("bad-request", "batch array must not be empty"));
    if (doc->items.size() > kMaxBatchRequests)
      return batch_error(protocol::make_error(
          "bad-request", "batch exceeds " +
                             std::to_string(kMaxBatchRequests) +  // opm-lint: allow(float-print) — integer limit
                             " requests"));
    std::string reply;  // not a hello: the gate passes or refuses
    if (listener.gate(*conn, protocol::Request{}, batch_env, &reply) != Listener::Verdict::kPass) {
      conn->write_line(std::move(reply));
      return false;
    }
    for (const util::JsonValue& item : doc->items) {
      protocol::Request req;
      protocol::Error err;
      if (!protocol::parse_request_value(item, &req, &err)) {
        errors_protocol.add(1);
        conn->write_line(protocol::render_error(error_envelope(req), err));
        continue;
      }
      if (req.type == protocol::RequestType::kHello) {
        errors_protocol.add(1);
        conn->write_line(protocol::render_error(
            error_envelope(req),
            protocol::make_error("bad-request", "hello must be its own line, not a batch element")));
        continue;
      }
      dispatcher.submit(client, std::move(req),
                        [conn](std::string response) { conn->write_line(std::move(response)); });
    }
    return true;
  }

  /// Dispatcher client identity for a freshly accepted connection: TCP
  /// peers are keyed by source IPv4 address (quotas bound the peer, not
  /// each socket); unix connections get a fresh id each.
  std::uint64_t client_id_for(int cfd) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    if (::getpeername(cfd, reinterpret_cast<sockaddr*>(&peer), &len) == 0 &&
        peer.sin_family == AF_INET) {
      return (1ull << 32) | static_cast<std::uint64_t>(ntohl(peer.sin_addr.s_addr));
    }
    return next_client.fetch_add(1, std::memory_order_relaxed);
  }
};

Server::Server(const ServerConfig& config) : impl_(new Impl(config)) {}

Server::~Server() {
  request_drain();  // no-op before start(); wait() is a no-op once drained
  wait();
  delete impl_;
}

bool Server::start(std::string* error) { return impl_->listener.start(error); }

int Server::bound_port() const { return impl_->listener.bound_port(); }

int Server::drain_fd() const { return impl_->listener.drain_fd(); }

void Server::request_drain() { impl_->listener.request_drain(); }

void Server::wait() {
  // 1. Stop accepting and unlink the socket, once the drain pipe fires.
  if (!impl_->listener.stop_accepting()) return;
  // 2. Finish admitted work. Connections are still live: clients that keep
  //    sending get structured "draining" rejections, and every response
  //    for queued/in-flight work is written before drain() returns.
  impl_->dispatcher.drain();
  // 3. Close every live connection and join its reader.
  impl_->listener.close_all();
}

void Server::serve_stream(int in_fd, int out_fd) {
  ::signal(SIGPIPE, SIG_IGN);
  auto conn = std::make_shared<Conn>();
  conn->init(out_fd, /*socket=*/false);
  impl_->listener.serve(conn, in_fd, impl_->next_client.fetch_add(1, std::memory_order_relaxed));
  // EOF: answer everything already admitted, then hand the stream back.
  impl_->dispatcher.drain();
}

const ServerConfig& Server::config() const { return impl_->config; }

Dispatcher& Server::dispatcher() { return impl_->dispatcher; }

}  // namespace opm::serve
