#include "serve/router.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/listener.hpp"
#include "serve/protocol.hpp"
#include "util/metrics.hpp"
#include "util/mutex.hpp"

namespace opm::serve {

using protocol::make_error;

HashRing::HashRing(int shards, int vnodes) : shards_(shards) {
  if (shards <= 0 || vnodes <= 0) return;
  points_.reserve(static_cast<std::size_t>(shards) * static_cast<std::size_t>(vnodes));
  for (int s = 0; s < shards; ++s) {
    for (int v = 0; v < vnodes; ++v) {
      util::Hasher128 h;
      h.add(std::string_view("opm-ring")).add(std::int64_t(s)).add(std::int64_t(v));
      points_.emplace_back(h.digest().lo, s);
    }
  }
  std::sort(points_.begin(), points_.end());
}

int HashRing::lookup(const util::Digest128& key) const {
  if (points_.empty()) return -1;
  // Both digest lanes feed the position so the ring never depends on how
  // request_key distributes entropy between hi and lo.
  const std::uint64_t pos = key.hi ^ (key.lo * 0x9e3779b97f4a7c15ull);
  auto it = std::lower_bound(points_.begin(), points_.end(),
                             std::make_pair(pos, std::numeric_limits<int>::min()));
  if (it == points_.end()) it = points_.begin();  // clockwise wraparound
  return it->second;
}

struct Router::Impl {
  explicit Impl(const RouterConfig& cfg)
      : config(cfg),
        ring(cfg.ring_shards > 0 ? cfg.ring_shards : static_cast<int>(cfg.backends.size())),
        requests(util::MetricsRegistry::instance().counter("router.requests")),
        forwarded(util::MetricsRegistry::instance().counter("router.forwarded")),
        responses(util::MetricsRegistry::instance().counter("router.responses")),
        redirects_followed(
            util::MetricsRegistry::instance().counter("router.redirects_followed")),
        errors_protocol(util::MetricsRegistry::instance().counter("router.errors_protocol")),
        backend_errors(util::MetricsRegistry::instance().counter("router.backend_errors")),
        listener(cfg.listen_address, cfg.auth_token, cfg.max_line_bytes, errors_protocol,
                 util::MetricsRegistry::instance().counter("router.rejected_auth"),
                 [this](const std::shared_ptr<Conn>& conn, std::uint64_t,
                        std::string_view line) { return handle_line(line, conn); }) {}

  RouterConfig config;
  HashRing ring;

  util::Counter& requests;
  util::Counter& forwarded;
  util::Counter& responses;
  util::Counter& redirects_followed;
  util::Counter& errors_protocol;
  util::Counter& backend_errors;

  /// A forwarded request awaiting its backend response, keyed by the
  /// router-assigned wire id ("g<seq>").
  struct Pending {
    std::shared_ptr<Conn> client;
    protocol::Envelope env;   ///< the client's envelope (version + its id)
    protocol::Request req;    ///< retained for redirect re-forwarding
    int target = -1;          ///< shard currently asked
    int redirects_left = 0;
  };

  mutable util::Mutex pending_mutex;
  std::unordered_map<std::string, Pending> pending OPM_GUARDED_BY(pending_mutex);
  util::CondVar pending_cv;  // drain: pending ran dry
  bool draining OPM_GUARDED_BY(pending_mutex) = false;
  std::atomic<std::uint64_t> next_wire_id{1};

  /// One persistent connection per backend shard, with the framing that
  /// read its hello reply and the pump that reads everything after.
  struct Backend {
    std::shared_ptr<Conn> conn;
    LineReader lines{-1, 0};
    std::thread pump;
  };
  std::vector<Backend> backends;

  /// Last member: destroyed first, so no client reader outlives the rest.
  Listener listener;

  void answer(const std::shared_ptr<Conn>& client, std::string line) {
    responses.add(1);
    client->write_line(std::move(line));
  }

  /// Forwards `p.req` to shard `target` under a fresh wire id. On an
  /// unusable target the client gets a structured error instead.
  void forward(Pending p, int target) {
    if (target < 0 || target >= static_cast<int>(backends.size()) ||
        !backends[static_cast<std::size_t>(target)].conn->is_open()) {
      backend_errors.add(1);
      answer(p.client,
             protocol::render_error(
                 p.env, make_error("internal", "backend shard " + std::to_string(target) +
                                                   " is unavailable")));  // opm-lint: allow(float-print) — integer shard id
      return;
    }
    const std::uint64_t seq = next_wire_id.fetch_add(1, std::memory_order_relaxed);
    const std::string wire_id =
        "g" + std::to_string(seq);  // opm-lint: allow(float-print) — integer sequence
    p.target = target;
    protocol::Request copy = p.req;
    copy.id = wire_id;
    const std::shared_ptr<Conn> backend = backends[static_cast<std::size_t>(target)].conn;
    {
      util::MutexLock lock(pending_mutex);
      pending.emplace(wire_id, std::move(p));
    }
    forwarded.add(1);
    backend->write_line(protocol::render_request(copy));
  }

  /// Handles one backend response line (any backend; wire ids are global).
  void on_backend_line(std::string_view line) {
    protocol::ResponseView view;
    if (!protocol::parse_response(line, &view)) {
      backend_errors.add(1);
      return;
    }
    Pending p;
    {
      util::MutexLock lock(pending_mutex);
      auto it = pending.find(view.id);
      if (it == pending.end()) return;  // hello echo or a dropped client's late reply
      p = std::move(it->second);
      pending.erase(it);
    }
    if (!view.ok && view.error.category == "redirect" && p.redirects_left > 0 &&
        view.error.shard >= 0) {
      // The shard's ring view is wider than ours; follow the hint.
      redirects_followed.add(1);
      --p.redirects_left;
      forward(std::move(p), view.error.shard);
      pending_cv.notify_all();
      return;
    }
    protocol::Envelope env = p.env;
    env.shard = view.shard;  // tell v2 clients which backend really answered
    answer(p.client, protocol::render_view(env, view));
    pending_cv.notify_all();
  }

  /// Backend reader thread: pumps responses until the backend dies, then
  /// fails every request still pending on that shard so drains and
  /// clients never hang on a dead backend.
  void pump_main(int shard) {
    Backend& backend = backends[static_cast<std::size_t>(shard)];
    std::string_view line;
    while (backend.lines.next(&line) == LineReader::Status::kLine) on_backend_line(line);
    backend.conn->close_fd();
    std::vector<std::pair<std::string, Pending>> orphaned;
    {
      util::MutexLock lock(pending_mutex);
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->second.target == shard) {
          orphaned.emplace_back(it->first, std::move(it->second));
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& [id, p] : orphaned) {
      backend_errors.add(1);
      answer(p.client, protocol::render_error(
                           p.env, make_error("internal", "backend shard connection lost")));
    }
    if (!orphaned.empty()) pending_cv.notify_all();
  }

  std::string stats() const {
    std::size_t n = 0;
    {
      util::MutexLock lock(pending_mutex);
      n = pending.size();
    }
    std::ostringstream os;
    os << "{\"pending\":" << n << ",\"router\":"
       << util::MetricsRegistry::instance().json("router.") << "}";
    return os.str();
  }

  /// Handles one client request line. Returns false when the connection
  /// must close (auth failure).
  bool handle_line(std::string_view line, const std::shared_ptr<Conn>& conn) {
    requests.add(1);
    protocol::Request req;
    protocol::Error err;
    if (!protocol::parse_request(line, &req, &err)) {
      errors_protocol.add(1);
      answer(conn, protocol::render_error(protocol::envelope_of(req), err));
      return true;
    }
    const protocol::Envelope env = protocol::envelope_of(req);
    std::string reply;
    const Listener::Verdict verdict = listener.gate(*conn, req, env, &reply);
    if (verdict != Listener::Verdict::kPass) {
      answer(conn, std::move(reply));
      return verdict == Listener::Verdict::kAnswered;
    }
    if (req.type == protocol::RequestType::kPing) {
      answer(conn, protocol::render_pong(env));
      return true;
    }
    if (req.type == protocol::RequestType::kStats) {
      answer(conn, protocol::render_stats(env, stats()));
      return true;
    }
    bool rejected = false;
    {
      util::MutexLock lock(pending_mutex);
      rejected = draining;
    }
    if (rejected) {
      answer(conn, protocol::render_error(
                       env, make_error("draining", "router is draining; resubmit elsewhere", 50)));
      return true;
    }
    const int target = ring.lookup(protocol::request_key(req));
    Pending p;
    p.client = conn;
    p.env = env;
    p.req = std::move(req);
    p.redirects_left = config.max_redirects;
    forward(std::move(p), target);
    return true;
  }

  /// Connects one backend and starts its pump. For TCP backends with a
  /// configured token the hello handshake runs first, synchronously, so
  /// auth failures surface at start() instead of as hung requests.
  bool connect_backend(std::size_t shard, std::string* error) {
    util::SocketAddress addr;
    if (!util::parse_address(config.backends[shard], &addr, error)) return false;
    const int fd = util::connect_to(addr, error);
    if (fd < 0) return false;
    Backend& backend = backends[shard];
    backend.conn = std::make_shared<Conn>();
    backend.conn->init(fd, /*socket=*/true);
    backend.lines = LineReader(fd, config.max_line_bytes);
    if (addr.kind == util::SocketAddress::Kind::kTcp && !config.backend_token.empty()) {
      protocol::Request hello;
      hello.type = protocol::RequestType::kHello;
      hello.version = 2;
      hello.id = "hello";
      hello.token = config.backend_token;
      backend.conn->write_line(protocol::render_request(hello));
      std::string_view reply;
      protocol::ResponseView view;
      if (backend.lines.next(&reply) != LineReader::Status::kLine ||
          !protocol::parse_response(reply, &view) || !view.ok) {
        if (error) *error = "backend " + addr.to_string() + " rejected the hello handshake";
        backend.conn->close_fd();
        return false;
      }
    }
    backend.pump = std::thread([this, shard] { pump_main(static_cast<int>(shard)); });
    return true;
  }

  /// Shuts down every backend connection and joins its pump, which
  /// closes the fd.
  void stop_backends() {
    for (Backend& b : backends)
      if (b.conn) b.conn->request_close();
    for (Backend& b : backends)
      if (b.pump.joinable()) b.pump.join();
  }
};

Router::Router(const RouterConfig& config) : impl_(new Impl(config)) {}

Router::~Router() {
  request_drain();  // no-op before start(); wait() is a no-op once drained
  wait();
  delete impl_;
}

bool Router::start(std::string* error) {
  if (impl_->config.backends.empty()) {
    if (error) *error = "router needs at least one backend shard";
    return false;
  }
  impl_->backends.resize(impl_->config.backends.size());
  bool ok = true;
  for (std::size_t i = 0; ok && i < impl_->backends.size(); ++i)
    ok = impl_->connect_backend(i, error);
  if (ok && impl_->listener.start(error)) return true;
  impl_->stop_backends();
  return false;
}

int Router::bound_port() const { return impl_->listener.bound_port(); }

int Router::drain_fd() const { return impl_->listener.drain_fd(); }

void Router::request_drain() { impl_->listener.request_drain(); }

void Router::wait() {
  // 1. Stop accepting new connections.
  if (!impl_->listener.stop_accepting()) return;
  // 2. Let every already-forwarded request come back. New sweep requests
  //    from still-open clients are rejected as "draining".
  {
    util::MutexLock lock(impl_->pending_mutex);
    impl_->draining = true;
    while (!impl_->pending.empty()) impl_->pending_cv.wait(impl_->pending_mutex);
  }
  // 3. Close client connections, then backend connections.
  impl_->listener.close_all();
  impl_->stop_backends();
}

std::string Router::stats_json() const { return impl_->stats(); }

const HashRing& Router::ring() const { return impl_->ring; }

}  // namespace opm::serve
