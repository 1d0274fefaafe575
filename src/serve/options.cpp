#include "serve/options.hpp"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdint>

#include "serve/router.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace opm::serve {

namespace {

constexpr std::int64_t kMaxShards = 1024;

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Reads integer flag --`name` into *out when present. False + *error when
/// its text is not a base-10 integer or lies outside [lo, hi].
template <class T>
bool int_flag(const util::Cli& cli, const char* name, std::int64_t lo, std::int64_t hi, T* out,
              std::string* error) {
  if (!cli.has(name)) return true;
  const std::string text = cli.get(name, "");
  std::int64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || v < lo || v > hi) {
    if (error)
      *error = "--" + std::string(name) + "=" + text + ": expected an integer in [" +
               std::to_string(lo) + ", " + std::to_string(hi) +  // opm-lint: allow(float-print) — integer bounds
               "]";
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

std::atomic<int> g_drain_fd{-1};

/// Installed only once g_drain_fd is set. Async-signal-safe: one byte on
/// the drain pipe wakes the accept loop.
extern "C" void on_terminate(int) {
  [[maybe_unused]] const ssize_t rc = ::write(g_drain_fd.load(std::memory_order_relaxed), "d", 1);
}

template <class Service>
int run_service(Service& service, const std::string& binary, const std::string& listen,
                const std::string& detail) {
  std::string error;
  if (!service.start(&error)) {
    util::log_error(binary + ": " + error);
    return 1;
  }
  g_drain_fd.store(service.drain_fd(), std::memory_order_relaxed);
  ::signal(SIGTERM, on_terminate);
  ::signal(SIGINT, on_terminate);

  std::string where = listen;
  if (service.bound_port() >= 0) {
    // Re-render with the actual port so HOST:0 callers can discover it.
    where = where.substr(0, where.rfind(':') + 1) +
            std::to_string(service.bound_port());  // opm-lint: allow(float-print) — integer port
  }
  util::log_info(binary + " listening on " + where + detail);
  service.wait();
  util::log_info(binary + " drained cleanly");
  return 0;
}

ServerConfig to_server_config(const Options& opt) {
  ServerConfig config;
  config.listen_address = opt.listen;
  config.auth_token = opt.token;
  config.max_line_bytes = opt.max_line_bytes;
  config.dispatch.queue_depth = opt.queue_depth;
  config.dispatch.workers = opt.serve_workers;
  config.dispatch.retry_after_ms = opt.retry_after_ms;
  config.dispatch.per_client_quota = opt.per_client_quota;
  config.dispatch.shard_id = opt.shard_id;
  config.dispatch.shard_count = opt.shard_count;
  return config;
}

RouterConfig to_router_config(const Options& opt) {
  RouterConfig config;
  config.listen_address = opt.listen;
  config.backends = opt.shards;
  config.ring_shards = opt.ring_shards;
  config.auth_token = opt.token;
  config.backend_token = opt.token;
  config.max_line_bytes = opt.max_line_bytes;
  config.max_redirects = opt.max_redirects;
  return config;
}

}  // namespace

bool resolve_options(const util::Cli& cli, Options* out, std::string* error) {
  Options opt;
  // --socket is the pre-v2 spelling; --listen wins when both appear.
  if (cli.has("socket")) opt.listen = "unix:" + cli.get("socket", "opm-serve.sock");
  opt.listen = cli.get("listen", opt.listen);
  opt.shards = split_commas(cli.get("shards", ""));
  opt.token = cli.get("token", opt.token);
  opt.stdio = cli.has("stdio");
  if (!int_flag(cli, "ring-shards", 0, kMaxShards, &opt.ring_shards, error) ||
      !int_flag(cli, "shard-count", 0, kMaxShards, &opt.shard_count, error) ||
      !int_flag(cli, "shard-id", 0, (opt.shard_count > 0 ? opt.shard_count : kMaxShards) - 1,
                &opt.shard_id, error) ||
      !int_flag(cli, "quota", 0, 1 << 20, &opt.per_client_quota, error) ||
      !int_flag(cli, "queue-depth", 1, 1 << 20, &opt.queue_depth, error) ||
      !int_flag(cli, "serve-workers", 1, 256, &opt.serve_workers, error) ||
      !int_flag(cli, "retry-after-ms", 0, 3600000, &opt.retry_after_ms, error) ||
      !int_flag(cli, "max-line-bytes", 1, 1 << 30, &opt.max_line_bytes, error) ||
      !int_flag(cli, "max-redirects", 0, 16, &opt.max_redirects, error))
    return false;
  *out = std::move(opt);
  return true;
}

int run_server(const Options& opt) {
  Server server(to_server_config(opt));
  if (!opt.stdio) return run_service(server, "opm_serve", opt.listen, "");
  server.serve_stream(0, 1);
  return 0;
}

int run_router(const Options& opt) {
  Router router(to_router_config(opt));
  return run_service(router, "opm_router", opt.listen,
                     " (" + std::to_string(opt.shards.size()) +  // opm-lint: allow(float-print) — integer count
                         " shards)");
}

}  // namespace opm::serve
