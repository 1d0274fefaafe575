#include <string>

#include "core/sweep_config.hpp"
#include "serve/options.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

/// opm_serve — the long-running sweep service (one shard of the tier, or
/// a standalone server).
///
///   opm_serve [--listen=ADDR] [--token=SECRET] [--quota=N]
///             [--shard-id=N] [--shard-count=N] [--queue-depth=N]
///             [--serve-workers=N] [--max-line-bytes=N]
///             [--retry-after-ms=N] [--stdio]
///             [--sweep-workers=N] [--cache-dir=PATH]
///             [--cache-max-bytes=N] [--no-cache] [--no-sweep-stats]
///
/// Listens on a Unix domain socket (default ./opm-serve.sock) or a TCP
/// address (--listen=HOST:PORT; port 0 binds an ephemeral port, printed
/// in the startup line) for newline-delimited JSON sweep requests (v1 or
/// v2 envelopes, see serve/protocol.hpp) and answers each with a payload
/// byte-identical to the offline bench output for the same request. TCP
/// listeners with --token require a hello handshake per connection.
/// With --shard-count, requests this shard does not own are redirected.
/// SIGTERM/SIGINT triggers a graceful drain: stop accepting, finish
/// in-flight work, exit 0. With --stdio it instead serves stdin→stdout
/// once and exits when stdin closes. An unparsable or out-of-range
/// integer flag is reported and exits 2.
///
/// The sweep knobs are the same defaults → environment → CLI resolution
/// the bench harnesses use (core::resolve_sweep_config), so a server and
/// an offline run configured alike share one on-disk result cache.

int main(int argc, char** argv) {
  using namespace opm;
  core::apply_sweep_config(core::resolve_sweep_config(argc, argv));

  const util::Cli cli(argc, argv);
  serve::Options opt;
  std::string error;
  if (!serve::resolve_options(cli, &opt, &error)) {
    util::log_error("opm_serve: " + error);
    return 2;
  }
  return serve::run_server(opt);
}
