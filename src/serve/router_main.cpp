#include <string>

#include "serve/options.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

/// opm_router — the sharding front end of the serve tier.
///
///   opm_router --shards=ADDR1,ADDR2,... [--listen=ADDR]
///              [--ring-shards=N] [--token=SECRET]
///              [--max-redirects=N] [--max-line-bytes=N]
///
/// Accepts client connections on --listen (default
/// unix:opm-router.sock), consistent-hashes each sweep request's
/// 128-bit key onto one backend shard from --shards (index = shard id),
/// and relays the response under the client's own envelope — a v1
/// client through the router sees byte-identical lines to a v1 client
/// on a standalone server. --token both gates the router's own TCP
/// listener and is presented to TCP backends as the hello credential.
/// SIGTERM/SIGINT drains: stop accepting, let forwarded requests come
/// back, exit 0. An unparsable or out-of-range integer flag is reported
/// and exits 2.

int main(int argc, char** argv) {
  using namespace opm;
  const util::Cli cli(argc, argv);
  serve::Options opt;
  std::string error;
  if (!serve::resolve_options(cli, &opt, &error)) {
    util::log_error("opm_router: " + error);
    return 2;
  }
  if (!cli.has("listen") && !cli.has("socket")) opt.listen = "unix:opm-router.sock";
  return serve::run_router(opt);
}
