#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace opm::util {
class Cli;
}

/// One options surface for the serve binaries: `opm_serve` and
/// `opm_router` resolve their flags through serve::Options, so a flag
/// means the same thing in both. Integer flags take a base-10 value in
/// the range shown; anything else is an error.
///
///   --listen=ADDR          listener (unix:PATH | HOST:PORT; port 0 = ephemeral)
///   --socket=PATH          pre-v2 spelling of --listen=unix:PATH
///   --shards=A,B,...       backend shard addresses, comma-separated; index = shard id
///   --ring-shards=N        ring view size, 0..1024 (0: number of backends)
///   --shard-id=N           this server's shard identity, below --shard-count (or 0..1023)
///   --shard-count=N        total shards, 0..1024 (> 0 enables ownership redirects)
///   --token=SECRET         shared-secret hello auth on TCP listeners,
///                          and the credential clients/router present
///   --quota=N              per-client queued-request quota, 0..2^20 (0 = none)
///   --queue-depth=N        global admission bound, 1..2^20
///   --serve-workers=N      dispatcher executor threads, 1..256
///   --retry-after-ms=N     backoff hint in rejections, 0..3600000
///   --max-line-bytes=N     request line limit, 1..2^30
///   --max-redirects=N      router: redirect hops to follow, 0..16
///   --stdio                opm_serve: serve stdin→stdout once
namespace opm::serve {

struct Options {
  std::string listen = "unix:opm-serve.sock";
  std::vector<std::string> shards;
  int ring_shards = 0;
  int shard_id = 0;
  int shard_count = 0;
  std::string token;
  std::size_t per_client_quota = 0;
  std::size_t queue_depth = 64;
  std::size_t serve_workers = 2;
  int retry_after_ms = 50;
  std::size_t max_line_bytes = 256 * 1024;
  int max_redirects = 1;
  bool stdio = false;
};

/// Resolves the flag surface above (defaults, overridden by CLI) into
/// *out. False + *error on an unparsable or out-of-range integer flag.
bool resolve_options(const util::Cli& cli, Options* out, std::string* error);

/// The mains' shared run step: build the service, start it, route
/// SIGTERM/SIGINT to its drain pipe, log "<binary> listening on ADDR" (a
/// HOST:0 address re-rendered with the bound port), block until drained,
/// log "<binary> drained cleanly". run_server serves stdin→stdout instead
/// under --stdio. Returns the exit code: 0, or 1 when start fails.
int run_server(const Options& opt);
int run_router(const Options& opt);

}  // namespace opm::serve
