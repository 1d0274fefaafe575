// The sharded serve tier: the consistent-hash ring's determinism, balance,
// and minimal-movement bounds; the protocol-v2 envelope's render/parse
// round trips (including the byte-stability the router's re-rendering
// relies on); dispatcher shard-ownership redirects and per-client quotas;
// and the router end to end over unix sockets — correct-shard routing,
// v1 clients through a v2 mesh, stale ring views healed by redirects, and
// a multi-shard drain that answers everything admitted.
#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace {

using namespace opm;
namespace protocol = opm::serve::protocol;
using protocol::Envelope;
using protocol::Error;
using protocol::Request;
using protocol::RequestType;
using serve::HashRing;

util::Digest128 key_of(std::uint64_t n) {
  util::Hasher128 h;
  h.add(std::string_view("ring.test.key"));
  h.add(n);
  return h.digest();
}

// ---------------------------------------------------------------- the ring --

TEST(HashRing, LookupIsDeterministicAcrossInstances) {
  const HashRing a(4), b(4);
  for (std::uint64_t i = 0; i < 1000; ++i)
    ASSERT_EQ(a.lookup(key_of(i)), b.lookup(key_of(i))) << i;
}

TEST(HashRing, EmptyRingAnswersNoOwner) {
  const HashRing empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.lookup(key_of(1)), -1);
  EXPECT_EQ(empty.shards(), 0);
}

TEST(HashRing, SpreadsKeysRoughlyEvenly) {
  const HashRing ring(4);
  constexpr int kKeys = 20000;
  std::map<int, int> counts;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const int owner = ring.lookup(key_of(i));
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 4);
    ++counts[owner];
  }
  // 64 vnodes per shard keeps the imbalance mild; the bound here is loose
  // on purpose (it gates gross placement bugs, not variance).
  for (const auto& [shard, n] : counts) {
    EXPECT_GT(n, kKeys / 10) << "shard " << shard << " starved";
    EXPECT_LT(n, kKeys * 45 / 100) << "shard " << shard << " overloaded";
  }
}

TEST(HashRing, GrowingTheRingMovesOnlyASliverAndOnlyToTheNewShard) {
  const HashRing before(4), after(5);
  constexpr int kKeys = 20000;
  int moved = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const int a = before.lookup(key_of(i));
    const int b = after.lookup(key_of(i));
    if (a != b) {
      ++moved;
      // Consistent hashing's defining property: a key that changes owner
      // can only have been claimed by the newly added shard.
      ASSERT_EQ(b, 4) << "key " << i << " moved " << a << " -> " << b;
    }
  }
  EXPECT_GT(moved, 0);                 // the new shard owns something
  EXPECT_LT(moved, kKeys * 35 / 100);  // ~1/5 expected; far below a rehash
}

// ----------------------------------------------------- envelope round trips --

TEST(ProtocolV2, ResponseRenderParseRenderIsByteStable) {
  const Envelope env{2, "req-7", 3};
  const std::string payload = "x,y\n0x1p+8,0x1.8p+1\nquote\"back\\slash";
  const std::string wire = protocol::render_response(env, RequestType::kDense, payload);

  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(wire, &view));
  EXPECT_EQ(view.version, 2);
  EXPECT_EQ(view.id, "req-7");
  EXPECT_EQ(view.shard, 3);
  EXPECT_TRUE(view.ok);
  EXPECT_EQ(view.type, "dense");
  EXPECT_EQ(view.payload, payload);

  // The router's whole re-rendering trick: parse + render under the same
  // envelope reproduces the wire bytes exactly.
  EXPECT_EQ(protocol::render_view(env, view), wire);
}

TEST(ProtocolV2, ErrorWithRedirectHintRoundTrips) {
  const Envelope env{2, "r", 0};
  Error err;
  err.category = "redirect";
  err.message = "shard 2 owns this key";
  err.shard = 2;
  const std::string wire = protocol::render_error(env, err);
  EXPECT_NE(wire.find("\"shard\":2"), std::string::npos);

  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(wire, &view));
  EXPECT_FALSE(view.ok);
  EXPECT_EQ(view.error.category, "redirect");
  EXPECT_EQ(view.error.shard, 2);
  EXPECT_EQ(protocol::render_view(env, view), wire);
}

TEST(ProtocolV2, StatsAndPongRoundTrip) {
  const Envelope env{2, "s", 1};
  const std::string stats = R"({"queued":0,"router":{"router.requests":5}})";
  const std::string wire = protocol::render_stats(env, stats);
  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(wire, &view));
  EXPECT_EQ(view.type, "stats");
  EXPECT_EQ(view.stats, stats);
  EXPECT_EQ(protocol::render_view(env, view), wire);

  const std::string pong = protocol::render_pong(env);
  protocol::ResponseView pv;
  ASSERT_TRUE(protocol::parse_response(pong, &pv));
  EXPECT_EQ(pv.type, "pong");
  EXPECT_EQ(protocol::render_view(env, pv), pong);
}

TEST(ProtocolV2, ParseResponseRejectsIntegerFieldsOutsideInt) {
  // The router feeds backend socket bytes into parse_response, so every
  // int field must be an integral number inside int's range: casting
  // 1e999 (inf), -1e300 or 2.5 to int is undefined or lossy.
  const std::string ok = R"({"v":2,"req_id":"r","shard":1,"ok":true,"type":"pong"})";
  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(ok, &view));
  for (const char* bad : {"1e999", "-1e300", "2.5"}) {
    const std::string b = bad;
    const std::string lines[] = {
        R"({"v":)" + b + R"(,"req_id":"r","ok":true,"type":"pong"})",
        R"({"v":2,"req_id":"r","shard":)" + b + R"(,"ok":true,"type":"pong"})",
        R"({"v":2,"req_id":"r","ok":false,"error":{"category":"overload",)"
        R"("message":"m","retry_after_ms":)" + b + "}}",
        R"({"v":2,"req_id":"r","ok":false,"error":{"category":"redirect",)"
        R"("message":"m","shard":)" + b + "}}",
    };
    for (const std::string& line : lines)
      EXPECT_FALSE(protocol::parse_response(line, &view)) << line;
  }
  // In range and integral still parses, including the int extremes.
  ASSERT_TRUE(protocol::parse_response(
      R"({"v":2,"req_id":"r","ok":false,"error":{"category":"overload","message":"m",)"
      R"("retry_after_ms":2147483647,"shard":-2147483648}})",
      &view));
  EXPECT_EQ(view.error.retry_after_ms, 2147483647);
  EXPECT_EQ(view.error.shard, -2147483647 - 1);
}

TEST(ProtocolV2, V1RenderIsByteIdenticalToPreV2AndRoundTrips) {
  // The v1 convenience wrappers must keep the pre-envelope wire format:
  // no "v", no "shard", id spelled "id".
  const std::string wire = protocol::render_response("q1", RequestType::kSparse, "pay");
  EXPECT_EQ(wire, R"({"id":"q1","ok":true,"type":"sparse","payload":"pay"})");

  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(wire, &view));
  EXPECT_EQ(view.version, 1);
  EXPECT_EQ(view.id, "q1");
  EXPECT_EQ(view.payload, "pay");
  EXPECT_EQ(protocol::render_view(Envelope{1, "q1", 0}, view), wire);
}

TEST(ProtocolV2, ReRenderingAcrossVersionsPreservesPayloadBytes) {
  // A v2 backend response re-rendered under a v1 client envelope (what the
  // router does for v1 clients) matches a direct v1 render exactly.
  const std::string payload = "a\"b\\c\nd";
  const std::string backend =
      protocol::render_response(Envelope{2, "g42", 1}, RequestType::kFootprint, payload);
  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(backend, &view));
  EXPECT_EQ(protocol::render_view(Envelope{1, "client-3", 0}, view),
            protocol::render_response("client-3", RequestType::kFootprint, payload));
}

TEST(ProtocolV2, RenderRequestReconstructsTheSameRequestKey) {
  const char* lines[] = {
      R"({"type":"dense","platform":"knl-flat","kernel":"cholesky",)"
      R"("n_lo":256,"n_hi":2048,"n_step":256,"nb_lo":128,"nb_hi":1024,"nb_step":128})",
      R"({"type":"sparse","platform":"broadwell-edram-on","kernel":"sptrans","merge_based":true})",
      R"({"type":"footprint","platform":"knl-cache","kernel":"fft",)"
      R"("fp_lo":16384,"fp_hi":1048576,"points":12})",
  };
  for (const char* line : lines) {
    Request req;
    Error err;
    ASSERT_TRUE(protocol::parse_request(line, &req, &err)) << err.message;
    req.id = "fwd-1";
    Request reparsed;
    ASSERT_TRUE(protocol::parse_request(protocol::render_request(req), &reparsed, &err))
        << err.message;
    EXPECT_EQ(reparsed.version, 2);
    EXPECT_EQ(reparsed.id, "fwd-1");
    // Same coalescing key ⇒ the forwarded form hits the same cache entry
    // and single-flight as the original.
    EXPECT_EQ(protocol::request_key(reparsed), protocol::request_key(req)) << line;
  }
}

// ------------------------------------------------------ dispatcher sharding --

/// Shard-aware fixture: cache in memory-only mode, serial sweeps.
class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_config_ = core::result_cache_config();
    saved_workers_ = core::sweep_workers();
    core::set_sweep_workers(0);
    core::CacheConfig cfg;
    cfg.enabled = true;
    cfg.disk = false;
    core::configure_result_cache(cfg);
  }
  void TearDown() override {
    core::configure_result_cache(saved_config_);
    core::set_sweep_workers(saved_workers_);
  }

  static Request parse_ok(const std::string& line) {
    Request req;
    Error err;
    EXPECT_TRUE(protocol::parse_request(line, &req, &err)) << line << ": " << err.message;
    return req;
  }

  /// A small footprint request (cheap to execute) whose key the ring of
  /// `shards` assigns to `owner`. Scans fp_lo until one matches.
  static std::string request_owned_by(int owner, int shards) {
    const HashRing ring(shards);
    for (int i = 0; i < 256; ++i) {
      const std::string line =
          R"({"type":"footprint","platform":"knl-ddr","kernel":"stream","fp_lo":)" +
          std::to_string(16384 + 1024 * i) + R"(,"fp_hi":1048576,"points":6})";
      Request req;
      Error err;
      EXPECT_TRUE(protocol::parse_request(line, &req, &err)) << err.message;
      if (ring.lookup(protocol::request_key(req)) == owner) return line;
    }
    ADD_FAILURE() << "no request found owned by shard " << owner << "/" << shards;
    return {};
  }

  core::CacheConfig saved_config_;
  std::size_t saved_workers_ = 0;
};

TEST_F(RouterTest, DispatcherRedirectsKeysItDoesNotOwn) {
  serve::DispatchConfig cfg;
  cfg.workers = 1;
  cfg.shard_id = 0;
  cfg.shard_count = 4;
  serve::Dispatcher dispatcher(cfg);
  const HashRing ring(4);

  // A key this shard owns is served normally.
  std::mutex mutex;
  std::vector<std::string> lines;
  auto sink = [&](std::string line) {
    std::lock_guard lock(mutex);
    lines.push_back(std::move(line));
  };
  dispatcher.submit(1, parse_ok(request_owned_by(0, 4)), sink);
  dispatcher.drain();
  {
    std::lock_guard lock(mutex);
    ASSERT_EQ(lines.size(), 1u);
    const auto doc = util::parse_json(lines[0]);
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(doc->find("ok")->boolean) << lines[0];
  }

  // A key owned by another shard is answered inline with a redirect that
  // names the true owner — never queued, never computed here.
  serve::Dispatcher fresh(cfg);
  const std::string foreign = request_owned_by(2, 4);
  Request req = parse_ok(foreign);
  const int owner = ring.lookup(protocol::request_key(req));
  ASSERT_EQ(owner, 2);
  std::vector<std::string> redirected;
  fresh.submit(1, std::move(req), [&](std::string line) {
    std::lock_guard lock(mutex);
    redirected.push_back(std::move(line));
  });
  {
    std::lock_guard lock(mutex);
    ASSERT_EQ(redirected.size(), 1u);  // answered before submit returned
    const auto doc = util::parse_json(redirected[0]);
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(doc->find("ok")->boolean);
    const util::JsonValue* err = doc->find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->find("category")->string, "redirect");
    EXPECT_EQ(static_cast<int>(err->find("shard")->number), owner);
  }
  fresh.drain();
}

TEST_F(RouterTest, DispatcherEnforcesPerClientQuota) {
  serve::DispatchConfig cfg;
  cfg.workers = 1;
  cfg.queue_depth = 64;  // deep global queue: only the quota can reject
  cfg.per_client_quota = 1;
  cfg.retry_after_ms = 10;
  serve::Dispatcher dispatcher(cfg);

  // A grid slow enough (~31k points) that the burst lands while the
  // worker is still on request #1, so queued-per-client reaches the cap.
  const std::string slow =
      R"({"type":"dense","platform":"knl-flat","kernel":"gemm",)"
      R"("n_lo":256,"n_hi":8192,"n_step":32,"nb_lo":128,"nb_hi":4096,"nb_step":32})";
  std::mutex mutex;
  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i) {
    Request req = parse_ok(slow);
    req.id = "q" + std::to_string(i);
    dispatcher.submit(/*client=*/7, std::move(req), [&](std::string line) {
      std::lock_guard lock(mutex);
      lines.push_back(std::move(line));
    });
  }
  dispatcher.drain();

  int ok = 0, quota_rejected = 0;
  for (const auto& line : lines) {
    const auto doc = util::parse_json(line);
    ASSERT_TRUE(doc.has_value());
    if (doc->find("ok")->boolean) {
      ++ok;
      continue;
    }
    const util::JsonValue* err = doc->find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->find("category")->string, "overload");
    if (err->find("message")->string.find("quota") != std::string::npos) ++quota_rejected;
  }
  EXPECT_EQ(lines.size(), 6u);       // everything answered exactly once
  EXPECT_GE(ok, 1);                  // the in-flight request completed
  EXPECT_GE(quota_rejected, 1);      // the cap actually bit
}

// --------------------------------------------------------- router end to end --

/// Line-framed test client over any serve-tier address.
struct TestClient {
  int fd = -1;
  std::string buf;

  bool connect_addr(const std::string& address) {
    util::SocketAddress addr;
    std::string error;
    if (!util::parse_address(address, &addr, &error)) return false;
    fd = util::connect_to(addr, &error);
    return fd >= 0;
  }

  bool send_line(std::string line) {
    line.push_back('\n');
    return util::send_all(fd, line);
  }

  bool recv_line(std::string* out, int timeout_ms = 30000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t pos = buf.find('\n');
      if (pos != std::string::npos) {
        out->assign(buf, 0, pos);
        buf.erase(0, pos + 1);
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }

  ~TestClient() {
    if (fd >= 0) ::close(fd);
  }
};

/// A router fronting `nshards` in-process shard servers on unix sockets.
/// `ring_shards` < nshards models a router whose ring view lags the
/// backend pool (scale-out).
struct Mesh {
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::unique_ptr<serve::Router> router;
  std::string address;

  bool start(const char* tag, int nshards, int ring_shards = 0) {
    serve::RouterConfig rc;
    for (int s = 0; s < nshards; ++s) {
      serve::ServerConfig sc;
      sc.socket_path = std::string("test-router-") + tag + "-s" + std::to_string(s) + "-" +
                       std::to_string(::getpid()) + ".sock";
      sc.dispatch.workers = 1;
      sc.dispatch.shard_id = s;
      sc.dispatch.shard_count = nshards;
      servers.push_back(std::make_unique<serve::Server>(sc));
      std::string error;
      if (!servers.back()->start(&error)) {
        ADD_FAILURE() << "shard " << s << ": " << error;
        return false;
      }
      rc.backends.push_back("unix:" + sc.socket_path);
    }
    address = std::string("unix:test-router-") + tag + "-" + std::to_string(::getpid()) +
              ".sock";
    rc.listen_address = address;
    rc.ring_shards = ring_shards;
    router = std::make_unique<serve::Router>(rc);
    std::string error;
    if (!router->start(&error)) {
      ADD_FAILURE() << "router: " << error;
      return false;
    }
    return true;
  }

  void stop() {
    if (router) {
      router->request_drain();
      router->wait();
    }
    for (auto& s : servers) {
      s->request_drain();
      s->wait();
    }
  }
};

TEST_F(RouterTest, RoutesToOwningShardAndServesOfflineIdenticalBytes) {
  Mesh mesh;
  ASSERT_TRUE(mesh.start("e2e", 2));
  TestClient client;
  ASSERT_TRUE(client.connect_addr(mesh.address));

  const HashRing ring(2);
  for (int owner = 0; owner < 2; ++owner) {
    const std::string body = request_owned_by(owner, 2);
    Request req = parse_ok(body);
    const std::string id = "own" + std::to_string(owner);
    ASSERT_TRUE(client.send_line("{\"v\":2,\"req_id\":\"" + id + "\"," + body.substr(1)));
    std::string line;
    ASSERT_TRUE(client.recv_line(&line));
    protocol::ResponseView view;
    ASSERT_TRUE(protocol::parse_response(line, &view)) << line;
    EXPECT_TRUE(view.ok) << line;
    EXPECT_EQ(view.version, 2);
    EXPECT_EQ(view.id, id);
    EXPECT_EQ(view.shard, owner);  // the serving shard is the ring owner
    EXPECT_EQ(view.payload, protocol::execute(req));
  }

  // Ping and stats are the router's own; stats carries router counters.
  ASSERT_TRUE(client.send_line(R"({"v":2,"req_id":"p","type":"ping"})"));
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_NE(line.find("\"pong\""), std::string::npos);
  ASSERT_TRUE(client.send_line(R"({"v":2,"req_id":"st","type":"stats"})"));
  ASSERT_TRUE(client.recv_line(&line));
  const auto stats = util::parse_json(line);
  ASSERT_TRUE(stats.has_value());
  const util::JsonValue* router_group = stats->find("stats")->find("router");
  ASSERT_NE(router_group, nullptr) << line;
  EXPECT_GE(router_group->find("router.forwarded")->number, 2.0);

  mesh.stop();
}

TEST_F(RouterTest, V1ClientThroughTheRouterSeesPreV2Bytes) {
  Mesh mesh;
  ASSERT_TRUE(mesh.start("v1", 2));
  TestClient client;
  ASSERT_TRUE(client.connect_addr(mesh.address));

  const std::string body = request_owned_by(1, 2);
  ASSERT_TRUE(client.send_line("{\"id\":\"legacy\"," + body.substr(1)));
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  // Byte-identical to a standalone pre-v2 server answering the same
  // request: v1 envelope, no version or shard fields.
  EXPECT_EQ(line, protocol::render_response("legacy", RequestType::kFootprint,
                                            protocol::execute(parse_ok(body))));
  mesh.stop();
}

TEST_F(RouterTest, StaleRingViewIsHealedByRedirect) {
  // The router believes there is 1 shard; the 2 backends know better
  // (shard_count=2). A key owned by shard 1 first lands on shard 0, which
  // answers "redirect"; the router follows the hint transparently.
  Mesh mesh;
  ASSERT_TRUE(mesh.start("stale", 2, /*ring_shards=*/1));
  TestClient client;
  ASSERT_TRUE(client.connect_addr(mesh.address));

  const std::string body = request_owned_by(1, 2);
  ASSERT_TRUE(client.send_line("{\"v\":2,\"req_id\":\"sr\"," + body.substr(1)));
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(line, &view)) << line;
  EXPECT_TRUE(view.ok) << line;
  EXPECT_EQ(view.shard, 1);  // served by the true owner after the hop
  EXPECT_EQ(view.payload, protocol::execute(parse_ok(body)));

  const auto stats = util::parse_json(mesh.router->stats_json());
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->find("router")->find("router.redirects_followed")->number, 1.0);
  mesh.stop();
}

TEST_F(RouterTest, MultiShardDrainAnswersEverythingAdmitted) {
  Mesh mesh;
  ASSERT_TRUE(mesh.start("drain", 2));

  // Four concurrent clients racing a drain: every request that got a
  // response got a *structured* one (ok, redirect, or draining) — and
  // wait() returns with nothing stuck in flight.
  constexpr int kClients = 4, kRequests = 6;
  std::vector<std::string> bodies = {request_owned_by(0, 2), request_owned_by(1, 2)};
  std::mutex mutex;
  std::vector<std::string> responses;
  std::vector<std::thread> threads;  // opm-lint: allow(thread-ownership) — test clients model independent processes
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client;
      if (!client.connect_addr(mesh.address)) return;
      for (int i = 0; i < kRequests; ++i) {
        const std::string id = "d" + std::to_string(c) + "-" + std::to_string(i);
        if (!client.send_line("{\"v\":2,\"req_id\":\"" + id + "\"," +
                              bodies[i % bodies.size()].substr(1)))
          return;
        std::string line;
        if (!client.recv_line(&line, 5000)) return;
        std::lock_guard lock(mutex);
        responses.push_back(std::move(line));
      }
    });
  }
  // Let some requests through, then drain concurrently with the load.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  mesh.router->request_drain();
  mesh.router->wait();
  for (auto& t : threads) t.join();
  for (auto& s : mesh.servers) {
    s->request_drain();
    s->wait();
  }

  ASSERT_GT(responses.size(), 0u);
  for (const auto& line : responses) {
    protocol::ResponseView view;
    ASSERT_TRUE(protocol::parse_response(line, &view)) << line;
    if (!view.ok) {
      EXPECT_TRUE(view.error.category == "draining" || view.error.category == "internal")
          << line;
    }
  }
}

}  // namespace
