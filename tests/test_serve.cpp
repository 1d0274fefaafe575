// The sweep service: strict JSON parsing, the protocol error taxonomy,
// single-flight coalescing, dispatcher admission control, and the Unix
// socket server end to end — including the contracts the service exists
// for: served payloads byte-identical to offline library output, hostile
// input answered with structured errors (never a crash or hang), and a
// graceful drain that answers everything admitted and unlinks the socket.
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "advise/advise.hpp"
#include "core/result_cache.hpp"
#include "core/single_flight.hpp"
#include "core/sweep.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/window_sampler.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/socket.hpp"

namespace {

using namespace opm;
using serve::protocol::Error;
using serve::protocol::Request;
using serve::protocol::RequestType;

// ------------------------------------------------------------- JSON reader --

TEST(JsonParser, ParsesScalarsAndStructures) {
  const auto doc = util::parse_json(R"({"a":1.5,"b":[true,false,null],"c":{"d":"x"}})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_DOUBLE_EQ(doc->find("a")->number, 1.5);
  ASSERT_TRUE(doc->find("b")->is_array());
  EXPECT_EQ(doc->find("b")->items.size(), 3u);
  EXPECT_TRUE(doc->find("b")->items[0].boolean);
  EXPECT_TRUE(doc->find("b")->items[2].is_null());
  EXPECT_EQ(doc->find("c")->find("d")->string, "x");
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonParser, DecodesEscapesAndSurrogatePairs) {
  const auto doc = util::parse_json(R"("line\n\t\"q\" \u0041 \uD83D\uDE00")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string, "line\n\t\"q\" A \xF0\x9F\x98\x80");
}

TEST(JsonParser, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                       // empty
      "{",                      // truncated object
      "{\"a\":}",               // missing value
      "{\"a\":1,}",             // trailing comma
      "[1 2]",                  // missing comma
      "nan",                    // not a JSON literal
      "01",                     // leading zero
      "1.",                     // truncated fraction
      "\"\x01\"",               // raw control char in string
      "\"\\uD83D\"",            // lone high surrogate
      "{} trailing",            // trailing garbage
      "{\"a\":1} {\"b\":2}",    // two documents
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(util::parse_json(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonParser, EnforcesDepthLimit) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(util::parse_json(deep).has_value());
  EXPECT_TRUE(util::parse_json(deep, nullptr, 256).has_value());
}

TEST(JsonParser, EscapeRoundTrips) {
  const std::string original = "a\"b\\c\nd\te\x01f";
  const auto doc = util::parse_json("\"" + util::json_escape(original) + "\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string, original);
}

// --------------------------------------------------------------- protocol --

TEST(Protocol, MinimalSweepRequestsUsePaperDefaults) {
  Request req;
  Error err;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"type":"dense","platform":"broadwell-edram-on"})", &req, &err))
      << err.message;
  EXPECT_EQ(req.type, RequestType::kDense);
  EXPECT_EQ(req.dense, core::DenseSweepRequest{});
  EXPECT_EQ(req.platform_name, "broadwell-edram-on");

  Request sparse_req;
  ASSERT_TRUE(serve::protocol::parse_request(R"({"type":"sparse","platform":"knl-flat"})",
                                             &sparse_req, &err))
      << err.message;
  EXPECT_EQ(sparse_req.sparse, core::SparseSweepRequest{});

  Request fp_req;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"type":"footprint","platform":"knl-cache","kernel":"fft"})", &fp_req, &err))
      << err.message;
  EXPECT_EQ(fp_req.footprint.kernel, core::KernelId::kFft);
  EXPECT_EQ(fp_req.footprint.points, core::FootprintSweepRequest{}.points);
}

TEST(Protocol, ErrorTaxonomy) {
  struct Case {
    const char* line;
    const char* category;
  };
  const Case cases[] = {
      {"not json at all", "parse"},
      {"[1,2,3]", "parse"},  // valid JSON, not an object
      {R"({"type":"nope"})", "bad-request"},
      {R"({"type":"dense"})", "bad-request"},  // missing platform
      {R"({"type":"dense","platform":"epyc"})", "bad-request"},
      {R"({"type":"dense","platform":"knl-flat","bogus":1})", "bad-request"},
      {R"({"type":"dense","platform":"knl-flat","kernel":"spmv"})", "bad-request"},
      {R"({"type":"dense","platform":"knl-flat","n_step":0})", "bad-request"},
      {R"({"type":"dense","platform":"knl-flat","n_lo":"big"})", "bad-request"},
      {R"({"type":"dense","platform":"knl-flat","n_lo":1,"n_hi":1000000,"n_step":0.001})",
       "bad-request"},  // grid bomb
      {R"({"type":"sparse","platform":"knl-flat","kernel":"gemm"})", "bad-request"},
      {R"({"type":"sparse","platform":"knl-flat","merge_based":1})", "bad-request"},
      {R"({"type":"footprint","platform":"knl-flat","fp_lo":-5})", "bad-request"},
      {R"({"type":"footprint","platform":"knl-flat","fp_lo":100,"fp_hi":50})", "bad-request"},
      {R"({"type":"footprint","platform":"knl-flat","points":0})", "bad-request"},
      {R"({"type":"footprint","platform":"knl-flat","points":2.5})", "bad-request"},
      {R"({"type":"ping","platform":"knl-flat"})", "bad-request"},  // field not allowed
      {R"({"type":"ping","id":5})", "bad-request"},
  };
  for (const auto& c : cases) {
    Request req;
    Error err;
    EXPECT_FALSE(serve::protocol::parse_request(c.line, &req, &err)) << c.line;
    EXPECT_EQ(err.category, c.category) << c.line << " -> " << err.message;
    EXPECT_FALSE(err.message.empty()) << c.line;
  }

  // Over-long ids are rejected; recoverable ids are echoed even on failure.
  const std::string long_id(129, 'x');
  Request req;
  Error err;
  EXPECT_FALSE(serve::protocol::parse_request(
      "{\"id\":\"" + long_id + "\",\"type\":\"ping\"}", &req, &err));
  EXPECT_FALSE(serve::protocol::parse_request(R"({"id":"echo-me","type":"nope"})", &req, &err));
  EXPECT_EQ(req.id, "echo-me");
}

TEST(Protocol, RequestKeyIgnoresIdButNotContent) {
  Request a, b;
  Error err;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"id":"one","type":"footprint","platform":"knl-flat","kernel":"stream"})", &a, &err));
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"id":"two","type":"footprint","platform":"knl-flat","kernel":"stream"})", &b, &err));
  EXPECT_EQ(serve::protocol::request_key(a), serve::protocol::request_key(b));

  Request c;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"type":"footprint","platform":"knl-flat","kernel":"stencil"})", &c, &err));
  EXPECT_FALSE(serve::protocol::request_key(a) == serve::protocol::request_key(c));

  Request d;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"type":"footprint","platform":"knl-cache","kernel":"stream"})", &d, &err));
  EXPECT_FALSE(serve::protocol::request_key(a) == serve::protocol::request_key(d));
}

TEST(Protocol, RequestKeysArePinnedDigests) {
  // The request identity drives hash-ring placement, single-flight
  // coalescing and the payload-cache keys (memory and .opmrec disk), so
  // it must never drift silently: these literals pin request_key and
  // payload_cache_key for fixed requests of every dispatched type. A
  // deliberate change re-keys every cache and reshuffles the ring; bump
  // core::kResultCacheVersion and update the literals together.
  const bool saved_verify = advise::verify_enabled();
  const sim::SamplingMode saved_sampling = sim::sampling_mode();
  advise::set_verify_enabled(true);
  sim::set_sampling_mode(sim::SamplingMode::kOff);
  struct Pin {
    const char* line;
    const char* request_key;
    const char* payload_key;
  };
  const Pin pins[] = {
      {R"({"type":"dense","platform":"knl-flat","kernel":"gemm"})",
       "38a739984c8f438ee1a02354545dd3a4", "ba16a28a6ea34a5d730b89598c059afb"},
      {R"({"type":"dense","platform":"broadwell-edram-on","kernel":"cholesky","n_lo":512,)"
       R"("n_hi":4096,"n_step":256.5})",
       "cd918ab619b7e4f6c4b248fb79b265d3", "fffac14f6ecc629bc714616ec4ca8425"},
      {R"({"type":"sparse","platform":"knl-cache","kernel":"spmv"})",
       "0da27505f4fff3b6f243f090b133b418", "295375c1e2a312a8561a8470957cfd46"},
      {R"({"type":"sparse","platform":"knl-hybrid","kernel":"sptrans","merge_based":true})",
       "96734291428bee063d67ef3a86ba7f0c", "41f8cbca36b22bca2dba638b3d0d1e73"},
      {R"({"type":"footprint","platform":"broadwell-edram-off","kernel":"stream"})",
       "c9fbca5cbc25734ba4820ec8a53edc9a", "cd3b5bf6d5930c59dca69b31f8885e2a"},
      {R"({"type":"footprint","platform":"knl-ddr","kernel":"fft","fp_lo":1048576,)"
       R"("fp_hi":1e10,"points":17})",
       "fa911f85fc87f9bbe677ef5fa2b225db", "7fdcbb2cf2c42b0133261ebd0431b620"},
      {R"({"type":"advise","platform":"knl-ddr","kernel":"spmv"})",
       "49e971de49e67f83da3ea141d3a1f067", "d4741cb438c0c2f9bf80c03862b2c553"},
      {R"({"type":"advise","platform":"broadwell-edram-off","kernel":"gemm","objective":"energy"})",
       "92430d80e5bcb2ee04c2c11dbbc4255e", "fed8cdb392f3d1eee50dd46a581db842"},
  };
  for (const Pin& pin : pins) {
    Request req;
    Error err;
    ASSERT_TRUE(serve::protocol::parse_request(pin.line, &req, &err)) << err.message;
    EXPECT_EQ(serve::protocol::request_key(req).hex(), pin.request_key) << pin.line;
    EXPECT_EQ(serve::protocol::payload_cache_key(req).hex(), pin.payload_key) << pin.line;
  }
  advise::set_verify_enabled(saved_verify);
  sim::set_sampling_mode(saved_sampling);
}

TEST(Protocol, ResponseEnvelopeRoundTrips) {
  const std::string line = serve::protocol::render_response(
      "id-1", RequestType::kDense, "x,y\n0x1p+1,0x1.8p+2\n");
  const auto doc = util::parse_json(line);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("id")->string, "id-1");
  EXPECT_TRUE(doc->find("ok")->boolean);
  EXPECT_EQ(doc->find("type")->string, "dense");
  EXPECT_EQ(doc->find("payload")->string, "x,y\n0x1p+1,0x1.8p+2\n");

  Error err;
  err.category = "overload";
  err.message = "queue \"full\"";
  err.retry_after_ms = 50;
  const auto edoc = util::parse_json(serve::protocol::render_error("id-2", err));
  ASSERT_TRUE(edoc.has_value());
  EXPECT_FALSE(edoc->find("ok")->boolean);
  EXPECT_EQ(edoc->find("error")->find("category")->string, "overload");
  EXPECT_EQ(edoc->find("error")->find("message")->string, "queue \"full\"");
  EXPECT_DOUBLE_EQ(edoc->find("error")->find("retry_after_ms")->number, 50.0);
}

TEST(Protocol, EveryErrorKindRoundTripsByteStably) {
  // One case per kind in the protocol.hpp taxonomy — the same closed set
  // the opm_analyze protocol pass checks against docs and handlers. Each
  // kind must survive render_error → parse_response → render_view with
  // byte-identical output under both envelope versions: the router
  // forwards backend errors through exactly this path, so any kind that
  // doesn't re-render stably would be corrupted in the sharded tier.
  struct Kind {
    const char* category;
    int retry_after_ms;
    int shard;
  };
  const Kind kinds[] = {
      {"parse", 0, -1},          {"bad-request", 0, -1},
      {"unsupported-version", 0, -1}, {"unsupported-key", 0, -1},
      {"oversized", 0, -1},      {"auth", 0, -1},
      {"overload", 25, -1},      {"draining", 40, -1},
      {"redirect", 0, 3},        {"internal", 0, -1},
  };
  for (int version : {1, 2}) {
    for (const auto& k : kinds) {
      Error err;
      err.category = k.category;
      err.message = std::string("synthetic \"") + k.category + "\" érror";
      err.retry_after_ms = k.retry_after_ms;
      err.shard = k.shard;
      serve::protocol::Envelope env;
      env.version = version;
      env.id = version == 2 ? "req-7" : "id-7";
      env.shard = version == 2 ? 2 : 0;
      const std::string wire = serve::protocol::render_error(env, err);

      serve::protocol::ResponseView view;
      ASSERT_TRUE(serve::protocol::parse_response(wire, &view)) << wire;
      EXPECT_FALSE(view.ok);
      EXPECT_EQ(view.version, version);
      EXPECT_EQ(view.error.category, k.category);
      EXPECT_EQ(view.error.message, err.message) << k.category;
      EXPECT_EQ(view.error.retry_after_ms, k.retry_after_ms);
      if (k.shard >= 0) {
        EXPECT_EQ(view.error.shard, k.shard);
      }

      EXPECT_EQ(serve::protocol::render_view(env, view), wire) << k.category;
    }
  }
}

TEST(Protocol, V2EnvelopeParsesAndRejectsCrossVersionSpellings) {
  // A v2 request: "v":2 plus "req_id"; everything else is unchanged.
  Request req;
  Error err;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"v":2,"req_id":"r9","type":"ping"})", &req, &err))
      << err.message;
  EXPECT_EQ(req.version, 2);
  EXPECT_EQ(req.id, "r9");

  // An omitted "v" means v1; "v":1 is the explicit spelling of the same.
  ASSERT_TRUE(serve::protocol::parse_request(R"({"v":1,"id":"r1","type":"ping"})", &req, &err))
      << err.message;
  EXPECT_EQ(req.version, 1);

  // The id spelling is tied to the version — mixing them is an error, so
  // a client cannot accidentally speak half of each protocol.
  EXPECT_FALSE(serve::protocol::parse_request(
      R"({"v":2,"id":"r2","type":"ping"})", &req, &err));
  EXPECT_EQ(err.category, "bad-request");
  EXPECT_FALSE(serve::protocol::parse_request(R"({"req_id":"r3","type":"ping"})", &req, &err));
  EXPECT_EQ(err.category, "bad-request");

  // Unknown versions get the dedicated category (so clients can
  // distinguish "talk older" from "your request is broken"), and the
  // error still echoes the recoverable envelope.
  EXPECT_FALSE(serve::protocol::parse_request(
      R"({"v":3,"req_id":"r4","type":"ping"})", &req, &err));
  EXPECT_EQ(err.category, "unsupported-version");
  EXPECT_FALSE(serve::protocol::parse_request(R"({"v":true,"type":"ping"})", &req, &err));
  EXPECT_EQ(err.category, "bad-request");  // not an integer at all
}

TEST(Protocol, V2SweepRequestKeyMatchesV1Twin) {
  // Version and id are envelope, not content: a v1 and a v2 client asking
  // the same question share one coalescing key (and thus one flight).
  Request v1, v2;
  Error err;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"id":"a","type":"sparse","platform":"knl-flat"})", &v1, &err));
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"v":2,"req_id":"b","type":"sparse","platform":"knl-flat"})", &v2, &err));
  EXPECT_EQ(serve::protocol::request_key(v1), serve::protocol::request_key(v2));
}

// ----------------------------------------------------------- single-flight --

TEST(SingleFlight, LeaderComputesFollowersShare) {
  core::SingleFlight flights;
  const util::Digest128 key{1, 2};
  bool leader = false;
  auto flight = flights.try_begin(key, &leader);
  ASSERT_TRUE(leader);

  constexpr int kFollowers = 4;
  std::vector<std::thread> threads;  // opm-lint: allow(thread-ownership) — raw threads ARE the fixture
  std::vector<core::SingleFlight::Payload> got(kFollowers);
  std::atomic<int> joined{0};
  for (int i = 0; i < kFollowers; ++i) {
    threads.emplace_back([&, i] {
      bool is_leader = true;
      auto f = flights.try_begin(key, &is_leader);
      EXPECT_FALSE(is_leader);
      joined.fetch_add(1);
      got[i] = flights.share(f);
    });
  }
  while (joined.load() < kFollowers) std::this_thread::yield();
  auto payload = std::make_shared<const std::string>("result");
  flights.complete(flight, payload);
  for (auto& t : threads) t.join();
  for (const auto& p : got) {
    ASSERT_TRUE(p != nullptr);
    EXPECT_EQ(p.get(), payload.get());  // shared, not copied
  }
  const auto stats = flights.stats();
  EXPECT_EQ(stats.flights, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kFollowers));
  EXPECT_EQ(flights.in_flight(), 0u);

  // The key is retired: the next identical request starts a fresh flight.
  bool again = false;
  auto f2 = flights.try_begin(key, &again);
  EXPECT_TRUE(again);
  flights.fail(f2);
}

TEST(SingleFlight, FailurePoisonsNobody) {
  core::SingleFlight flights;
  const util::Digest128 key{3, 4};
  bool leader = false;
  auto flight = flights.try_begin(key, &leader);
  ASSERT_TRUE(leader);
  bool follower_leader = true;
  auto follower = flights.try_begin(key, &follower_leader);
  ASSERT_FALSE(follower_leader);
  std::thread t(  // opm-lint: allow(thread-ownership) — raw thread is the fixture
      [&] { EXPECT_EQ(flights.share(follower), nullptr); });
  flights.fail(flight);
  t.join();
  EXPECT_EQ(flights.stats().failures, 1u);
  bool retry_leader = false;
  auto retry = flights.try_begin(key, &retry_leader);
  EXPECT_TRUE(retry_leader);
  flights.complete(retry, std::make_shared<const std::string>("ok"));
}

// -------------------------------------------------------------- dispatcher --

/// Every dispatcher/server test isolates the process-wide cache (memory
/// tier only, so nothing touches disk) and pins a small worker count.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_config_ = core::result_cache_config();
    saved_workers_ = core::sweep_workers();
    core::set_sweep_workers(2);
    core::CacheConfig cfg;
    cfg.enabled = true;
    cfg.disk = false;
    core::configure_result_cache(cfg);
    core::reset_result_cache_stats();
  }
  void TearDown() override {
    core::configure_result_cache(saved_config_);
    core::set_sweep_workers(saved_workers_);
  }

  static Request parse_ok(const std::string& line) {
    Request req;
    Error err;
    EXPECT_TRUE(serve::protocol::parse_request(line, &req, &err)) << line << ": " << err.message;
    return req;
  }

  core::CacheConfig saved_config_;
  std::size_t saved_workers_ = 0;
};

namespace collect {
struct Sink {
  std::mutex mutex;
  std::vector<std::string> lines;
  serve::Dispatcher::Respond respond() {
    return [this](std::string line) {
      std::lock_guard lock(mutex);
      lines.push_back(std::move(line));
    };
  }
};
}  // namespace collect

TEST_F(ServeTest, DispatcherAnswersPingAndStatsInline) {
  serve::Dispatcher dispatcher(serve::DispatchConfig{});
  collect::Sink sink;
  dispatcher.submit(1, parse_ok(R"({"type":"ping","id":"p"})"), sink.respond());
  dispatcher.submit(1, parse_ok(R"({"type":"stats","id":"s"})"), sink.respond());
  ASSERT_EQ(sink.lines.size(), 2u);  // answered before submit returned
  const auto pong = util::parse_json(sink.lines[0]);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->find("type")->string, "pong");
  const auto stats = util::parse_json(sink.lines[1]);
  ASSERT_TRUE(stats.has_value());
  ASSERT_NE(stats->find("stats"), nullptr);
  EXPECT_NE(stats->find("stats")->find("queued"), nullptr);
  EXPECT_NE(stats->find("stats")->find("serve"), nullptr);
  EXPECT_NE(stats->find("stats")->find("cache"), nullptr);
}

TEST_F(ServeTest, DispatcherCoalescesConcurrentDuplicates) {
  const std::string lines[] = {
      R"({"type":"footprint","platform":"broadwell-edram-on","kernel":"stream",)"
      R"("fp_lo":16384,"fp_hi":1048576,"points":16})",
      R"({"type":"footprint","platform":"knl-cache","kernel":"stencil",)"
      R"("fp_lo":16384,"fp_hi":1048576,"points":16})",
  };
  const std::string offline[] = {serve::protocol::execute(parse_ok(lines[0])),
                                 serve::protocol::execute(parse_ok(lines[1]))};
  core::reset_result_cache_stats();  // offline references warmed the cache
  core::CacheConfig cfg = core::result_cache_config();
  core::configure_result_cache(cfg);  // drop memory tier: duplicates start cold

  serve::DispatchConfig dc;
  dc.queue_depth = 256;
  dc.workers = 4;
  serve::Dispatcher dispatcher(dc);
  collect::Sink sink;
  constexpr int kCopies = 12;
  for (int i = 0; i < kCopies; ++i) {
    for (int u = 0; u < 2; ++u) {
      Request req = parse_ok(lines[u]);
      req.id = "dup-" + std::to_string(u) + "-" + std::to_string(i);
      dispatcher.submit(static_cast<std::uint64_t>(i % 4), std::move(req), sink.respond());
    }
  }
  dispatcher.drain();

  ASSERT_EQ(sink.lines.size(), 2u * kCopies);
  std::size_t matched[2] = {0, 0};
  for (const auto& line : sink.lines) {
    const auto doc = util::parse_json(line);
    ASSERT_TRUE(doc.has_value()) << line;
    ASSERT_TRUE(doc->find("ok")->boolean) << line;
    const std::string& payload = doc->find("payload")->string;
    if (payload == offline[0]) ++matched[0];
    else if (payload == offline[1]) ++matched[1];
  }
  // Byte-identity: every response is exactly one of the two offline payloads.
  EXPECT_EQ(matched[0], static_cast<std::size_t>(kCopies));
  EXPECT_EQ(matched[1], static_cast<std::size_t>(kCopies));
  // Deduplication: 24 served, at most 2 computed (coalesced or cache-hit).
  EXPECT_LE(core::result_cache_stats().misses, 2u);
}

/// Submits one request and blocks until the dispatcher answers it.
std::string ask(serve::Dispatcher& dispatcher, Request req) {
  std::promise<std::string> answered;
  std::future<std::string> line = answered.get_future();
  dispatcher.submit(1, std::move(req),
                    [&answered](std::string response) { answered.set_value(std::move(response)); });
  return line.get();
}

std::uint64_t serve_counter(const char* name) {
  return util::MetricsRegistry::instance().counter(name).value();
}

/// The offline reference line for `req`: protocol::execute under the
/// request's own envelope, escaped by the string render_response.
std::string reference_line(const Request& req) {
  return serve::protocol::render_response(serve::protocol::envelope_of(req), req.type,
                                          serve::protocol::execute(req));
}

TEST_F(ServeTest, CachedHitSplicesByteIdenticalPayloadInBothEnvelopes) {
  // An id that needs escaping in the envelope: q"1\ .
  const std::string lines[] = {
      R"({"type":"sparse","id":"q\"1\\","platform":"knl-flat","kernel":"sptrans",)"
      R"("merge_based":true})",
      R"({"v":2,"req_id":"q\"1\\","type":"footprint","platform":"knl-cache",)"
      R"("kernel":"fft","fp_lo":65536,"fp_hi":1073741824,"points":24})",
  };
  for (const std::string& line : lines) {
    const Request req = parse_ok(line);
    ASSERT_EQ(req.id, "q\"1\\");
    const std::string want = reference_line(req);
    core::configure_result_cache(core::result_cache_config());  // cold memory tier
    serve::Dispatcher dispatcher(serve::DispatchConfig{});
    const std::uint64_t computed0 = serve_counter("serve.computed");
    const std::uint64_t hits0 = serve_counter("serve.payload_hits");
    const std::size_t misses0 = core::result_cache_stats().misses;

    EXPECT_EQ(ask(dispatcher, req), want) << "cold answer, " << line;
    EXPECT_EQ(serve_counter("serve.computed"), computed0 + 1);
    EXPECT_EQ(core::result_cache_stats().misses, misses0 + 1);

    const std::size_t misses1 = core::result_cache_stats().misses;
    const std::size_t mem_hits1 = core::result_cache_stats().memory_hits;
    EXPECT_EQ(ask(dispatcher, req), want) << "cached answer, " << line;
    EXPECT_EQ(core::result_cache_stats().misses, misses1);  // a hit never misses
    EXPECT_EQ(core::result_cache_stats().memory_hits, mem_hits1 + 1);
    EXPECT_EQ(serve_counter("serve.payload_hits"), hits0 + 1);
    EXPECT_EQ(serve_counter("serve.computed"), computed0 + 1);  // hits are not computations
  }
}

TEST_F(ServeTest, CacheDisabledByConfigStillAnswersIdentically) {
  serve::Dispatcher dispatcher(serve::DispatchConfig{});
  const Request req = parse_ok(
      R"({"v":2,"req_id":"off","type":"dense","platform":"broadwell-edram-on",)"
      R"("kernel":"cholesky","n_lo":512,"n_hi":4096,"n_step":512,"nb_lo":128,)"
      R"("nb_hi":1024,"nb_step":128})");
  const std::string want = reference_line(req);
  const std::string off = ask(dispatcher, parse_ok(R"({"type":"config","cache_enabled":false})"));
  const auto applied = util::parse_json(off);
  ASSERT_TRUE(applied.has_value()) << off;
  ASSERT_EQ(applied->find("payload")->string, R"({"applied":{"cache_enabled":false}})");
  const std::uint64_t computed0 = serve_counter("serve.computed");
  const std::uint64_t hits0 = serve_counter("serve.payload_hits");
  EXPECT_EQ(ask(dispatcher, req), want);
  EXPECT_EQ(ask(dispatcher, req), want);
  EXPECT_EQ(serve_counter("serve.computed"), computed0 + 2);  // no cache, no hits
  EXPECT_EQ(serve_counter("serve.payload_hits"), hits0);
  ask(dispatcher, parse_ok(R"({"type":"config","cache_enabled":true})"));
  EXPECT_EQ(ask(dispatcher, req), want);
  EXPECT_EQ(ask(dispatcher, req), want);
  EXPECT_EQ(serve_counter("serve.payload_hits"), hits0 + 1);
}

TEST_F(ServeTest, DamagedWireRecordOnDiskDegradesToRecompute) {
  namespace fs = std::filesystem;
  core::CacheConfig cfg;
  cfg.enabled = true;
  cfg.disk = true;
  cfg.dir = ::testing::TempDir() + "opm_serve_wire_" + std::to_string(::getpid());
  fs::remove_all(cfg.dir);
  core::configure_result_cache(cfg);

  const Request req = parse_ok(
      R"({"id":"w","type":"footprint","platform":"knl-hybrid","kernel":"stencil",)"
      R"("fp_lo":1048576,"fp_hi":4294967296,"points":40})");
  const std::string want = reference_line(req);
  const fs::path record =
      fs::path(cfg.dir) /
      (serve::protocol::payload_cache_key(req).hex() + ".opmrec");
  serve::Dispatcher dispatcher(serve::DispatchConfig{});
  ASSERT_EQ(ask(dispatcher, req), want);
  ASSERT_TRUE(fs::exists(record));
  const auto full = fs::file_size(record);

  // Each damage is read by a process whose memory tier is cold.
  const auto answer_cold = [&] {
    core::ResultCache::instance().clear_memory();
    return ask(dispatcher, req);
  };
  const std::size_t corrupt0 = core::result_cache_stats().corrupt_records;
  const std::uint64_t computed0 = serve_counter("serve.computed");

  fs::resize_file(record, full / 2);  // truncated mid-payload
  EXPECT_EQ(answer_cold(), want);
  EXPECT_EQ(core::result_cache_stats().corrupt_records, corrupt0 + 1);
  EXPECT_EQ(serve_counter("serve.computed"), computed0 + 1);
  ASSERT_EQ(fs::file_size(record), full);  // the recompute rewrote it

  {  // same length, one payload byte flipped: the checksum catches it
    std::fstream f(record, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(full - 3));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(full - 3));
    f.put(static_cast<char>(c ^ 0x01));
  }
  EXPECT_EQ(answer_cold(), want);
  EXPECT_EQ(core::result_cache_stats().corrupt_records, corrupt0 + 2);
  EXPECT_EQ(serve_counter("serve.computed"), computed0 + 2);

  fs::resize_file(record, 10);  // shorter than a record header
  EXPECT_EQ(answer_cold(), want);
  EXPECT_EQ(core::result_cache_stats().corrupt_records, corrupt0 + 3);

  // The rewritten record serves a clean disk hit.
  const std::size_t disk_hits0 = core::result_cache_stats().disk_hits;
  EXPECT_EQ(answer_cold(), want);
  EXPECT_EQ(core::result_cache_stats().disk_hits, disk_hits0 + 1);
  EXPECT_EQ(serve_counter("serve.computed"), computed0 + 3);
  fs::remove_all(cfg.dir);
}

TEST_F(ServeTest, DispatcherRejectsOnOverloadWithRetryHint) {
  serve::DispatchConfig dc;
  dc.queue_depth = 1;
  dc.workers = 1;
  dc.retry_after_ms = 25;
  serve::Dispatcher dispatcher(dc);
  // Big enough that the burst below lands while the worker is busy.
  const std::string heavy =
      R"({"type":"dense","platform":"knl-flat","kernel":"gemm",)"
      R"("n_lo":256,"n_hi":4096,"n_step":64,"nb_lo":128,"nb_hi":2048,"nb_step":64})";
  collect::Sink sink;
  constexpr int kBurst = 6;
  for (int i = 0; i < kBurst; ++i) {
    Request req = parse_ok(heavy);
    req.id = "b" + std::to_string(i);
    dispatcher.submit(7, std::move(req), sink.respond());
  }
  dispatcher.drain();
  ASSERT_EQ(sink.lines.size(), static_cast<std::size_t>(kBurst));  // all answered exactly once
  int ok = 0, overload = 0;
  for (const auto& line : sink.lines) {
    const auto doc = util::parse_json(line);
    ASSERT_TRUE(doc.has_value());
    if (doc->find("ok")->boolean) {
      ++ok;
      continue;
    }
    const util::JsonValue* err = doc->find("error");
    ASSERT_NE(err, nullptr) << line;
    EXPECT_EQ(err->find("category")->string, "overload");
    EXPECT_DOUBLE_EQ(err->find("retry_after_ms")->number, 25.0);
    ++overload;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(overload, 1);
}

TEST_F(ServeTest, DispatcherRejectsWhileDraining) {
  serve::Dispatcher dispatcher(serve::DispatchConfig{});
  dispatcher.drain();
  collect::Sink sink;
  dispatcher.submit(
      1, parse_ok(R"({"type":"footprint","platform":"knl-ddr","kernel":"stream"})"),
      sink.respond());
  ASSERT_EQ(sink.lines.size(), 1u);
  const auto doc = util::parse_json(sink.lines[0]);
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->find("ok")->boolean);
  EXPECT_EQ(doc->find("error")->find("category")->string, "draining");
  EXPECT_GT(doc->find("error")->find("retry_after_ms")->number, 0.0);
  // Control plane stays alive while draining.
  dispatcher.submit(1, parse_ok(R"({"type":"ping"})"), sink.respond());
  EXPECT_EQ(sink.lines.size(), 2u);
}

// ------------------------------------------------------------------ server --

/// Minimal blocking client with a poll() timeout so a server bug can
/// never hang the suite.
struct TestClient {
  int fd = -1;
  std::string buf;

  bool connect_to(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  bool send_line(std::string line) {
    line.push_back('\n');
    const char* p = line.data();
    std::size_t left = line.size();
    while (left > 0) {
      const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
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
      if (n <= 0) return false;  // EOF / error
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True once the server closes its side (EOF), within the timeout.
  bool wait_eof(int timeout_ms = 30000) {
    std::string line;
    while (recv_line(&line, timeout_ms)) {
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char c;
    return ::read(fd, &c, 1) == 0;
  }

  void close_conn() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  ~TestClient() { close_conn(); }
};

std::string test_socket_path(const char* tag) {
  return std::string("test-serve-") + tag + "-" + std::to_string(::getpid()) + ".sock";
}

TEST_F(ServeTest, ServerAnswersOverUnixSocket) {
  serve::ServerConfig sc;
  sc.socket_path = test_socket_path("basic");
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.connect_to(sc.socket_path));

  // A sweep request, byte-identical to the offline library output.
  const std::string line =
      R"({"id":"q1","type":"footprint","platform":"knl-hybrid","kernel":"fft",)"
      R"("fp_lo":16384,"fp_hi":1048576,"points":12})";
  ASSERT_TRUE(client.send_line(line));
  std::string response;
  ASSERT_TRUE(client.recv_line(&response));
  const auto doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("id")->string, "q1");
  ASSERT_TRUE(doc->find("ok")->boolean) << response;
  EXPECT_EQ(doc->find("payload")->string, serve::protocol::execute(parse_ok(line)));

  // Malformed JSON gets a structured parse error; the connection survives.
  ASSERT_TRUE(client.send_line("{broken"));
  ASSERT_TRUE(client.recv_line(&response));
  const auto err1 = util::parse_json(response);
  ASSERT_TRUE(err1.has_value());
  EXPECT_FALSE(err1->find("ok")->boolean);
  EXPECT_EQ(err1->find("error")->find("category")->string, "parse");

  // Out-of-range fields: structured bad-request, connection still fine.
  ASSERT_TRUE(client.send_line(
      R"({"id":"q2","type":"footprint","platform":"knl-ddr","points":0})"));
  ASSERT_TRUE(client.recv_line(&response));
  const auto err2 = util::parse_json(response);
  ASSERT_TRUE(err2.has_value());
  EXPECT_EQ(err2->find("id")->string, "q2");
  EXPECT_EQ(err2->find("error")->find("category")->string, "bad-request");

  // Ping and stats round-trip on the same connection.
  ASSERT_TRUE(client.send_line(R"({"id":"p1","type":"ping"})"));
  ASSERT_TRUE(client.recv_line(&response));
  EXPECT_NE(response.find("\"pong\""), std::string::npos);
  ASSERT_TRUE(client.send_line(R"({"id":"s1","type":"stats"})"));
  ASSERT_TRUE(client.recv_line(&response));
  const auto stats = util::parse_json(response);
  ASSERT_TRUE(stats.has_value());
  ASSERT_NE(stats->find("stats"), nullptr);
  EXPECT_GE(stats->find("stats")->find("serve")->find("serve.responses")->number, 1.0);

  client.close_conn();
  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, TcpListenerGatesConnectionsBehindHelloToken) {
  serve::ServerConfig sc;
  sc.listen_address = "127.0.0.1:0";  // ephemeral port, read back below
  sc.auth_token = "sekrit";
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_GT(server.bound_port(), 0);
  const std::string address = "127.0.0.1:" + std::to_string(server.bound_port());

  auto tcp_connect = [&](TestClient* client) {
    util::SocketAddress addr;
    std::string perr;
    ASSERT_TRUE(util::parse_address(address, &addr, &perr)) << perr;
    client->fd = util::connect_to(addr, &perr);
    ASSERT_GE(client->fd, 0) << perr;
  };

  // A request before hello: structured auth error, then the server hangs
  // up (an unauthenticated peer gets exactly one line of attention).
  {
    TestClient client;
    tcp_connect(&client);
    ASSERT_TRUE(client.send_line(R"({"id":"sneak","type":"ping"})"));
    std::string response;
    ASSERT_TRUE(client.recv_line(&response));
    const auto doc = util::parse_json(response);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("error")->find("category")->string, "auth");
    EXPECT_TRUE(client.wait_eof());
  }

  // A wrong token is the same story.
  {
    TestClient client;
    tcp_connect(&client);
    ASSERT_TRUE(client.send_line(R"({"v":2,"req_id":"h","type":"hello","token":"wrong"})"));
    std::string response;
    ASSERT_TRUE(client.recv_line(&response));
    EXPECT_NE(response.find("\"auth\""), std::string::npos);
    EXPECT_TRUE(client.wait_eof());
  }

  // The right token unlocks the connection for real work.
  {
    TestClient client;
    tcp_connect(&client);
    ASSERT_TRUE(client.send_line(R"({"v":2,"req_id":"h","type":"hello","token":"sekrit"})"));
    std::string response;
    ASSERT_TRUE(client.recv_line(&response));
    const auto hello = util::parse_json(response);
    ASSERT_TRUE(hello.has_value());
    EXPECT_TRUE(hello->find("ok")->boolean) << response;

    const std::string line =
        R"({"v":2,"req_id":"q","type":"footprint","platform":"knl-ddr","kernel":"stream",)"
        R"("fp_lo":16384,"fp_hi":262144,"points":6})";
    ASSERT_TRUE(client.send_line(line));
    ASSERT_TRUE(client.recv_line(&response));
    const auto doc = util::parse_json(response);
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->find("ok")->boolean) << response;
    EXPECT_EQ(doc->find("payload")->string, serve::protocol::execute(parse_ok(line)));
  }

  EXPECT_GE(util::MetricsRegistry::instance().counter("serve.rejected_auth").value(), 2u);
  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, ServerClosesConnectionOnOversizedLine) {
  serve::ServerConfig sc;
  sc.socket_path = test_socket_path("oversized");
  sc.max_line_bytes = 128;
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.connect_to(sc.socket_path));
  ASSERT_TRUE(client.send_line(std::string(4096, 'x')));
  std::string response;
  ASSERT_TRUE(client.recv_line(&response));
  const auto doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("error")->find("category")->string, "oversized");
  // Framing is lost, so the server hangs up after the error.
  std::string extra;
  EXPECT_FALSE(client.recv_line(&extra, 5000));

  // The server itself is unharmed: a new connection works.
  TestClient fresh;
  ASSERT_TRUE(fresh.connect_to(sc.socket_path));
  ASSERT_TRUE(fresh.send_line(R"({"type":"ping"})"));
  ASSERT_TRUE(fresh.recv_line(&response));
  EXPECT_NE(response.find("\"pong\""), std::string::npos);

  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, ServerSurvivesMidRequestDisconnect) {
  serve::ServerConfig sc;
  sc.socket_path = test_socket_path("disconnect");
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  {
    TestClient ghost;
    ASSERT_TRUE(ghost.connect_to(sc.socket_path));
    ASSERT_TRUE(ghost.send_line(
        R"({"id":"ghost","type":"sparse","platform":"knl-flat","kernel":"spmv"})"));
    ghost.close_conn();  // gone before the response could be written
  }
  {
    TestClient ghost2;  // and one that dies mid-line, without the newline
    ASSERT_TRUE(ghost2.connect_to(sc.socket_path));
    ASSERT_TRUE(ghost2.send_line(R"({"id":"gho)"));
    ghost2.close_conn();
  }

  TestClient client;
  ASSERT_TRUE(client.connect_to(sc.socket_path));
  ASSERT_TRUE(client.send_line(
      R"({"id":"ok","type":"footprint","platform":"knl-ddr","kernel":"stream","points":8})"));
  std::string response;
  ASSERT_TRUE(client.recv_line(&response));
  const auto doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->find("ok")->boolean) << response;

  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, GracefulDrainAnswersAdmittedWorkAndUnlinksSocket) {
  serve::ServerConfig sc;
  sc.socket_path = test_socket_path("drain");
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto& admitted = util::MetricsRegistry::instance().counter("serve.admitted");
  const std::uint64_t admitted_before = admitted.value();

  TestClient client;
  ASSERT_TRUE(client.connect_to(sc.socket_path));
  const std::string line =
      R"({"id":"w1","type":"dense","platform":"broadwell-edram-on","kernel":"gemm",)"
      R"("n_lo":256,"n_hi":2048,"n_step":256,"nb_lo":128,"nb_hi":1024,"nb_step":128})";
  ASSERT_TRUE(client.send_line(line));
  // Drain-after-admission is the contract under test; wait until the
  // server has actually admitted the request (it shares our process, so
  // the registry is authoritative), else the drain can beat the accept.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (admitted.value() == admitted_before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_GT(admitted.value(), admitted_before);

  server.request_drain();  // the SIGTERM handler does exactly this
  server.wait();

  // The admitted request was answered before the drain completed.
  std::string response;
  ASSERT_TRUE(client.recv_line(&response));
  const auto doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->find("ok")->boolean) << response;
  EXPECT_EQ(doc->find("payload")->string, serve::protocol::execute(parse_ok(line)));

  // No orphaned socket file, and nobody is listening anymore.
  struct stat st{};
  EXPECT_NE(::stat(sc.socket_path.c_str(), &st), 0);
  TestClient late;
  EXPECT_FALSE(late.connect_to(sc.socket_path));
}

TEST_F(ServeTest, ConcurrentClientsCoalesceToByteIdenticalResponses) {
  serve::ServerConfig sc;
  sc.socket_path = test_socket_path("coalesce");
  sc.dispatch.workers = 4;
  sc.dispatch.queue_depth = 256;
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::string uniques[] = {
      R"({"type":"footprint","platform":"broadwell-edram-off","kernel":"stream",)"
      R"("fp_lo":16384,"fp_hi":1048576,"points":16})",
      R"({"type":"footprint","platform":"knl-flat","kernel":"stencil",)"
      R"("fp_lo":16384,"fp_hi":1048576,"points":16})",
  };
  const std::string offline[] = {serve::protocol::execute(parse_ok(uniques[0])),
                                 serve::protocol::execute(parse_ok(uniques[1]))};
  core::reset_result_cache_stats();
  core::configure_result_cache(core::result_cache_config());  // duplicates start cold

  constexpr int kClients = 8;
  constexpr int kPerClient = 4;  // duplicate-heavy: 32 requests, 2 unique
  std::atomic<int> ok_count{0}, mismatch_count{0}, fail_count{0};
  std::vector<std::thread> threads;  // opm-lint: allow(thread-ownership) — raw threads ARE the fixture
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client;
      if (!client.connect_to(sc.socket_path)) {
        fail_count.fetch_add(kPerClient);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const int u = (c + i) % 2;
        std::string line = uniques[u];
        line.insert(1, "\"id\":\"c" + std::to_string(c) + "r" + std::to_string(i) + "\",");
        std::string response;
        if (!client.send_line(line) || !client.recv_line(&response)) {
          fail_count.fetch_add(1);
          continue;
        }
        const auto doc = util::parse_json(response);
        const util::JsonValue* payload = doc ? doc->find("payload") : nullptr;
        if (!payload || !payload->is_string()) {
          fail_count.fetch_add(1);
        } else if (payload->string == offline[u]) {
          ok_count.fetch_add(1);
        } else {
          mismatch_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  server.request_drain();
  server.wait();

  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  EXPECT_EQ(mismatch_count.load(), 0);
  EXPECT_EQ(fail_count.load(), 0);
  // 32 duplicate-heavy requests; at most the 2 uniques were ever computed.
  EXPECT_LE(core::result_cache_stats().misses, 2u);
}

TEST_F(ServeTest, ServeStreamDrivesStdioModeOverPipes) {
  int to_server[2], from_server[2];
  ASSERT_EQ(::pipe(to_server), 0);
  ASSERT_EQ(::pipe(from_server), 0);

  serve::ServerConfig sc;
  sc.socket_path = test_socket_path("stdio");  // unused: no listener started
  serve::Server server(sc);
  std::thread service([&] {  // opm-lint: allow(thread-ownership) — stream-mode server needs its own thread
    server.serve_stream(to_server[0], from_server[1]);
    ::close(from_server[1]);  // EOF for our reader below
  });

  const std::string line =
      R"({"id":"s1","type":"footprint","platform":"broadwell-edram-on","kernel":"stream",)"
      R"("fp_lo":16384,"fp_hi":262144,"points":8})";
  std::string input = line + "\n" + "{bad json\n" + line + "\n";
  ASSERT_EQ(::write(to_server[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::close(to_server[1]);  // EOF: serve_stream answers everything, then returns

  std::string output;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(from_server[0], chunk, sizeof chunk)) > 0)
    output.append(chunk, static_cast<std::size_t>(n));
  service.join();
  ::close(to_server[0]);
  ::close(from_server[0]);

  std::vector<std::string> lines;
  std::size_t start = 0, pos;
  while ((pos = output.find('\n', start)) != std::string::npos) {
    lines.push_back(output.substr(start, pos - start));
    start = pos + 1;
  }
  ASSERT_EQ(lines.size(), 3u) << output;
  const std::string expected = serve::protocol::execute(parse_ok(line));
  int good = 0, parse_errors = 0;
  for (const auto& l : lines) {
    const auto doc = util::parse_json(l);
    ASSERT_TRUE(doc.has_value()) << l;
    if (doc->find("ok")->boolean) {
      EXPECT_EQ(doc->find("payload")->string, expected);
      ++good;
    } else {
      EXPECT_EQ(doc->find("error")->find("category")->string, "parse");
      ++parse_errors;
    }
  }
  EXPECT_EQ(good, 2);
  EXPECT_EQ(parse_errors, 1);
}

}  // namespace
