// serve-hot: open-loop load on one opm_serve.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "client.hpp"
#include "core/sweep.hpp"
#include "core/sweep_config.hpp"
#include "gen.hpp"
#include "proc.hpp"
#include "serve/protocol.hpp"
#include "sparse/collection.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace opmbench {
namespace {

namespace protocol = opm::serve::protocol;

/// Fixed open-loop rate (requests/s), also recorded in BENCHMARK.json: at
/// most half of max_rps on the 4-core reference host in its slow periods,
/// so latency is measured below saturation.
constexpr double kRate = 600.0;
constexpr std::size_t kQueueDepth = 1024;
constexpr std::size_t kUniverse = 96;   ///< serve-hot keys
/// serve-hot zipf cycle: a deck of 503 requests, so one serial pass is a
/// cycle and two cycles make an open chunk of at least kOpenChunk.
constexpr std::size_t kHotCycle = 505;
constexpr int kSetups = 5;
constexpr std::size_t kConnections = 4;
constexpr double kClosedChunkS = 0.4;
/// Open-loop requests per round: enough for a steady per-round median.
constexpr std::size_t kOpenChunk = 1000;
/// Closed-loop requests generated per second of a chunk: well above
/// max_rps, so a chunk ends on time, not on running out of requests.
constexpr double kClosedRps = 8000.0;
constexpr double kMaxLagP99Ms = 10.0;  ///< generator validity: p99 send lateness
constexpr int kPings = 50;

/// One round of the measured phase. Rounds interleave the three load
/// shapes, so each metric samples the whole run rather than one stretch
/// of it.
struct Round {
  std::vector<GenRequest> serial;  ///< one at a time
  std::vector<GenRequest> closed;  ///< closed loop, kClosedChunkS
  std::vector<GenRequest> open;    ///< open loop at the fixed rate
};

struct Workload {
  std::vector<GenRequest> warmup;
  std::vector<Round> rounds;
  std::vector<GenRequest> replay;  ///< traced offline replay (not sent)
};

/// One round per two seconds of --seconds, at least three. The traced run
/// makes five: an untraced first one that warms the connections and the
/// server, then four that trace every other open-loop chunk and make their
/// serial pass twice, traced and untraced (for trace.overhead_pct). It
/// spends the rest of its time on the layer probes.
int round_count(const Options& opt) { return opt.trace ? 5 : std::max(3, opt.seconds / 2); }

Workload make_workload(const Options& opt) {
  Workload w;
  const auto rounds = static_cast<std::size_t>(round_count(opt));
  const auto closed_n = static_cast<std::size_t>(std::ceil(kClosedChunkS * kClosedRps));
  // Whole zipf cycles only, so every phase has the same key mix on every
  // seed. The serial pass replays the first cycle every round.
  const std::vector<GenRequest> universe = hot_universe(opt.seed, kUniverse);
  const std::size_t cycle = zipf_deck(kUniverse, 1.0, kHotCycle).size();
  const auto cycles = [&](std::size_t n) { return (n + cycle - 1) / cycle * cycle; };
  const std::size_t closed_len = cycles(closed_n), open_len = cycles(kOpenChunk);
  const std::vector<std::size_t> seq = zipf_sequence(
      opt.seed, kUniverse, 1.0, kHotCycle, cycle + rounds * (closed_len + open_len));
  std::size_t next = 0;
  auto take = [&](std::size_t n) {
    std::vector<GenRequest> out;
    for (std::size_t i = next; i < next + n; ++i) out.push_back(universe[seq[i]]);
    next += n;
    return out;
  };
  const std::vector<GenRequest> serial = take(cycle);
  for (std::size_t r = 0; r < rounds; ++r) {
    Round round{serial, take(closed_len), {}};
    round.open = take(open_len);
    w.rounds.push_back(std::move(round));
  }
  // Warm up in a fixed order (not rank order), so the server's caches and
  // heap are filled the same way whatever the seed.
  w.warmup = universe;
  std::sort(w.warmup.begin(), w.warmup.end(),
            [](const GenRequest& a, const GenRequest& b) { return a.body < b.body; });
  w.replay = universe;
  return w;
}

protocol::Request parse_generated(const GenRequest& g) {
  protocol::Request req;
  protocol::Error err;
  if (!protocol::parse_request(wire_line(g, 1), &req, &err))
    throw std::runtime_error("generated request rejected: " + err.message + ": " + g.body);
  return req;
}

/// The reference answer for every distinct request, from the offline
/// library path (protocol::execute), computed before any timing starts.
/// Runs on this thread plus three helpers (the load process stays within
/// four threads).
std::map<std::string, Expected> references(const std::vector<const GenRequest*>& reqs) {
  std::map<std::string, Expected> out;
  std::vector<const GenRequest*> todo;
  for (const GenRequest* g : reqs)
    if (out.emplace(g->body, Expected{}).second) todo.push_back(g);
  std::vector<Expected> results(todo.size());
  std::atomic<std::size_t> next{0};
  std::exception_ptr failure;
  std::atomic<bool> failed{false};
  auto work = [&] {
    try {
      for (std::size_t i = next++; i < todo.size() && !failed; i = next++) {
        const protocol::Request req = parse_generated(*todo[i]);
        const std::string line = protocol::render_response(protocol::envelope_of(req, 0),
                                                           req.type, protocol::execute(req));
        results[i] = {todo[i]->type, payload_tail_digest(line)};
      }
    } catch (...) {
      if (!failed.exchange(true)) failure = std::current_exception();
    }
  };
  std::vector<std::thread> helpers;
  for (int t = 0; t < 3; ++t) helpers.emplace_back(work);
  work();
  for (std::thread& t : helpers) t.join();
  if (failure) std::rethrow_exception(failure);
  for (std::size_t i = 0; i < todo.size(); ++i) out[todo[i]->body] = results[i];
  return out;
}

/// One opm_serve process: fresh cache directory, --serve-workers=2.
struct Server {
  std::unique_ptr<Child> proc;
  std::string address;

  /// Graceful drain; the server must exit 0.
  void stop(Result& res) {
    if (proc && !proc->stop().ok()) res.problems.push_back("the server did not drain cleanly on SIGTERM");
    proc.reset();
  }
};

Server start_server(const Options& opt, int tag) {
  const std::string t = std::to_string(tag);
  Server server;
  server.address = "unix:s" + t + ".sock";
  server.proc = std::make_unique<Child>(
      std::vector<std::string>{opt.bin_dir + "/serve/opm_serve", "--listen=" + server.address,
                               "--serve-workers=2",
                               // Deep enough that a host stall queues the open
                               // loop's requests instead of rejecting them.
                               "--queue-depth=" + std::to_string(kQueueDepth),
                               "--cache-dir=cache-" + t,
                               // Serve-sized sweeps run inline on the
                               // dispatcher worker (no pool hand-off).
                               "--sweep-workers=0", "--no-sweep-stats"},
      "/dev/null", "server" + t + ".log");
  if (!wait_ready(server.address, 30.0))
    throw std::runtime_error("opm_serve did not answer ping on " + server.address);
  return server;
}

/// Flattened numeric members of every counter group in a server's stats.
std::map<std::string, double> server_stats(const std::string& addr) {
  LoadClient client(addr, 1);
  const std::string line =
      client.roundtrip("{\"v\":2,\"req_id\":\"7\",\"type\":\"stats\"}\n", 7);
  const std::optional<opm::util::JsonValue> doc = opm::util::parse_json(line);
  const opm::util::JsonValue* stats = doc ? doc->find("stats") : nullptr;
  if (!stats) throw std::runtime_error("malformed stats response from " + addr);
  std::map<std::string, double> out;
  for (const auto& [group, value] : stats->members)
    for (const auto& [name, v] : value.members)
      if (v.is_number()) out[name] = v.number;
  return out;
}

/// Request lines, ids and expected answers of one phase.
struct Batch {
  std::vector<std::string> lines;
  std::uint64_t first_id = 0;
  std::vector<const Expected*> expected;
};

class Ids {
 public:
  Batch batch(const std::vector<GenRequest>& reqs, const std::map<std::string, Expected>& refs) {
    Batch b;
    b.first_id = next_;
    for (const GenRequest& g : reqs) {
      b.lines.push_back(wire_line(g, next_++));
      b.expected.push_back(&refs.at(g.body));
    }
    return b;
  }

 private:
  std::uint64_t next_ = 1000;
};

void count(Result& res, const Phase& ph) {
  res.attempted += ph.sent;
  res.failed += ph.failed();
  if (ph.failed() && res.problems.size() < 8)
    res.problems.push_back(std::to_string(ph.failed()) +
                           " responses were missing, rejected, or differ from the offline bytes");
}

struct Setup {
  double cpu_s = 0.0;   ///< the server's CPU time from launch to the end of the warm-up
  double wall_s = 0.0;  ///< launch to the end of the warm-up
};

/// Launch, ping-ready, one warm-up pass.
Setup setup_once(const Options& opt, const Workload& w, const std::map<std::string, Expected>& refs,
                 Ids& ids, int tag, Server* server, Result& res) {
  const double t0 = mono_s();
  *server = start_server(opt, tag);
  LoadClient client(server->address, kConnections);
  const Batch b = ids.batch(w.warmup, refs);
  count(res, client.closed_loop(b.lines, b.first_id, b.expected, 1e9));
  return {server->proc->cpu_s(), mono_s() - t0};
}

double median_of(std::vector<double> v) { return v.empty() ? 0.0 : opm::util::median(v); }

/// {"name":[v, ...], ...} for the result file.
std::string json_rounds(
    const std::vector<std::pair<std::string, const std::vector<double>*>>& series) {
  std::string out = "{";
  for (const auto& [name, values] : series)
    out += (out.size() > 1 ? ",\"" : "\"") + name + "\":" + json_numbers(*values);
  return out + '}';
}

double delta(const std::map<std::string, double>& a, const std::map<std::string, double>& b,
             const std::string& key) {
  const auto ia = a.find(key), ib = b.find(key);
  return (ib == b.end() ? 0.0 : ib->second) - (ia == a.end() ? 0.0 : ia->second);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median round trip, in seconds, of one request (its JSON members after
/// the envelope) sent kPings times to `addr`; each answer must be ok.
double median_rtt(const std::string& addr, const std::string& body) {
  LoadClient client(addr, 1);
  std::vector<double> rtt;
  for (int i = 1; i <= kPings; ++i) {
    const double t0 = client.now();
    const std::string line = client.roundtrip(
        wire_line({"", body}, static_cast<std::uint64_t>(i)), static_cast<std::uint64_t>(i));
    rtt.push_back(client.now() - t0);
    if (line.find("\"ok\":true") == std::string::npos)
      throw std::runtime_error("probe request failed on " + addr + ": " + line.substr(0, 200));
  }
  return opm::util::median(rtt);
}

/// Records each answered request as a client.request span under `parent`,
/// with the generator's lateness as a gen.lag child.
void trace_phase(Tracer& tr, const Phase& ph, const Batch& b, const LoadClient& client,
                 int parent) {
  const double shift = tr.now() - client.now();
  for (std::size_t i = 0; i < ph.sent; ++i) {
    const Outcome& o = ph.outcomes[i];
    if (!o.answered) continue;
    const std::uint64_t id = b.first_id + i;
    const int span = tr.add("client.request", o.due + shift, o.recv + shift, parent, id);
    if (o.sent > o.due) tr.add("gen.lag", o.due + shift, o.sent + shift, span, id);
  }
}

struct ReplayTally {
  std::vector<double> parse_s, render_s, envelope_s, advise_s;
  double render_bytes = 0.0;
};

/// The offline library path on the workload's own requests, one bracket
/// per layer call: protocol::parse_request, the core sweep or the advisor,
/// protocol::render_points_csv, protocol::render_response. Run first in
/// the process with the result cache off, so the sweeps and the advisor
/// (its per-process probe simulations included) are timed on a miss, as a
/// server computes a request it has not seen.
ReplayTally replay(Tracer& tr, const std::vector<GenRequest>& reqs) {
  apply_offline_config(false);
  protocol::serve_suite();  // built once per process, outside the brackets
  ReplayTally t;
  std::uint64_t id = 1;
  for (const GenRequest& g : reqs) {
    const std::string line = wire_line(g, id);
    protocol::Request req;
    protocol::Error err;
    double t0 = mono_s();
    {
      Scope s(tr, "protocol.parse", id);
      if (!protocol::parse_request(line, &req, &err)) throw std::runtime_error(err.message);
    }
    t.parse_s.push_back(mono_s() - t0);
    std::string payload;
    if (req.type == protocol::RequestType::kAdvise) {
      t0 = mono_s();
      Scope s(tr, "advise.run", id);
      payload = opm::advise::run_and_render(req.advise);
      t.advise_s.push_back(mono_s() - t0);
    } else {
      std::vector<opm::core::SweepPoint> points;
      {
        Scope s(tr, "core.sweep", id);
        if (req.type == protocol::RequestType::kDense)
          points = opm::core::sweep_dense(req.platform, req.dense);
        else if (req.type == protocol::RequestType::kSparse)
          points = opm::core::sweep_sparse(req.platform, req.sparse, protocol::serve_suite());
        else
          points = opm::core::sweep_footprint_kernel(req.platform, req.footprint);
      }
      t0 = mono_s();
      {
        Scope s(tr, "protocol.render_points", id);
        payload = protocol::render_points_csv(points);
      }
      t.render_s.push_back(mono_s() - t0);
      t.render_bytes += static_cast<double>(payload.size());
    }
    t0 = mono_s();
    {
      Scope s(tr, "protocol.envelope", id);
      const std::string out = protocol::render_response(protocol::envelope_of(req, 0), req.type, payload);
      if (out.empty()) throw std::runtime_error("empty response rendering");
    }
    t.envelope_s.push_back(mono_s() - t0);
    ++id;
  }
  return t;
}

}  // namespace

Result run_serve(const Options& opt, Tracer& tr) {
  Result res;
  const Workload w = make_workload(opt);
  const int root = tr.begin("run");

  double suite_ms = 0.0;
  if (opt.trace) {
    const double t0 = mono_s();
    Scope s(tr, "sparse.suite_build");
    const opm::sparse::SyntheticCollection suite = opm::sparse::SyntheticCollection::paper_suite();
    suite_ms = 1000.0 * (mono_s() - t0);
    if (suite.size() == 0) throw std::runtime_error("the paper suite is empty");
  }

  ReplayTally rt;
  if (opt.trace) {
    Scope s(tr, "offline.replay");
    rt = replay(tr, w.replay);
  }

  // The references use a memory-only result cache: the advisor's
  // sub-results are reused, as on a live server. Traced runs send no
  // closed-loop chunks (see below).
  apply_offline_config(true);
  std::vector<const GenRequest*> all;
  for (const GenRequest& g : w.warmup) all.push_back(&g);
  for (const Round& r : w.rounds)
    for (const auto* list : {&r.serial, &r.closed, &r.open})
      if (!(opt.trace && list == &r.closed))
        for (const GenRequest& g : *list) all.push_back(&g);
  std::map<std::string, Expected> refs;
  {
    Scope s(tr, "offline.references");
    refs = references(all);
  }

  Ids ids;
  Server server;
  std::vector<double> setup_cpu, setup_wall;
  const int setups_wanted = opt.trace ? 1 : kSetups;
  for (int k = 0; k < setups_wanted; ++k) {
    if (k > 0) server.stop(res);
    Scope s(tr, "setup");
    const Setup one = setup_once(opt, w, refs, ids, k, &server, res);
    setup_cpu.push_back(one.cpu_s);
    setup_wall.push_back(one.wall_s);
  }

  LoadClient client(server.address, kConnections);
  const std::function<double()> server_cpu = [&] { return server.proc->cpu_s(); };
  // The counters of a server that has done only its warm-up pass.
  const std::map<std::string, double> before = server_stats(server.address);

  // Each round: a serial pass (one request at a time: the unloaded latency
  // of the same kind of sequence the open loop sends), a closed-loop chunk
  // (max_rps), an open-loop chunk at the fixed rate (latency). The traced
  // run skips the closed loop.
  std::vector<double> pass_s, pass_cpu, op_cpu_ms, serial_lat, chunk_rps, chunk_cpu_us, lat, lag,
      round_p50;
  std::vector<double> untraced_pass_s, traced_pass_s;
  std::size_t backlog = 0, open_bytes = 0, open_answered = 0;
  std::vector<std::string> kept;
  for (std::size_t r = 0; r < w.rounds.size(); ++r) {
    const Round& round = w.rounds[r];
    const bool traced = opt.trace && r % 2 == 1;
    // One serial pass, timed with its span recording, so that traced and
    // untraced passes compare what tracing adds (trace.overhead_pct).
    auto serial_pass = [&](bool traced_pass) {
      const double t0 = mono_s();
      const Batch b = ids.batch(round.serial, refs);
      const int span = traced_pass ? tr.begin("client.serial") : -1;
      const Phase ph = client.serial(b.lines, b.first_id, b.expected,
                                     traced_pass ? &kept : nullptr, server_cpu);
      if (traced_pass) trace_phase(tr, ph, b, client, span);
      tr.end(span);
      const double elapsed = mono_s() - t0;
      count(res, ph);
      pass_s.push_back(ph.end - ph.start);
      double cpu = 0.0;
      for (const Outcome& o : ph.outcomes) {
        cpu += o.cost;
        op_cpu_ms.push_back(1000.0 * o.cost);
      }
      pass_cpu.push_back(cpu);
      for (double v : ph.latencies_ms()) serial_lat.push_back(v);
      return elapsed;
    };
    const double first = serial_pass(traced);
    if (opt.trace && r > 0) {
      // The same pass again in the other mode, straight after. Which mode
      // goes first alternates with the rounds.
      const double second = serial_pass(!traced);
      traced_pass_s.push_back(traced ? first : second);
      untraced_pass_s.push_back(traced ? second : first);
    }
    if (!opt.trace) {
      const Batch b = ids.batch(round.closed, refs);
      const double c0 = server_cpu();
      const Phase ph = client.closed_loop(b.lines, b.first_id, b.expected, kClosedChunkS);
      const double c1 = server_cpu();
      count(res, ph);
      std::size_t done = 0, answered = 0;
      for (const Outcome& o : ph.outcomes) {
        done += o.answered && o.recv <= ph.end;
        answered += o.answered;
      }
      chunk_rps.push_back(static_cast<double>(done) / (ph.end - ph.start));
      chunk_cpu_us.push_back(1e6 * (c1 - c0) / static_cast<double>(answered));
    }
    {
      const Batch b = ids.batch(round.open, refs);
      const int span = traced ? tr.begin("client.open_loop") : -1;
      const Phase ph = client.open_loop(b.lines, b.first_id, b.expected, kRate);
      if (traced) trace_phase(tr, ph, b, client, span);
      tr.end(span);
      count(res, ph);
      const std::vector<double> round_lat = ph.latencies_ms();
      round_p50.push_back(median_of(round_lat));
      lat.insert(lat.end(), round_lat.begin(), round_lat.end());
      for (double v : ph.lag_ms()) lag.push_back(v);
      backlog = std::max(backlog, ph.backlog);
      for (const Outcome& o : ph.outcomes)
        if (o.answered) open_bytes += o.bytes, ++open_answered;
    }
  }
  const double lag_p99 = tail_value(lag, 99);
  const std::size_t backlog_limit = std::max<std::size_t>(16, static_cast<std::size_t>(0.25 * kRate));
  if (lag_p99 > kMaxLagP99Ms)
    res.problems.push_back("the load generator fell behind its schedule (p99 lateness " +
                           std::to_string(lag_p99) + " ms)");
  if (backlog > backlog_limit)
    res.problems.push_back("the open-loop backlog grew to " + std::to_string(backlog) +
                           " requests: the rate is above what the server sustains");

  const std::map<std::string, double> after = server_stats(server.address);
  const double rss = server.proc->vm_hwm_mb();

  if (!opt.trace) {
    server.stop(res);
    int used = 0;
    const double tail = tail_value(lat, 99, &used);
    // The gated figures are the server's CPU times (proc.hpp): per set-up
    // and per serial pass (median round).
    res.metric("setup_s", median_of(setup_cpu), "s");
    res.metric("pass_cpu_s", median_of(pass_cpu), "s");
    res.metric("rss_mb", rss, "MB");
    // Not gated (METRICS.md): the server's CPU time per serial request
    // (median over every serial request of the run), and the wall times of
    // set-up, serial pass and closed-loop throughput (median round) and the
    // open loop's latency over every sample of the run.
    res.note("op_cpu_p50_ms", opm::util::format_json_number(median_of(op_cpu_ms)));
    res.note("setup_wall_s", opm::util::format_json_number(median_of(setup_wall)));
    res.note("pass_wall_s", opm::util::format_json_number(median_of(pass_s)));
    res.note("max_rps", opm::util::format_json_number(median_of(chunk_rps)));
    // The server's CPU time per request in the closed loop (median round).
    res.note("closed_cpu_us", opm::util::format_json_number(median_of(chunk_cpu_us)));
    res.note("latency_p50_ms", opm::util::format_json_number(median_of(lat)));
    res.note("latency_p99_ms", opm::util::format_json_number(tail));
    res.note("latency_tail_percentile", std::to_string(used));
    res.note("latency_samples", std::to_string(lat.size()));
    res.note("latency_p90_ms", opm::util::format_json_number(opm::util::percentile(lat, 90)));
    res.note("latency_p95_ms", opm::util::format_json_number(opm::util::percentile(lat, 95)));
    // The per-round figures behind each metric.
    res.note("rounds", json_rounds({{"pass_cpu_s", &pass_cpu},
                                    {"closed_cpu_us", &chunk_cpu_us},
                                    {"pass_wall_s", &pass_s},
                                    {"max_rps", &chunk_rps},
                                    {"latency_p50_ms", &round_p50}}));
    res.note("open_loop_rate", opm::util::format_json_number(kRate));
    res.note("gen_lag_p99_ms", opm::util::format_json_number(lag_p99));
    res.note("gen_backlog", std::to_string(backlog));
    tr.end(root);
    return res;
  }

  // ---- traced run: per-layer figures ----
  const double ping = median_rtt(server.address, "\"type\":\"ping\"");
  // The router answers ping itself, so its forwarding cost is measured on
  // a cached request: through a probe opm_router in front of the server
  // minus straight to the server.
  const GenRequest& probe = w.warmup.front();
  double router_hop = 0.0;
  {
    const std::string router_addr = "unix:probe-router.sock";
    Child router({opt.bin_dir + "/serve/opm_router", "--listen=" + router_addr,
                  "--shards=" + server.address},
                 "/dev/null", "probe-router.log");
    if (!wait_ready(router_addr, 30.0)) throw std::runtime_error("opm_router did not answer ping");
    router_hop = median_rtt(router_addr, probe.body) - median_rtt(server.address, probe.body);
    if (!router.stop().ok()) res.problems.push_back("the probe router did not drain cleanly on SIGTERM");
  }
  // What the router does to every response it relays, on this workload's
  // own responses.
  std::vector<double> reparse;
  for (const std::string& line : kept) {
    const double t0 = mono_s();
    Scope s(tr, "router.reparse");
    protocol::ResponseView view;
    if (!protocol::parse_response(line, &view)) throw std::runtime_error("unparsable response");
    const std::string again = protocol::render_view(protocol::Envelope{2, view.id, view.shard}, view);
    if (again != line) res.problems.push_back("parse_response/render_view is not byte-stable");
    reparse.push_back(mono_s() - t0);
  }
  server.stop(res);
  tr.end(root);

  auto d = [&](const std::string& key) { return delta(before, after, key); };
  const double hits = d("cache.memory_hits") + d("cache.disk_hits");
  const double lookups = hits + d("cache.misses");
  // The rounds neither compute nor store (every key was warmed up), so the
  // sweep and store figures come from the warm-up pass: the counters the
  // freshly started server held before the rounds.
  auto warmup = [&](const std::string& key) {
    const auto it = before.find(key);
    return it == before.end() ? 0.0 : it->second;
  };
  const double sweep_wall = warmup("sweep.wall_seconds");
  const double bytes = ratio(static_cast<double>(open_bytes), static_cast<double>(open_answered));
  const auto to_us = [](std::vector<double> s) { return 1e6 * median_of(std::move(s)); };
  const double untraced = median_of(untraced_pass_s);

  res.metric("sparse.suite_build_ms", suite_ms, "ms");
  res.metric("sim.lines", d("sim.lines_simulated"), "count");
  res.metric("core.sweep_points_per_s", ratio(warmup("sweep.items"), sweep_wall), "1/s");
  // Inline sweeps: busy time over wall time of the one thread running them.
  res.metric("core.sweep_parallel_eff", ratio(warmup("sweep.busy_seconds"), sweep_wall), "ratio");
  res.metric("cache.hit_ratio", ratio(hits, lookups), "ratio");
  res.metric("cache.lookups", lookups, "count");
  res.metric("cache.lookup_us", 1e6 * ratio(d("cache.lookup_seconds"), lookups), "us");
  res.metric("cache.store_us", 1e6 * ratio(warmup("cache.store_seconds"), warmup("cache.stores")),
             "us");
  res.metric("cache.stores", warmup("cache.stores"), "count");
  res.metric("serve.coalesce_ratio", ratio(d("serve.coalesce_hits"), d("serve.admitted")), "ratio");
  res.metric("serve.admitted", d("serve.admitted"), "count");
  double advise_total = 0.0;
  for (double s : rt.advise_s) advise_total += s;
  // Mean, not median: the first request of each kernel pays its probe.
  res.metric("advise.run_ms",
             1e3 * ratio(advise_total, static_cast<double>(rt.advise_s.size())), "ms");
  res.metric("advise.payload_hit_ratio",
             ratio(d("advise.payload_hits"), d("advise.payload_hits") + d("advise.computed")),
             "ratio");
  res.metric("advise.requests", d("advise.payload_hits") + d("advise.computed"), "count");
  res.metric("protocol.parse_us", to_us(rt.parse_s), "us");
  res.metric("protocol.render_points_us", to_us(rt.render_s), "us");
  double render_total = 0.0;
  for (double s : rt.render_s) render_total += s;
  res.metric("protocol.render_mb_per_s", ratio(rt.render_bytes / 1e6, render_total), "MB/s");
  res.metric("protocol.envelope_us", to_us(rt.envelope_s), "us");
  res.metric("router.reparse_us", to_us(reparse), "us");
  res.metric("router.overhead_ms", 1e3 * router_hop, "ms");
  res.metric("dispatcher.wait_ms", median_of(lat) - median_of(serial_lat), "ms");
  res.metric("server.ping_rtt_us", 1e6 * ping, "us");
  res.metric("gen.lag_p99_ms", lag_p99, "ms");
  res.metric("gen.backlog", static_cast<double>(backlog), "count");
  res.metric("bytes_per_response", bytes, "bytes");
  res.metric("trace.overhead_pct", 100.0 * ratio(median_of(traced_pass_s) - untraced, untraced),
             "%");
  res.metric("other.self_s", self_times(tr.spans())[static_cast<std::size_t>(root)], "s");
  return res;
}

}  // namespace opmbench
