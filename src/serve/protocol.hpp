#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "advise/advise.hpp"
#include "core/experiment.hpp"
#include "sim/platform.hpp"
#include "sparse/collection.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"

/// The opm_serve wire protocol: newline-delimited JSON requests, one JSON
/// response line per request. Two envelope versions share one payload
/// format.
///
/// **v1 (bare)** — a request is a single line holding one JSON object;
/// the optional echo token is named "id". The three sweep types map 1:1
/// onto the canonical request structs of core/experiment.hpp — the
/// service is a thin network front end over the exact same library calls
/// the offline bench harnesses make, which is what makes the
/// byte-identity guarantee checkable: for any request, the "payload"
/// field of the response equals render_points_csv(<the offline sweep>)
/// exactly.
///
///   {"type":"dense","id":"r1","platform":"broadwell-edram-on",
///    "kernel":"gemm","n_lo":256,"n_hi":4096,"n_step":512,
///    "nb_lo":128,"nb_hi":1024,"nb_step":128}
///   {"type":"sparse","id":"r2","platform":"knl-flat","kernel":"spmv"}
///   {"type":"footprint","id":"r3","platform":"knl-cache","kernel":"stream",
///    "fp_lo":16384,"fp_hi":1048576,"points":32}
///   {"type":"stats","id":"s1"}
///   {"type":"ping","id":"p1"}
///
/// **v2 (sharded tier)** — the same request object plus `"v":2`, with the
/// echo token renamed `req_id` (a v2 request must not carry "id", and
/// vice versa; `{"v":1,...}` is accepted as an explicit spelling of v1):
///
///   {"v":2,"req_id":"r1","type":"sparse","platform":"knl-flat",
///    "kernel":"spmv"}
///
/// v2 responses echo `v` and `req_id` and carry the serving shard id, so
/// a client talking to a router can always tell which backend answered:
///
///   {"v":2,"req_id":"r1","ok":true,"type":"sparse","shard":1,
///    "payload":"x,y,gflops,..."}
///
/// The payload bytes are identical across versions — the envelope is the
/// only difference, which is what lets v1 clients keep their goldens
/// against a v2 sharded tier.
///
/// Parsing is strict: unknown request types, unknown fields, wrong field
/// types, non-finite or out-of-range values, kernels that do not match the
/// request type, and ids longer than 128 bytes are all rejected with a
/// structured error — the server never guesses. Sweep fields are optional
/// and default to the paper's appendix A.2 configuration (the same
/// defaults the canonical structs carry).
///
/// v1 responses (one line each, unchanged from the pre-v2 service):
///   {"id":"r1","ok":true,"type":"dense","payload":"x,y,gflops,..."}
///   {"id":"r1","ok":false,"error":{"category":"overload",
///    "message":"...","retry_after_ms":50}}
///
/// Beyond the three sweeps, v2 adds two operational request types:
///
///   {"v":2,"req_id":"a1","type":"advise","platform":"knl-ddr",
///    "kernel":"spmv","objective":"perf"}          // + footprint_bytes, verify
///   {"v":2,"req_id":"c1","type":"config","sweep_workers":4,
///    "cache_enabled":true,"advise_verify":false}
///
/// "advise" runs the roofline-guided tuning advisor (opm::advise) and
/// returns its deterministic JSON payload; it is digest-routed, coalesced,
/// and payload-cached like any sweep. "config" hot-reloads the sweep knobs
/// on a live server (answered inline, never queued); any key outside the
/// supported set is rejected with the "unsupported-key" error kind.
///
/// A request line may also be a top-level JSON *array* of request
/// envelopes (v2 batch): the server answers each element with its own
/// response line, in completion order, matched back by req_id.
///
/// Error categories: "parse" (not valid JSON), "bad-request" (valid JSON,
/// invalid request), "unsupported-version" ("v" is neither 1 nor 2),
/// "unsupported-key" (a "config" request named a knob this server does not
/// support), "oversized" (line exceeded the server limit; the connection
/// is closed because framing is lost), "auth" (listener requires a hello
/// token; the connection is closed), "overload" and "draining" (admission
/// control; retry_after_ms > 0), "redirect" (this shard does not own the
/// request's key; the error object carries `"shard":N`, the owner under
/// the server's ring view), "internal" (the computation failed).
namespace opm::serve::protocol {

enum class RequestType { kDense, kSparse, kFootprint, kAdvise, kConfig, kStats, kPing, kHello };

const char* to_string(RequestType type);

/// The canonical kernel selector names ("gemm", "spmv", ...); inverse of
/// the request parser's kernel lookup.
const char* kernel_name(core::KernelId id);

/// A validated "config" hot-reload request: each knob is optional, and
/// only knobs that were present are applied. The dispatcher answers these
/// inline (never queued) so a drained or saturated server still accepts
/// reconfiguration.
struct ConfigRequest {
  bool has_sweep_workers = false;
  int sweep_workers = 0;  ///< 0 = serial
  bool has_cache_enabled = false;
  bool cache_enabled = false;
  bool has_advise_verify = false;
  bool advise_verify = false;
};

/// A fully-validated request. Exactly one of the payload structs is
/// meaningful, selected by `type`; `platform` is resolved from the
/// selector string.
struct Request {
  RequestType type = RequestType::kPing;
  int version = 1;            ///< envelope version: 1 (bare) or 2
  std::string id;             ///< client-chosen echo token ("id" / "req_id")
  std::string token;          ///< hello only: the shared auth secret
  std::string platform_name;  ///< the selector as sent, e.g. "knl-flat"
  sim::Platform platform;     ///< resolved platform (sweep types only)
  core::DenseSweepRequest dense;
  core::SparseSweepRequest sparse;
  core::FootprintSweepRequest footprint;
  advise::AdviseRequest advise;
  ConfigRequest config;
};

/// A structured protocol error, rendered by render_error.
struct Error {
  std::string category;   ///< see the taxonomy above
  std::string message;
  int retry_after_ms = 0; ///< > 0 only for overload / draining
  int shard = -1;         ///< redirect only: the owning shard id
};

/// The response-envelope identity of a request: which version to speak,
/// which token to echo, and (v2) which shard is answering. Every render
/// function takes one, so the dispatcher and the router produce
/// byte-identical envelopes for the same client.
struct Envelope {
  int version = 1;
  std::string id;
  int shard = 0;  ///< v2 only: serving shard id (standalone servers are 0)
};

/// The envelope a response to `req` must carry. `shard` is the serving
/// shard id (pass 0 for a standalone server).
Envelope envelope_of(const Request& req, int shard = 0);

/// The platform selectors the service accepts.
///   broadwell-edram-off  broadwell-edram-on
///   knl-ddr  knl-cache  knl-flat  knl-hybrid
/// Returns false (and leaves *out alone) for anything else.
bool resolve_platform(std::string_view name, sim::Platform* out);

/// Parses and validates one request line (either envelope version). On
/// failure fills *err (category "parse", "bad-request",
/// "unsupported-version", or "unsupported-key") and returns false; *out
/// keeps whatever version and id were recovered so the error response can
/// still echo them.
bool parse_request(std::string_view line, Request* out, Error* err);

/// Validates an already-parsed JSON request object — the core of
/// parse_request, exposed so batch (array) handling validates each
/// element without re-serializing it.
bool parse_request_value(const util::JsonValue& doc, Request* out, Error* err);

/// Serializes a validated request back to one v2 wire line (the form the
/// router forwards to shards). Doubles are rendered shortest-round-trip,
/// so parse_request(render_request(r)) reconstructs bit-identical
/// canonical structs — and therefore the same request_key.
std::string render_request(const Request& req);

/// The sparse suite every sparse request runs against (the paper's
/// 968-matrix synthetic collection, built once per process).
const sparse::SyntheticCollection& serve_suite();

/// Coalescing/caching identity of a request: the sweep's request key
/// (core::sweep_cache_key: platform + canonical struct [+ suite]) plus a
/// response-format tag.
/// Deliberately excludes `id` — two clients asking the same question are
/// the same flight. Meaningless for stats/ping (never dispatched).
util::Digest128 request_key(const Request& req);

/// Runs the sweep (or the advisor) through the core library and renders
/// the payload. This is the byte-identity reference: the offline verifier
/// calls this directly and diffs against served payloads. Sweeps never
/// touch the result cache here; advise goes through advise::run_and_render.
std::string execute(const Request& req);

/// Result-cache key of a sweep's escaped payload bytes: request_key(req)
/// under its own tag, so the record never collides with an advise payload.
util::Digest128 payload_cache_key(const Request& req);

/// The serve path's sweep payload, already JSON-escaped: exactly
/// util::json_escape(execute(req)), ready for the EscapedPayload
/// render_response. The result cache holds these bytes (memory LRU and
/// .opmrec disk tier) under payload_cache_key(req), so a hit is one
/// lookup. A miss runs the sweep, renders, escapes and stores; this lookup
/// is the request's only cache consultation. With the cache off every
/// call computes. *cache_hit reports which happened. Sweep types only.
std::string escaped_sweep_payload(const Request& req, bool* cache_hit);

/// CSV payload: header "x,y,gflops,footprint,rows,nnz,input_id", doubles
/// as C99 hex floats (%a, via util::append_hexf) so the text round-trips
/// bit-exactly.
std::string render_points_csv(const std::vector<core::SweepPoint>& points);

/// Sampled-simulation annotation for a response envelope (the fast-or-exact
/// serve contract). When the advise pipeline ran its stage-1 probe under
/// SamplingMode::kFast, v2 envelopes carry `"sampled":true` plus the
/// extrapolation error bound so clients can tell a fast answer from an
/// exact one without parsing the payload. `max_rel_error_hex` is the
/// payload's own %a hex-float string, passed through verbatim so
/// parse-then-re-render stays byte-stable. Exact responses (and all v1
/// responses) carry neither member — their bytes are unchanged.
struct SampleNote {
  bool sampled = false;
  std::string max_rel_error_hex;  ///< C99 %a text, e.g. "0x1.9p-9"
};

/// Payload text that is already JSON-escaped (escaped_sweep_payload's
/// bytes): the render_response overload taking it splices the text into
/// the envelope verbatim instead of escaping it again.
struct EscapedPayload {
  std::string_view text;
};

/// Response lines (no trailing newline), versioned by the envelope. v1
/// renders are byte-identical to the pre-v2 service.
std::string render_response(const Envelope& env, RequestType type,
                            const std::string& payload);
/// As above, annotating v2 envelopes with the sampled members when
/// note.sampled (v1 envelopes ignore the note entirely).
std::string render_response(const Envelope& env, RequestType type,
                            const std::string& payload, const SampleNote& note);
/// The same bytes from a pre-escaped payload: envelope prefix, then a
/// verbatim copy of `payload.text`.
std::string render_response(const Envelope& env, RequestType type, EscapedPayload payload,
                            const SampleNote& note = {});
std::string render_error(const Envelope& env, const Error& err);
std::string render_stats(const Envelope& env, const std::string& stats_json);
std::string render_pong(const Envelope& env);
std::string render_hello_ok(const Envelope& env);

/// v1 conveniences (the pre-v2 signatures, kept so offline harnesses and
/// tests read naturally).
std::string render_response(const std::string& id, RequestType type,
                            const std::string& payload);
std::string render_error(const std::string& id, const Error& err);
std::string render_stats(const std::string& id, const std::string& stats_json);
std::string render_pong(const std::string& id);

/// A parsed response line — what the router (and tests) need to re-render
/// a backend response under the client's own envelope: because both sides
/// share render_* and util::json_escape, parse-then-re-render is
/// byte-stable and never touches the payload text.
struct ResponseView {
  int version = 1;
  std::string id;
  int shard = 0;        ///< v2 only
  bool ok = false;
  std::string type;     ///< "dense", "pong", "stats", ... (ok responses)
  std::string payload;  ///< sweep responses
  std::string stats;    ///< stats responses: the raw nested JSON object
  Error error;          ///< when !ok
  bool sampled = false;       ///< v2 only: fast (sampled) answer
  std::string max_rel_error;  ///< verbatim %a hex text when sampled
};

/// Parses one response line into a view. False when the line is not a
/// well-formed response envelope (either version).
bool parse_response(std::string_view line, ResponseView* out);

/// Re-renders a parsed response under `env` (the client's envelope).
/// Payload and error fields pass through byte-identically.
std::string render_view(const Envelope& env, const ResponseView& view);

}  // namespace opm::serve::protocol
