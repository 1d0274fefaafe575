#include "serve/protocol.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "core/result_cache.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace opm::serve::protocol {

namespace {

constexpr std::size_t kMaxIdBytes = 128;
/// Hard ceiling on dense grid size: keeps a single hostile request from
/// pinning a worker for minutes. The paper's widest grid (KNL, n_hi =
/// 32000) is ~4k points, far below this.
constexpr double kMaxGridPoints = 1 << 20;
constexpr std::size_t kMaxFootprintPoints = 65536;

/// Shortest decimal that round-trips the exact double — what
/// render_request uses so a forwarded request re-parses to bit-identical
/// canonical structs while staying a legal JSON number (hex floats are
/// not).
std::string shortest(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string shortest(std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

bool parse_kernel(const std::string& name, core::KernelId* out) {
  // One grammar for the whole stack: the advisor owns the kernel tokens.
  return advise::parse_kernel_token(name, out);
}

bool bad(Error* err, std::string message) {
  err->category = "bad-request";
  err->message = std::move(message);
  err->retry_after_ms = 0;
  return false;
}

/// Reads an optional finite number field into *dst; absent leaves the
/// default untouched. Wrong type or non-finite value is an error.
bool read_number(const util::JsonValue& doc, const char* key, double* dst, Error* err,
                 bool* ok) {
  const util::JsonValue* v = doc.find(key);
  if (!v) return true;
  if (!v->is_number() || !std::isfinite(v->number)) {
    *ok = bad(err, std::string("field \"") + key + "\" must be a finite number");
    return false;
  }
  *dst = v->number;
  return true;
}

bool read_bool(const util::JsonValue& doc, const char* key, bool* dst, Error* err, bool* ok) {
  const util::JsonValue* v = doc.find(key);
  if (!v) return true;
  if (!v->is_bool()) {
    *ok = bad(err, std::string("field \"") + key + "\" must be a boolean");
    return false;
  }
  *dst = v->boolean;
  return true;
}

/// Every member of `doc` must appear in `allowed`.
bool check_fields(const util::JsonValue& doc, const std::set<std::string_view>& allowed,
                  Error* err) {
  for (const auto& [key, value] : doc.members)
    if (allowed.find(key) == allowed.end())
      return bad(err, "unknown field \"" + key + "\"");
  return true;
}

}  // namespace

const char* to_string(RequestType type) {
  switch (type) {
    case RequestType::kDense: return "dense";
    case RequestType::kSparse: return "sparse";
    case RequestType::kFootprint: return "footprint";
    case RequestType::kAdvise: return "advise";
    case RequestType::kConfig: return "config";
    case RequestType::kStats: return "stats";
    case RequestType::kPing: return "ping";
    case RequestType::kHello: return "hello";
  }
  return "?";
}

const char* kernel_name(core::KernelId id) { return advise::kernel_token(id); }

Envelope envelope_of(const Request& req, int shard) {
  Envelope env;
  env.version = req.version;
  env.id = req.id;
  env.shard = shard;
  return env;
}

bool resolve_platform(std::string_view name, sim::Platform* out) {
  // One grammar for the whole stack: the advisor owns the selectors.
  return advise::resolve_platform(name, out);
}

bool parse_request(std::string_view line, Request* out, Error* err) {
  std::string parse_error;
  const auto doc = util::parse_json(line, &parse_error);
  if (!doc) {
    // Envelope recovery happens inside parse_request_value; a line that
    // never parsed has no envelope to recover beyond the defaults.
    out->version = 1;
    out->id.clear();
    err->category = "parse";
    err->message = parse_error;
    err->retry_after_ms = 0;
    return false;
  }
  return parse_request_value(*doc, out, err);
}

bool parse_request_value(const util::JsonValue& doc, Request* out, Error* err) {
  // A reused *out must not leak a previous request's envelope into this
  // parse (the version decides which id spelling is legal below).
  out->version = 1;
  out->id.clear();
  if (!doc.is_object()) {
    err->category = "parse";
    err->message = "request must be a JSON object";
    err->retry_after_ms = 0;
    return false;
  }

  // Recover the envelope first — version, then the version's id spelling —
  // so even a rejected request's error echoes both.
  if (const util::JsonValue* v = doc.find("v")) {
    if (!v->is_number() || v->number != std::floor(v->number))
      return bad(err, "field \"v\" must be an integer");
    if (v->number != 1.0 && v->number != 2.0) {
      err->category = "unsupported-version";
      err->message = "protocol version " + shortest(v->number) +
                     " is not supported (this server speaks v1 and v2)";
      err->retry_after_ms = 0;
      return false;
    }
    out->version = static_cast<int>(v->number);
  }
  const util::JsonValue* id_field = doc.find("id");
  const util::JsonValue* req_id_field = doc.find("req_id");
  if (out->version == 2) {
    if (id_field) return bad(err, "v2 requests name the echo token \"req_id\", not \"id\"");
    if (req_id_field) {
      if (!req_id_field->is_string()) return bad(err, "field \"req_id\" must be a string");
      if (req_id_field->string.size() > kMaxIdBytes)
        return bad(err, "field \"req_id\" exceeds 128 bytes");
      out->id = req_id_field->string;
    }
  } else {
    if (req_id_field) return bad(err, "field \"req_id\" requires \"v\":2");
    if (id_field) {
      if (!id_field->is_string()) return bad(err, "field \"id\" must be a string");
      if (id_field->string.size() > kMaxIdBytes)
        return bad(err, "field \"id\" exceeds 128 bytes");
      out->id = id_field->string;
    }
  }

  const util::JsonValue* type = doc.find("type");
  if (!type || !type->is_string())
    return bad(err, "missing required string field \"type\"");
  const std::string& t = type->string;
  if (t == "dense") out->type = RequestType::kDense;
  else if (t == "sparse") out->type = RequestType::kSparse;
  else if (t == "footprint") out->type = RequestType::kFootprint;
  else if (t == "advise") out->type = RequestType::kAdvise;
  else if (t == "config") out->type = RequestType::kConfig;
  else if (t == "stats") out->type = RequestType::kStats;
  else if (t == "ping") out->type = RequestType::kPing;
  else if (t == "hello") out->type = RequestType::kHello;
  else return bad(err, "unknown request type \"" + t + "\"");

  if (out->type == RequestType::kStats || out->type == RequestType::kPing)
    return check_fields(doc, {"type", "id", "v", "req_id"}, err);

  if (out->type == RequestType::kHello) {
    if (!check_fields(doc, {"type", "id", "v", "req_id", "token"}, err)) return false;
    if (const util::JsonValue* token = doc.find("token")) {
      if (!token->is_string()) return bad(err, "field \"token\" must be a string");
      out->token = token->string;
    }
    return true;
  }

  if (out->type == RequestType::kConfig) {
    // Config has no allowlist rejection: a knob this build does not know is
    // its own error kind, so an operator scripting against a mixed-version
    // tier can tell "typo" from "this server is too old" mechanically.
    ConfigRequest& c = out->config;
    c = ConfigRequest{};
    for (const auto& [key, value] : doc.members) {
      if (key == "type" || key == "id" || key == "v" || key == "req_id") continue;
      if (key == "sweep_workers") {
        if (!value.is_number() || !std::isfinite(value.number) ||
            value.number != std::floor(value.number) || value.number < 0.0 ||
            value.number > 256.0)
          return bad(err, "field \"sweep_workers\" must be an integer in [0, 256]");
        c.has_sweep_workers = true;
        c.sweep_workers = static_cast<int>(value.number);
      } else if (key == "cache_enabled") {
        if (!value.is_bool()) return bad(err, "field \"cache_enabled\" must be a boolean");
        c.has_cache_enabled = true;
        c.cache_enabled = value.boolean;
      } else if (key == "advise_verify") {
        if (!value.is_bool()) return bad(err, "field \"advise_verify\" must be a boolean");
        c.has_advise_verify = true;
        c.advise_verify = value.boolean;
      } else {
        err->category = "unsupported-key";
        err->message = "config knob \"" + key +
                       "\" is not supported by this server (supported: "
                       "sweep_workers, cache_enabled, advise_verify)";
        err->retry_after_ms = 0;
        return false;
      }
    }
    return true;
  }

  // Sweep and advise requests: resolve the platform, then the
  // type-specific fields.
  const util::JsonValue* platform = doc.find("platform");
  if (!platform || !platform->is_string())
    return bad(err, "missing required string field \"platform\"");
  if (!resolve_platform(platform->string, &out->platform))
    return bad(err, "unknown platform \"" + platform->string +
                        "\" (expected broadwell-edram-{off,on} or "
                        "knl-{ddr,cache,flat,hybrid})");
  out->platform_name = platform->string;

  core::KernelId kernel{};
  bool have_kernel = false;
  if (const util::JsonValue* k = doc.find("kernel")) {
    if (!k->is_string()) return bad(err, "field \"kernel\" must be a string");
    if (!parse_kernel(k->string, &kernel))
      return bad(err, "unknown kernel \"" + k->string + "\"");
    have_kernel = true;
  }

  bool ok = true;
  switch (out->type) {
    case RequestType::kDense: {
      if (!check_fields(doc,
                        {"type", "id", "v", "req_id", "platform", "kernel", "n_lo", "n_hi",
                         "n_step", "nb_lo", "nb_hi", "nb_step"},
                        err))
        return false;
      core::DenseSweepRequest& r = out->dense;
      if (have_kernel) {
        if (kernel != core::KernelId::kGemm && kernel != core::KernelId::kCholesky)
          return bad(err, "dense sweeps accept kernel gemm or cholesky");
        r.kernel = kernel;
      }
      if (!read_number(doc, "n_lo", &r.n_lo, err, &ok) ||
          !read_number(doc, "n_hi", &r.n_hi, err, &ok) ||
          !read_number(doc, "n_step", &r.n_step, err, &ok) ||
          !read_number(doc, "nb_lo", &r.nb_lo, err, &ok) ||
          !read_number(doc, "nb_hi", &r.nb_hi, err, &ok) ||
          !read_number(doc, "nb_step", &r.nb_step, err, &ok))
        return ok;
      if (r.n_lo < 1.0 || r.nb_lo < 1.0) return bad(err, "grid bounds must be >= 1");
      if (r.n_hi < r.n_lo || r.nb_hi < r.nb_lo)
        return bad(err, "grid upper bounds must be >= lower bounds");
      if (r.n_step <= 0.0 || r.nb_step <= 0.0) return bad(err, "grid steps must be > 0");
      const double nx = std::floor((r.n_hi - r.n_lo) / r.n_step) + 1.0;
      const double ny = std::floor((r.nb_hi - r.nb_lo) / r.nb_step) + 1.0;
      if (nx * ny > kMaxGridPoints) return bad(err, "dense grid exceeds 2^20 points");
      return true;
    }
    case RequestType::kSparse: {
      if (!check_fields(doc,
                        {"type", "id", "v", "req_id", "platform", "kernel", "merge_based"},
                        err))
        return false;
      core::SparseSweepRequest& r = out->sparse;
      if (have_kernel) {
        if (kernel != core::KernelId::kSpmv && kernel != core::KernelId::kSptrans &&
            kernel != core::KernelId::kSptrsv)
          return bad(err, "sparse sweeps accept kernel spmv, sptrans, or sptrsv");
        r.kernel = kernel;
      }
      if (!read_bool(doc, "merge_based", &r.merge_based, err, &ok)) return ok;
      return true;
    }
    case RequestType::kFootprint: {
      if (!check_fields(doc,
                        {"type", "id", "v", "req_id", "platform", "kernel", "fp_lo", "fp_hi",
                         "points"},
                        err))
        return false;
      core::FootprintSweepRequest& r = out->footprint;
      if (have_kernel) {
        if (kernel != core::KernelId::kStream && kernel != core::KernelId::kStencil &&
            kernel != core::KernelId::kFft)
          return bad(err, "footprint sweeps accept kernel stream, stencil, or fft");
        r.kernel = kernel;
      }
      if (!read_number(doc, "fp_lo", &r.fp_lo, err, &ok) ||
          !read_number(doc, "fp_hi", &r.fp_hi, err, &ok))
        return ok;
      if (const util::JsonValue* p = doc.find("points")) {
        if (!p->is_number() || !std::isfinite(p->number) || p->number < 1.0 ||
            p->number != std::floor(p->number) ||
            p->number > static_cast<double>(kMaxFootprintPoints))
          return bad(err, "field \"points\" must be an integer in [1, 65536]");
        r.points = static_cast<std::size_t>(p->number);
      }
      if (r.fp_lo <= 0.0) return bad(err, "fp_lo must be > 0");
      if (r.fp_hi <= r.fp_lo) return bad(err, "fp_hi must be > fp_lo");
      return true;
    }
    case RequestType::kAdvise: {
      if (!check_fields(doc,
                        {"type", "id", "v", "req_id", "platform", "kernel", "objective",
                         "footprint_bytes", "verify"},
                        err))
        return false;
      advise::AdviseRequest& r = out->advise;
      r = advise::AdviseRequest{};
      r.platform = out->platform_name;
      if (!have_kernel) return bad(err, "advise requests require a \"kernel\" field");
      r.kernel = kernel;
      if (const util::JsonValue* o = doc.find("objective")) {
        if (!o->is_string() || !advise::parse_objective(o->string, &r.objective))
          return bad(err, "field \"objective\" must be \"perf\" or \"energy\"");
      }
      if (!read_number(doc, "footprint_bytes", &r.footprint_bytes, err, &ok)) return ok;
      if (r.footprint_bytes < 0.0) return bad(err, "footprint_bytes must be >= 0");
      if (!read_bool(doc, "verify", &r.verify, err, &ok)) return ok;
      return true;
    }
    default: break;
  }
  return bad(err, "unhandled request type");
}

const sparse::SyntheticCollection& serve_suite() {
  static const sparse::SyntheticCollection suite = sparse::SyntheticCollection::paper_suite();
  return suite;
}

util::Digest128 request_key(const Request& req) {
  if (req.type == RequestType::kAdvise) {
    // The advisor owns its payload identity (platform spec, canonical
    // request text, suite, verify switch); the serve tag only marks the
    // response format so a future payload change cannot collide.
    const util::Digest128 base = advise::advise_cache_key(req.advise);
    util::Hasher128 h;
    h.add(std::string_view("opm.serve.advise.v1"));
    h.add(base.hi);
    h.add(base.lo);
    return h.digest();
  }
  util::Digest128 base;
  switch (req.type) {
    case RequestType::kDense:
      base = core::sweep_cache_key(req.platform, req.dense);
      break;
    case RequestType::kSparse:
      base = core::sweep_cache_key(req.platform, req.sparse, serve_suite());
      break;
    case RequestType::kFootprint:
      base = core::sweep_cache_key(req.platform, req.footprint);
      break;
    default:
      break;
  }
  util::Hasher128 h;
  h.add(std::string_view("opm.serve.csv.v1"));
  h.add(static_cast<std::uint64_t>(req.type));
  h.add(base.hi);
  h.add(base.lo);
  return h.digest();
}

util::Digest128 payload_cache_key(const Request& req) {
  const util::Digest128 base = request_key(req);
  util::Hasher128 h;
  h.add(std::string_view("opm.serve.escaped.v1"));
  h.add(base.hi);
  h.add(base.lo);
  return h.digest();
}

namespace {

/// A sweep request's points. Empty for the non-sweep types.
std::vector<core::SweepPoint> sweep_points(const Request& req) {
  switch (req.type) {
    case RequestType::kDense:
      return core::sweep_dense(req.platform, req.dense);
    case RequestType::kSparse:
      return core::sweep_sparse(req.platform, req.sparse, serve_suite());
    case RequestType::kFootprint:
      return core::sweep_footprint_kernel(req.platform, req.footprint);
    default:
      return {};
  }
}

}  // namespace

std::string escaped_sweep_payload(const Request& req, bool* cache_hit) {
  core::ResultCache& cache = core::ResultCache::instance();
  const util::Digest128 key = payload_cache_key(req);
  if (auto hit = cache.find(key)) {
    *cache_hit = true;
    return std::move(*hit);
  }
  *cache_hit = false;
  std::string escaped = util::json_escape(render_points_csv(sweep_points(req)));
  cache.store(key, escaped);
  return escaped;
}

std::string execute(const Request& req) {
  switch (req.type) {
    case RequestType::kAdvise:
      return advise::run_and_render(req.advise);
    case RequestType::kDense:
    case RequestType::kSparse:
    case RequestType::kFootprint:
      return render_points_csv(sweep_points(req));
    default:
      return {};
  }
}

std::string render_points_csv(const std::vector<core::SweepPoint>& points) {
  std::string out = "x,y,gflops,footprint,rows,nnz,input_id\n";
  // Worst case per point: six 24-byte hex floats, six separators, an
  // 11-byte id and the newline.
  out.reserve(out.size() + points.size() * 162);
  for (const auto& p : points) {
    for (const double v : {p.x, p.y, p.gflops, p.footprint, p.rows, p.nnz}) {
      util::append_hexf(out, v);
      out += ',';
    }
    char id[16];
    out.append(id, std::to_chars(id, id + sizeof id, p.input_id).ptr);
    out += '\n';
  }
  return out;
}

std::string render_request(const Request& req) {
  std::string out = "{\"v\":2,\"req_id\":\"";
  out += util::json_escape(req.id);
  out += "\",\"type\":\"";
  out += to_string(req.type);
  out += '"';
  if (req.type == RequestType::kHello) {
    if (!req.token.empty()) {
      out += ",\"token\":\"";
      out += util::json_escape(req.token);
      out += '"';
    }
    out += '}';
    return out;
  }
  if (req.type == RequestType::kStats || req.type == RequestType::kPing) {
    out += '}';
    return out;
  }
  if (req.type == RequestType::kConfig) {
    const ConfigRequest& c = req.config;
    if (c.has_sweep_workers)
      out += ",\"sweep_workers\":" + shortest(static_cast<std::uint64_t>(c.sweep_workers));
    if (c.has_cache_enabled) {
      out += ",\"cache_enabled\":";
      out += c.cache_enabled ? "true" : "false";
    }
    if (c.has_advise_verify) {
      out += ",\"advise_verify\":";
      out += c.advise_verify ? "true" : "false";
    }
    out += '}';
    return out;
  }
  out += ",\"platform\":\"";
  out += util::json_escape(req.platform_name);
  out += '"';
  switch (req.type) {
    case RequestType::kDense: {
      const core::DenseSweepRequest& r = req.dense;
      out += ",\"kernel\":\"";
      out += kernel_name(r.kernel);
      out += "\",\"n_lo\":" + shortest(r.n_lo) + ",\"n_hi\":" + shortest(r.n_hi) +
             ",\"n_step\":" + shortest(r.n_step) + ",\"nb_lo\":" + shortest(r.nb_lo) +
             ",\"nb_hi\":" + shortest(r.nb_hi) + ",\"nb_step\":" + shortest(r.nb_step);
      break;
    }
    case RequestType::kSparse: {
      const core::SparseSweepRequest& r = req.sparse;
      out += ",\"kernel\":\"";
      out += kernel_name(r.kernel);
      out += "\",\"merge_based\":";
      out += r.merge_based ? "true" : "false";
      break;
    }
    case RequestType::kFootprint: {
      const core::FootprintSweepRequest& r = req.footprint;
      out += ",\"kernel\":\"";
      out += kernel_name(r.kernel);
      out += "\",\"fp_lo\":" + shortest(r.fp_lo) + ",\"fp_hi\":" + shortest(r.fp_hi) +
             ",\"points\":" + shortest(static_cast<std::uint64_t>(r.points));
      break;
    }
    case RequestType::kAdvise: {
      const advise::AdviseRequest& r = req.advise;
      out += ",\"kernel\":\"";
      out += advise::kernel_token(r.kernel);
      out += "\",\"objective\":\"";
      out += advise::to_string(r.objective);
      out += "\",\"footprint_bytes\":" + shortest(r.footprint_bytes);
      out += ",\"verify\":";
      out += r.verify ? "true" : "false";
      break;
    }
    default:
      break;
  }
  out += '}';
  return out;
}

namespace {

/// Envelope prefix through the echoed token: v1 `{"id":"X"`, v2
/// `{"v":2,"req_id":"X"`. Every response line starts here.
std::string envelope_prefix(const Envelope& env) {
  std::string out = env.version == 2 ? "{\"v\":2,\"req_id\":\"" : "{\"id\":\"";
  out += util::json_escape(env.id);
  out += '"';
  return out;
}

/// The `,"shard":N` member v2 responses carry (v1: nothing).
std::string shard_member(const Envelope& env) {
  if (env.version != 2) return {};
  return ",\"shard\":" + shortest(static_cast<std::uint64_t>(env.shard < 0 ? 0 : env.shard));
}

}  // namespace

std::string render_response(const Envelope& env, RequestType type,
                            const std::string& payload) {
  return render_response(env, type, payload, SampleNote{});
}

std::string render_response(const Envelope& env, RequestType type,
                            const std::string& payload, const SampleNote& note) {
  return render_response(env, type, EscapedPayload{util::json_escape(payload)}, note);
}

std::string render_response(const Envelope& env, RequestType type, EscapedPayload payload,
                            const SampleNote& note) {
  std::string out = envelope_prefix(env);
  out.reserve(out.size() + payload.text.size() + 128);
  out += ",\"ok\":true,\"type\":\"";
  out += to_string(type);
  out += '"';
  out += shard_member(env);
  // The fast-or-exact contract: only sampled v2 responses carry the
  // members, so exact-mode and v1 byte streams are unchanged.
  if (env.version == 2 && note.sampled) {
    out += ",\"sampled\":true,\"max_rel_error\":\"";
    out += util::json_escape(note.max_rel_error_hex);
    out += '"';
  }
  out += ",\"payload\":\"";
  out += payload.text;
  out += "\"}";
  return out;
}

std::string render_error(const Envelope& env, const Error& err) {
  std::ostringstream os;
  os << envelope_prefix(env) << ",\"ok\":false" << shard_member(env)
     << ",\"error\":{\"category\":\"" << util::json_escape(err.category)
     << "\",\"message\":\"" << util::json_escape(err.message)
     << "\",\"retry_after_ms\":" << err.retry_after_ms;
  if (err.shard >= 0) os << ",\"shard\":" << err.shard;
  os << "}}";
  return os.str();
}

std::string render_stats(const Envelope& env, const std::string& stats_json) {
  std::string out = envelope_prefix(env);
  out += ",\"ok\":true,\"type\":\"stats\"";
  out += shard_member(env);
  out += ",\"stats\":";
  out += stats_json;
  out += "}";
  return out;
}

std::string render_pong(const Envelope& env) {
  std::string out = envelope_prefix(env);
  out += ",\"ok\":true,\"type\":\"pong\"";
  out += shard_member(env);
  out += "}";
  return out;
}

std::string render_hello_ok(const Envelope& env) {
  std::string out = envelope_prefix(env);
  out += ",\"ok\":true,\"type\":\"hello\"";
  out += shard_member(env);
  out += "}";
  return out;
}

std::string render_response(const std::string& id, RequestType type,
                            const std::string& payload) {
  return render_response(Envelope{1, id, 0}, type, payload);
}

std::string render_error(const std::string& id, const Error& err) {
  return render_error(Envelope{1, id, 0}, err);
}

std::string render_stats(const std::string& id, const std::string& stats_json) {
  return render_stats(Envelope{1, id, 0}, stats_json);
}

std::string render_pong(const std::string& id) {
  return render_pong(Envelope{1, id, 0});
}

namespace {

/// A JSON number that is integral and fits in an int. Anything else —
/// a fraction, 1e999 (parsed as inf), NaN, or a value past INT_MIN/INT_MAX,
/// whose cast would be undefined — makes the response malformed.
bool read_int(const util::JsonValue& v, int* out) {
  if (!v.is_number()) return false;
  const double d = v.number;
  if (!(d >= static_cast<double>(std::numeric_limits<int>::min()) &&
        d <= static_cast<double>(std::numeric_limits<int>::max()) && d == std::floor(d)))
    return false;
  *out = static_cast<int>(d);
  return true;
}

}  // namespace

bool parse_response(std::string_view line, ResponseView* out) {
  const auto doc = util::parse_json(line);
  if (!doc || !doc->is_object()) return false;
  *out = ResponseView{};
  if (const util::JsonValue* v = doc->find("v"))
    if (!read_int(*v, &out->version)) return false;
  const util::JsonValue* id = doc->find(out->version == 2 ? "req_id" : "id");
  if (!id || !id->is_string()) return false;
  out->id = id->string;
  if (const util::JsonValue* shard = doc->find("shard"))
    if (!read_int(*shard, &out->shard)) return false;
  const util::JsonValue* ok = doc->find("ok");
  if (!ok || !ok->is_bool()) return false;
  out->ok = ok->boolean;
  if (!out->ok) {
    const util::JsonValue* e = doc->find("error");
    if (!e || !e->is_object()) return false;
    const util::JsonValue* category = e->find("category");
    const util::JsonValue* message = e->find("message");
    if (!category || !category->is_string() || !message || !message->is_string()) return false;
    out->error.category = category->string;
    out->error.message = message->string;
    // A non-number hint reads as absent; a number must be a valid int.
    if (const util::JsonValue* retry = e->find("retry_after_ms"))
      if (retry->is_number() && !read_int(*retry, &out->error.retry_after_ms)) return false;
    if (const util::JsonValue* hint = e->find("shard"))
      if (hint->is_number() && !read_int(*hint, &out->error.shard)) return false;
    return true;
  }
  const util::JsonValue* type = doc->find("type");
  if (!type || !type->is_string()) return false;
  out->type = type->string;
  if (out->type == "stats") {
    const util::JsonValue* stats = doc->find("stats");
    if (!stats) return false;
    out->stats = util::serialize_json(*stats);
    return true;
  }
  if (const util::JsonValue* sampled = doc->find("sampled")) {
    if (!sampled->is_bool()) return false;
    out->sampled = sampled->boolean;
  }
  if (const util::JsonValue* rel = doc->find("max_rel_error")) {
    if (!rel->is_string()) return false;
    out->max_rel_error = rel->string;
  }
  if (const util::JsonValue* payload = doc->find("payload")) {
    if (!payload->is_string()) return false;
    out->payload = payload->string;
  }
  return true;
}

std::string render_view(const Envelope& env, const ResponseView& view) {
  if (!view.ok) return render_error(env, view.error);
  if (view.type == "stats") return render_stats(env, view.stats);
  if (view.type == "pong") return render_pong(env);
  if (view.type == "hello") return render_hello_ok(env);
  RequestType type = RequestType::kPing;
  if (view.type == "dense") type = RequestType::kDense;
  else if (view.type == "sparse") type = RequestType::kSparse;
  else if (view.type == "footprint") type = RequestType::kFootprint;
  else if (view.type == "advise") type = RequestType::kAdvise;
  else if (view.type == "config") type = RequestType::kConfig;
  return render_response(env, type, view.payload,
                         SampleNote{view.sampled, view.max_rel_error});
}

}  // namespace opm::serve::protocol
