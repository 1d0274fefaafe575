// opmbench — the repository benchmark program. opmbench/run.py builds it
// and calls it; see opmbench/METRICS.md for the workloads and metrics.
//
//   opmbench --workload=NAME --seed=N --seconds=S --trace=0|1
//            --bin-dir=DIR --digests=FILE --benchmark-json=FILE
//            --out-dir=DIR [--revision=REV]
//   opmbench --record-digests --bin-dir=DIR --digests=FILE --out-dir=DIR
//   opmbench --setup-probe
//
// Prints one JSON object as the last line of stdout:
//   {"correct":true,"attempted":N,"failed":0,"metrics":{NAME:{"value":V,"unit":U},...}}
// with every end-to-end metric of BENCHMARK.json (--trace=0) or every
// per-layer metric (--trace=1), and writes the full result, with the host
// fingerprint, under --out-dir/results. Exit 0 only for a valid run.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "host.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using opmbench::Result;

struct Args {
  std::map<std::string, std::string> kv;
  std::string get(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  static const char* known[] = {"workload", "seed", "seconds", "trace", "bin-dir", "digests",
                                "benchmark-json", "out-dir", "revision", "setup-probe",
                                "record-digests"};
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string_view s = argv[i];
    if (s.substr(0, 2) != "--") throw std::invalid_argument("unexpected argument " + std::string(s));
    s.remove_prefix(2);
    const std::size_t eq = s.find('=');
    const std::string key(s.substr(0, eq));
    if (std::find(std::begin(known), std::end(known), key) == std::end(known))
      throw std::invalid_argument("unknown flag --" + key);
    a.kv[key] = eq == std::string_view::npos ? "" : std::string(s.substr(eq + 1));
  }
  return a;
}

struct Declared {
  std::string name, unit;
};

/// The metric names and units BENCHMARK.json declares for this mode.
std::vector<Declared> declared_metrics(const std::string& path, bool trace) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const auto doc = opm::util::parse_json(text.str(), &error);
  const opm::util::JsonValue* list = doc ? doc->find(trace ? "per_layer" : "end_to_end") : nullptr;
  if (!list || !list->is_array()) throw std::runtime_error("cannot read metric list from " + path);
  std::vector<Declared> out;
  for (const opm::util::JsonValue& m : list->items) {
    const auto* name = m.find("name");
    const auto* unit = m.find("unit");
    if (!name || !unit) throw std::runtime_error("metric entry without name/unit in " + path);
    out.push_back({name->string, unit->string});
  }
  return out;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  out += opm::util::json_escape(s);
  out += '"';
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "opmbench: " << e.what() << "\n";
    return 2;
  }
  if (args.kv.count("setup-probe")) return opmbench::setup_probe();

  try {
    opmbench::Options opt;
    opt.bin_dir = fs::absolute(args.get("bin-dir")).string();
    opt.digests = fs::absolute(args.get("digests")).string();
    opt.self_exe = fs::canonical("/proc/self/exe").string();
    const fs::path out_dir = fs::absolute(args.get("out-dir"));
    const fs::path run_dir = out_dir / ("run-" + std::to_string(::getpid()));
    fs::remove_all(run_dir);
    fs::create_directories(run_dir);
    fs::current_path(run_dir);
    struct Cleanup {
      fs::path dir;
      ~Cleanup() {
        std::error_code ec;
        fs::current_path(dir.parent_path(), ec);
        fs::remove_all(dir, ec);
      }
    } cleanup{run_dir};

    if (args.kv.count("record-digests")) return opmbench::record_digests(opt);

    opt.workload = args.get("workload");
    opt.seed = std::stoull(args.get("seed"));
    opt.seconds = std::stoi(args.get("seconds"));
    opt.trace = args.get("trace") == "1";
    if (opt.seconds < 1 || opt.seconds > 60) throw std::invalid_argument("--seconds must be 1..60");
    const std::vector<Declared> declared =
        declared_metrics(fs::absolute(args.get("benchmark-json")).string(), opt.trace);
    const opmbench::HostFingerprint host =
        opmbench::probe_host(args.kv.count("revision") ? args.kv.at("revision") : "unknown");
    std::cerr << "opmbench: host " << host.json() << "\n";

    opmbench::Tracer tracer(opt.trace);
    const opmbench::CpuTicks ticks_before = opmbench::read_cpu_ticks();
    Result res;
    if (opt.workload == "repro-cold")
      res = opmbench::run_repro(opt, tracer);
    else if (opt.workload == "serve-hot")
      res = opmbench::run_serve(opt, tracer);
    else
      throw std::invalid_argument("unknown workload " + opt.workload);

    const double steal = opmbench::steal_pct(ticks_before, opmbench::read_cpu_ticks());
    std::cerr << "opmbench: host steal time during the run: " << steal << "%\n";

    std::map<std::string, opmbench::Metric> measured;
    for (const opmbench::Metric& m : res.metrics) measured[m.name] = m;
    std::ostringstream metrics;
    metrics << "{";
    for (std::size_t i = 0; i < declared.size(); ++i) {
      // A layer the workload does not exercise reads 0; every end-to-end
      // metric must have been measured.
      const auto it = measured.find(declared[i].name);
      if (it == measured.end() && !opt.trace)
        throw std::logic_error("metric not measured: " + declared[i].name);
      if (it != measured.end() && it->second.unit != declared[i].unit)
        throw std::logic_error("unit of " + declared[i].name + " differs from BENCHMARK.json");
      const double value = it == measured.end() ? 0.0 : it->second.value;
      metrics << (i ? "," : "") << json_str(declared[i].name)
              << ":{\"value\":" << opm::util::format_json_number(value)
              << ",\"unit\":" << json_str(declared[i].unit) << "}";
      std::cerr << "opmbench: " << declared[i].name << " = " << value << " " << declared[i].unit
                << "\n";
    }
    metrics << "}";
    const bool correct = res.problems.empty() && res.failed == 0;
    for (const std::string& p : res.problems) std::cerr << "opmbench: INVALID: " << p << "\n";

    std::ostringstream line;
    line << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << res.attempted
         << ",\"failed\":" << res.failed << ",\"metrics\":" << metrics.str() << "}";

    const std::string stem = opt.workload + "-seed" + std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0");
    fs::create_directories(out_dir / "results");
    std::ofstream record(out_dir / "results" / (stem + ".json"));
    record << "{\"workload\":" << json_str(opt.workload) << ",\"seed\":" << opt.seed
           << ",\"seconds\":" << opt.seconds << ",\"trace\":" << (opt.trace ? 1 : 0)
           << ",\"host\":" << host.json()
           << ",\"host_steal_pct\":" << opm::util::format_json_number(steal)
           << ",\"result\":" << line.str()
           << ",\"fail_ratio\":"
           << opm::util::format_json_number(
                  res.attempted ? static_cast<double>(res.failed) / static_cast<double>(res.attempted)
                                : 0.0);
    for (const auto& [key, value] : res.notes) record << "," << json_str(key) << ":" << value;
    record << ",\"problems\":[";
    for (std::size_t i = 0; i < res.problems.size(); ++i)
      record << (i ? "," : "") << json_str(res.problems[i]);
    record << "]}\n";
    if (opt.trace) {
      fs::create_directories(out_dir / "traces");
      std::ofstream(out_dir / "traces" / (stem + ".spans.jsonl")) << opmbench::spans_jsonl(tracer.spans());
      const std::string table = opmbench::layer_table(tracer.spans());
      std::ofstream(out_dir / "traces" / (stem + ".layers.tsv")) << table;
      std::cerr << table;
    }
    std::cerr << "opmbench: result written to " << (out_dir / "results" / (stem + ".json")).string()
              << "\n";
    std::cout << line.str() << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "opmbench: run failed: " << e.what() << "\n";
    return 1;
  }
}
