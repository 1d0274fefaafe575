#include "host.hpp"

#include <sched.h>

#include <fstream>
#include <sstream>

#include "util/fingerprint.hpp"
#include "util/json.hpp"

namespace opmbench {
namespace {

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  out += opm::util::json_escape(s);
  out += '"';
  return out;
}

}  // namespace

std::string HostFingerprint::id() const {
  opm::util::Hasher128 h;
  h.add(std::string_view(cpu_model)).add(static_cast<std::uint64_t>(nproc));
  h.add(std::string_view(caches)).add(std::string_view(compiler));
  h.add(std::string_view(build_type));
  return h.digest().hex().substr(0, 16);
}

std::string HostFingerprint::json() const {
  std::ostringstream os;
  os << "{\"id\":" << json_string(id()) << ",\"cpu_model\":" << json_string(cpu_model)
     << ",\"nproc\":" << nproc << ",\"caches\":" << json_string(caches)
     << ",\"compiler\":" << json_string(compiler) << ",\"build_type\":" << json_string(build_type)
     << ",\"revision\":" << json_string(revision) << "}";
  return os.str();
}

CpuTicks read_cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  std::istringstream in(first_line("/proc/stat"));
  std::string label;
  in >> label;
  CpuTicks t;
  unsigned long long v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {  // guest time is already in user
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_pct(const CpuTicks& before, const CpuTicks& after) {
  const unsigned long long total = after.total - before.total;
  return total ? 100.0 * static_cast<double>(after.steal - before.steal) / static_cast<double>(total)
               : 0.0;
}

HostFingerprint probe_host(const std::string& revision) {
  HostFingerprint fp;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      fp.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  fp.nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    const std::string level = first_line(dir + "/level");
    if (level.empty()) break;
    const std::string type = first_line(dir + "/type");
    const std::string suffix = type == "Data" ? "d" : type == "Instruction" ? "i" : "";
    if (!fp.caches.empty()) fp.caches += ' ';
    fp.caches += "L" + level + suffix + ":" + first_line(dir + "/size");
  }
  fp.compiler = OPMBENCH_CXX;
  fp.build_type = OPMBENCH_BUILD_TYPE;
  fp.revision = revision;
  return fp;
}

}  // namespace opmbench
