#pragma once

#include <string>

/// The identity of the host and build that produced a result. Throughput
/// of these kernels shifts by large factors between CPU generations, so a
/// number is only comparable with one taken under the same fingerprint.
namespace opmbench {

struct HostFingerprint {
  std::string cpu_model;   ///< /proc/cpuinfo "model name"
  int nproc = 0;           ///< CPUs this process may run on
  std::string caches;      ///< e.g. "L1d:48K L1i:32K L2:2048K L3:107520K"
  std::string compiler;    ///< compiler id and version of this build
  std::string build_type;  ///< CMAKE_BUILD_TYPE of this build
  std::string revision;    ///< source revision (git hash or source-tree digest)

  /// Hash of every field but the revision: equal ids mean the same host
  /// and build configuration, so absolute numbers may be compared.
  std::string id() const;
  /// One JSON object with every field plus "id".
  std::string json() const;
};

/// Probes the running host; `revision` is passed through.
HostFingerprint probe_host(const std::string& revision);

/// Cumulative CPU time of the whole machine from /proc/stat, in ticks.
struct CpuTicks {
  unsigned long long steal = 0;  ///< time the hypervisor ran something else
  unsigned long long total = 0;
};
CpuTicks read_cpu_ticks();

/// Steal time between two readings as a percentage of all CPU time: how
/// much of the run other tenants of a virtualized host took. Runs of one
/// code that differ much in it are not comparable. 0 when unavailable.
double steal_pct(const CpuTicks& before, const CpuTicks& after);

}  // namespace opmbench
