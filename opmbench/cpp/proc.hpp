#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

/// Child processes of the benchmark: harness runs (timed to exit, with
/// their peak RSS from wait4) and long-running servers (stopped with
/// SIGTERM). Every child gets PR_SET_PDEATHSIG, so none outlives the
/// benchmark even when the benchmark itself is killed.
namespace opmbench {

/// A finished child.
///
/// CPU times: the kernel counts a thread's CPU time only while it runs,
/// and (with steal-time accounting, as on KVM guests) not while the
/// hypervisor runs another tenant on its virtual CPU. So, unlike a wall
/// time, a CPU time does not count waiting for a CPU on a busy host.
struct Exit {
  int status = -1;       ///< raw wait status
  double start_s = 0.0;  ///< mono_s() at fork
  double wall_s = 0.0;   ///< fork to reap
  double cpu_s = 0.0;    ///< user + system CPU time of all its threads (wait4)
  double maxrss_mb = 0.0;
  bool ok() const;       ///< exited normally with code 0
};

/// A started child whose stdout goes to a file.
class Child {
 public:
  /// Starts argv[0] (a path) with stdout to `stdout_path` and stderr to
  /// `stderr_path` (both truncated; "/dev/null" discards).
  Child(const std::vector<std::string>& argv, const std::string& stdout_path,
        const std::string& stderr_path);
  /// Stops a still-running child (SIGTERM, then SIGKILL after 10 s).
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Blocks until the child exits.
  Exit wait();
  /// SIGTERM, wait up to `grace_s`, then SIGKILL; returns the exit.
  Exit stop(double grace_s = 10.0);
  /// Peak resident set (VmHWM) of the running child in MB; 0 if gone.
  double vm_hwm_mb() const;
  /// CPU time (s) the running child has used so far, all its threads,
  /// exited ones included (its process CPU clock); 0 if gone.
  double cpu_s() const;

 private:
  Exit reap(int options, bool* reaped);

  pid_t pid_ = -1;
  double started_ = 0.0;
  bool done_ = false;
  Exit exit_;
};

/// Whole file contents ("" when unreadable).
std::string read_file(const std::string& path);

/// Monotonic seconds (steady clock).
double mono_s();

}  // namespace opmbench
