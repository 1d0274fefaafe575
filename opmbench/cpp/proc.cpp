#include "proc.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace opmbench {
namespace {

pid_t spawn(const std::vector<std::string>& argv, const std::string& out, const std::string& err) {
  // Everything the child touches before exec is prepared here: after
  // fork() only async-signal-safe calls are allowed.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int out_fd = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const int err_fd = ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out_fd < 0 || err_fd < 0) {
    if (out_fd >= 0) ::close(out_fd);
    if (err_fd >= 0) ::close(err_fd);
    throw std::runtime_error("cannot open child output " + out);
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out_fd, 1);
    ::dup2(err_fd, 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(out_fd);
  ::close(err_fd);
  if (pid < 0) throw std::runtime_error("fork failed for " + argv[0]);
  return pid;
}

double cpu_of(const rusage& ru) {
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

}  // namespace

double mono_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Exit::ok() const { return status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0; }

Child::Child(const std::vector<std::string>& argv, const std::string& stdout_path,
             const std::string& stderr_path)
    : started_(mono_s()) {
  pid_ = spawn(argv, stdout_path, stderr_path);
}

Child::~Child() {
  if (!done_) stop();
}

Exit Child::reap(int options, bool* reaped) {
  int status = 0;
  rusage ru{};
  pid_t got;
  do {
    got = ::wait4(pid_, &status, options, &ru);
  } while (got < 0 && errno == EINTR);
  *reaped = got == pid_;
  if (*reaped) {
    done_ = true;
    exit_.status = status;
    exit_.start_s = started_;
    exit_.wall_s = mono_s() - started_;
    exit_.cpu_s = cpu_of(ru);
    exit_.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  } else if (got < 0) {
    done_ = true;  // not our child any more (already reaped)
  }
  return exit_;
}

Exit Child::wait() {
  bool reaped = false;
  if (!done_) reap(0, &reaped);
  return exit_;
}

Exit Child::stop(double grace_s) {
  if (done_) return exit_;
  ::kill(pid_, SIGTERM);
  const double limit = mono_s() + grace_s;
  bool reaped = false;
  while (!done_ && mono_s() < limit) {
    reap(WNOHANG, &reaped);
    if (!done_) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!done_) {
    ::kill(pid_, SIGKILL);
    reap(0, &reaped);
  }
  return exit_;
}

double Child::vm_hwm_mb() const {
  if (done_) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double Child::cpu_s() const {
  clockid_t clock;
  timespec ts{};
  if (done_ || ::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &ts) != 0)
    return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace opmbench
