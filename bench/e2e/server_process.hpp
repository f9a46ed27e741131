// she_server as a child process, plus the plain-HTTP scrapes the benchmark
// takes of its /metrics, /trace and /healthz endpoints.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace she::bench::e2e {

/// One she_server process.  The constructor spawns it with `args` and
/// returns once its "she_server listening" line names both ports; the
/// destructor SIGKILLs and reaps it if it is still running.
class ServerProcess {
 public:
  /// Throws std::runtime_error when the binary cannot be spawned or exits
  /// (or stays silent for 60 s) before it is listening.  The child's
  /// stderr is appended to `stderr_log`.
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::filesystem::path& stderr_log);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::uint16_t http_port() const { return http_port_; }

  /// Resident set (VmRSS) and its peak so far (VmHWM), in MiB.
  [[nodiscard]] double rss_mib() const { return status_mib("VmRSS:"); }
  [[nodiscard]] double peak_rss_mib() const { return status_mib("VmHWM:"); }

  /// SIGKILL, then wait until the process is gone.  Idempotent.
  void kill_hard();

 private:
  [[nodiscard]] double status_mib(const std::string& field) const;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;  ///< read end of the child's stdout, kept until reaped
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;
};

/// GET `target` from 127.0.0.1:`port` and return the body of a 200 answer;
/// throws std::runtime_error on anything else.
[[nodiscard]] std::string http_get(std::uint16_t port, const std::string& target);

}  // namespace she::bench::e2e
