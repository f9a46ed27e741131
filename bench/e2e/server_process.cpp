#include "server_process.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace she::bench::e2e {
namespace {

std::uint16_t port_field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos)
    throw std::runtime_error("she_server banner lacks " + key + ": " + line);
  return static_cast<std::uint16_t>(
      std::stoul(line.substr(at + key.size())));
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::filesystem::path& stderr_log) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0)
    throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
  const int err_fd = ::open(stderr_log.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (err_fd < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw std::runtime_error("cannot open " + stderr_log.string());
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Child: async-signal-safe calls only.  The server dies with the
    // benchmark, even when the benchmark itself is SIGKILLed.
    if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != parent) _exit(127);
    if (::dup2(out[1], STDOUT_FILENO) < 0 || ::dup2(err_fd, STDERR_FILENO) < 0) _exit(127);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  const int fork_errno = errno;
  ::close(out[1]);
  ::close(err_fd);
  stdout_fd_ = out[0];
  if (pid_ < 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
    throw std::runtime_error("cannot fork for " + binary + ": " +
                             std::strerror(fork_errno));
  }
  // The banner is the only thing she_server writes to stdout.
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{stdout_fd_, POLLIN, 0};
    const int pr = left.count() > 0 ? ::poll(&p, 1, static_cast<int>(left.count())) : 0;
    if (pr < 0 && errno == EINTR) continue;
    char buf[256];
    const ssize_t n = pr > 0 ? ::read(stdout_fd_, buf, sizeof buf) : 0;
    if (n <= 0) {
      kill_hard();
      throw std::runtime_error("she_server exited or stalled before listening; see " +
                               stderr_log.string());
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  port_ = port_field(line, "proto=");
  http_port_ = port_field(line, "http=");
}

ServerProcess::~ServerProcess() { kill_hard(); }

void ServerProcess::kill_hard() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

double ServerProcess::status_mib(const std::string& field) const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == field) {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("no " + field + " for she_server pid " + std::to_string(pid_));
}

std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  std::string resp;
  try {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      throw std::runtime_error("connect to http port: " + std::string(std::strerror(errno)));
    const std::string req =
        "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(req.size()))
      throw std::runtime_error("send of HTTP request failed");
    char buf[1 << 16];
    for (;;) {
      pollfd p{fd, POLLIN, 0};
      const int pr = ::poll(&p, 1, 10'000);
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) throw std::runtime_error("HTTP GET " + target + " timed out");
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      resp.append(buf, static_cast<std::size_t>(n));
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  const std::size_t body = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.1 200", 0) != 0 || body == std::string::npos)
    throw std::runtime_error("HTTP GET " + target + " failed: " +
                             resp.substr(0, resp.find('\r')));
  return resp.substr(body + 4);
}

}  // namespace she::bench::e2e
