#include "server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/build_info.hpp"
#include "common/checkpoint.hpp"
#include "common/paged_array.hpp"
#include "obs/export.hpp"
#include "runtime/doorbell.hpp"
#include "server/http.hpp"

namespace she::server {
namespace {

using Clock = std::chrono::steady_clock;

/// How often the accept loop hands cell frames that stayed free for a whole
/// interval back to the kernel (frames::trim()).
constexpr auto kFrameTrimInterval = std::chrono::seconds(1);

/// Version of the /healthz document's field set (she_bench reads it).
constexpr int kHealthzSchemaVersion = 4;

/// Self-pipe write end for the process signal handler.  One server per
/// process may install handlers; enforced in install_signal_handlers().
std::atomic<int> g_signal_stop_fd{-1};
std::atomic<int> g_signal_promote_fd{-1};
struct sigaction g_old_sigterm;
struct sigaction g_old_sigint;
struct sigaction g_old_sigusr2;

extern "C" void she_server_on_signal(int) {
  // Async-signal-safe: one atomic load + one write(2).
  const int fd = g_signal_stop_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t r = ::write(fd, &byte, 1);
  }
}

extern "C" void she_server_on_promote_signal(int) {
  const int fd = g_signal_promote_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'p';
    [[maybe_unused]] const ssize_t r = ::write(fd, &byte, 1);
  }
}

/// Bind + listen on host:port; returns the fd and stores the actual bound
/// port (for port 0) in `bound`.
int listen_tcp(const std::string& host, std::uint16_t port,
               std::uint16_t* bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("cannot parse listen host '" + host +
                             "' (want an IPv4 address)");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("cannot listen on " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(err));
  }
  sockaddr_in got{};
  socklen_t len = sizeof(got);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len) == 0) {
    *bound = ntohs(got.sin_port);
  }
  return fd;
}

/// The body of an OK answer that carries nothing else.
constexpr char kOkBody[] = {static_cast<char>(Status::kOk)};

/// Make `out` the answer to a failed request: its status, then a message.
void fail(std::vector<char>& out, Status st, const std::string& msg) {
  out.clear();
  BinaryWriter w(out);
  w.u8(static_cast<std::uint8_t>(st));
  w.str(msg);
}

/// How long a FLUSH, SAVE or JACCARD barrier may wait: `flush_timeout_ms`,
/// cut to what is left of the request deadline (`deadline_ns` 0 = none).
/// nullopt once that deadline has passed.
std::optional<std::size_t> barrier_timeout_ms(std::size_t flush_timeout_ms,
                                              std::int64_t deadline_ns) {
  if (deadline_ns == 0) return flush_timeout_ms;
  const std::int64_t left_ms = (deadline_ns - runtime::now_ns()) / 1'000'000;
  if (left_ms <= 0) return std::nullopt;
  return std::min(flush_timeout_ms, static_cast<std::size_t>(left_ms));
}

/// Constant-time token equality: the comparison cost depends only on the
/// candidate's length (which the peer chose and already knows), never on
/// how many leading bytes match a stored token — no early exit, so
/// response timing cannot be used to guess a token byte by byte.
bool token_eq_consttime(const std::string& candidate,
                        const std::string& stored) {
  if (stored.empty()) return candidate.empty();
  unsigned diff = static_cast<unsigned>(candidate.size() ^ stored.size());
  for (std::size_t i = 0; i < candidate.size(); ++i)
    diff |= static_cast<unsigned>(
        static_cast<unsigned char>(candidate[i]) ^
        static_cast<unsigned char>(stored[i % stored.size()]));
  return diff == 0;
}

/// 1-based index of the stored token matching `candidate`, 0 when none.
/// Scans the whole list even after a match so the timing is independent
/// of which (if any) token matched.
std::size_t match_token(const std::vector<std::string>& tokens,
                        const std::string& candidate) {
  std::size_t found = 0;
  for (std::size_t t = 0; t < tokens.size(); ++t)
    if (token_eq_consttime(candidate, tokens[t]) && found == 0) found = t + 1;
  return found;
}

/// The window of a /trace target: its `ms` query parameter, matched as a
/// whole key (default 1000).  nullopt when the value is not a decimal
/// number.
std::optional<std::uint64_t> trace_window_ms(std::string_view target) {
  const std::size_t q = target.find('?');
  std::string_view query =
      q == std::string_view::npos ? std::string_view() : target.substr(q + 1);
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view param = query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view()
                                          : query.substr(amp + 1);
    const std::size_t eq = param.find('=');
    if (param.substr(0, eq) != "ms") continue;
    // A bare "ms" leaves no digits, which from_chars refuses.
    const std::string_view value =
        param.substr(eq == std::string_view::npos ? param.size() : eq + 1);
    std::uint64_t ms = 0;
    const auto [end, ec] =
        std::from_chars(value.data(), value.data() + value.size(), ms);
    if (ec != std::errc() || end != value.data() + value.size())
      return std::nullopt;
    return ms;
  }
  return 1000;
}

}  // namespace

PipelineManager::Options SheServer::manager_options() {
  PipelineManager::Options m = opt_.manager;
  m.hub = &hub_;
  return m;
}

SheServer::SheServer(ServerOptions opt)
    : opt_(std::move(opt)), hub_(registry_), manager_(manager_options()) {
  if (opt_.role != "primary" && opt_.role != "standby") {
    throw std::invalid_argument("role must be primary or standby, not '" +
                                opt_.role + "'");
  }
  if (opt_.role == "standby" && opt_.follow.empty()) {
    throw std::invalid_argument("role=standby needs --follow host:port");
  }
  if (opt_.role != "standby" && !opt_.follow.empty()) {
    throw std::invalid_argument("--follow only makes sense with role=standby");
  }
  connections_total_ = &registry_.counter(
      "she_server_connections_total",
      "protocol connections accepted over the server lifetime");
  active_connections_ = &registry_.gauge(
      "she_server_active_connections", "protocol connections currently open");
  protocol_errors_ = &registry_.counter(
      "she_server_protocol_errors_total",
      "malformed or truncated frames rejected (connection-fatal framing "
      "errors and per-request body errors)");
  pipelines_gauge_ = &registry_.gauge("she_server_pipelines",
                                      "resident named pipelines");
  slow_requests_ = &registry_.counter(
      "she_server_slow_requests_total",
      "requests slower than the configured slow_request_ms threshold");
  unauthorized_total_ = &registry_.counter(
      "she_server_unauthorized_total",
      "requests rejected kUnauthorized (missing or failed AUTH)");
  overloaded_total_ = &registry_.counter(
      "she_server_overloaded_total",
      "requests shed kOverloaded by admission control (in-flight or "
      "bytes-per-second quota)");
  deadline_shed_total_ = &registry_.counter(
      "she_server_deadline_shed_total",
      "requests answered kTimeout because the per-request deadline expired "
      "mid-operation");
  inflight_gauge_ = &registry_.gauge(
      "she_server_inflight_requests", "requests currently being dispatched");
  const char* const frame_help =
      "4 KiB estimator cell frames, by state: in use, free and resident, or "
      "free and released to the kernel";
  frames_in_use_ = &registry_.gauge("she_frame_pool_frames", frame_help,
                                    {{"state", "in_use"}});
  frames_free_ = &registry_.gauge("she_frame_pool_frames", frame_help,
                                  {{"state", "free"}});
  frames_released_ = &registry_.gauge("she_frame_pool_frames", frame_help,
                                      {{"state", "released"}});
  registry_
      .gauge("she_build_info",
             "constant 1; build metadata carried in the labels",
             {{"version", build_version()},
              {"compiler", build_compiler()},
              {"simd", build_simd_isa()},
              {"force_scalar", build_force_scalar()}})
      .set(1);
  for (std::uint8_t raw = static_cast<std::uint8_t>(Op::kPing);
       raw <= static_cast<std::uint8_t>(Op::kPromote); ++raw) {
    const Op op = static_cast<Op>(raw);
    requests_by_op_[op] =
        &registry_.counter("she_server_requests_total",
                           "requests dispatched, by opcode",
                           {{"op", to_string(op)}});
  }
  pipelines_gauge_->set(static_cast<std::int64_t>(manager_.size()));
}

SheServer::~SheServer() {
  request_stop();
  stop();
  for (int& fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  for (int& fd : promote_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void SheServer::start() {
  if (started_.exchange(true)) {
    throw std::logic_error("SheServer::start() called twice");
  }
  if (::pipe(stop_pipe_) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  start_steady_ns_ = runtime::now_ns();
  if (opt_.enable_tracing) obs::trace::set_enabled(true);
  if (!opt_.auth_token_file.empty()) {
    std::ifstream in(opt_.auth_token_file);
    if (!in) {
      throw std::runtime_error("cannot read auth token file '" +
                               opt_.auth_token_file + "'");
    }
    std::string line;
    while (std::getline(in, line)) {
      while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
        line.pop_back();
      if (!line.empty()) auth_tokens_.push_back(line);
    }
    if (auth_tokens_.empty()) {
      throw std::runtime_error("auth token file '" + opt_.auth_token_file +
                               "' holds no tokens");
    }
  }
  for (int fd : stop_pipe_) ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  if (::pipe(promote_pipe_) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  for (int fd : promote_pipe_) ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  listen_fd_ = listen_tcp(opt_.host, opt_.port, &port_);
  if (opt_.http_port >= 0) {
    http_fd_ = listen_tcp(opt_.host,
                          static_cast<std::uint16_t>(opt_.http_port),
                          &http_port_);
  }
  if (opt_.role == "standby") {
    standby_.store(true, std::memory_order_release);
    ReplicaClientOptions ro;
    ro.endpoints = opt_.follow;
    ro.auth_token = opt_.follow_token;
    replica_ = std::make_unique<ReplicaClient>(std::move(ro), manager_,
                                               registry_);
    replica_->start();
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SheServer::request_stop() noexcept {
  stop_requested_.store(true, std::memory_order_release);
  const int fd = stop_pipe_[1];
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t r = ::write(fd, &byte, 1);
  }
}

void SheServer::wait() {
  {
    std::unique_lock lk(stopped_mu_);
    if (stopped_) return;
  }
  if (stop_pipe_[0] >= 0) {
    pollfd p{stop_pipe_[0], POLLIN, 0};
    while (::poll(&p, 1, -1) < 0 && errno == EINTR) {
    }
  }
  stop();
}

void SheServer::stop() {
  std::call_once(stop_flag_, [this] {
    request_stop();
    if (accept_thread_.joinable()) accept_thread_.join();
    // Unblock every handler stuck in read()/send(), then join.  Handlers
    // never close their own fd (a close racing this shutdown could hit a
    // recycled descriptor); fds are closed here, after the join.
    {
      std::lock_guard lk(conns_mu_);
      for (auto& [id, c] : conns_) {
        if (!c.finished) ::shutdown(c.fd, SHUT_RDWR);
      }
    }
    std::map<std::uint64_t, Conn> taken;
    {
      std::lock_guard lk(conns_mu_);
      taken.swap(conns_);
    }
    for (auto& [id, c] : taken) {
      if (c.thread.joinable()) c.thread.join();
      if (c.fd >= 0) ::close(c.fd);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (http_fd_ >= 0) ::close(http_fd_);
    listen_fd_ = http_fd_ = -1;
    // Stop following before the pipelines close (the replica thread
    // applies into them).
    if (replica_) replica_->stop();
    // Drain-then-checkpoint every pipeline: a resumed server answers
    // queries as of this moment.
    manager_.close_all();
    if (signals_installed_) {
      g_signal_stop_fd.store(-1, std::memory_order_relaxed);
      g_signal_promote_fd.store(-1, std::memory_order_relaxed);
      ::sigaction(SIGTERM, &g_old_sigterm, nullptr);
      ::sigaction(SIGINT, &g_old_sigint, nullptr);
      ::sigaction(SIGUSR2, &g_old_sigusr2, nullptr);
      signals_installed_ = false;
    }
    {
      std::lock_guard lk(stopped_mu_);
      stopped_ = true;
    }
    stopped_cv_.notify_all();
  });
  // Late callers (destructor after an explicit stop()) still wait for the
  // sequence to finish before returning.
  std::unique_lock lk(stopped_mu_);
  stopped_cv_.wait(lk, [this] { return stopped_; });
}

void SheServer::install_signal_handlers() {
  if (stop_pipe_[1] < 0) {
    throw std::logic_error("install_signal_handlers() before start()");
  }
  int expected = -1;
  if (!g_signal_stop_fd.compare_exchange_strong(expected, stop_pipe_[1])) {
    throw std::logic_error("signal handlers already routed to a server");
  }
  g_signal_promote_fd.store(promote_pipe_[1], std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = she_server_on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, &g_old_sigterm);
  ::sigaction(SIGINT, &sa, &g_old_sigint);
  struct sigaction pa{};
  pa.sa_handler = she_server_on_promote_signal;
  ::sigemptyset(&pa.sa_mask);
  ::sigaction(SIGUSR2, &pa, &g_old_sigusr2);
  signals_installed_ = true;
}

void SheServer::promote() {
  if (!standby_.exchange(false, std::memory_order_acq_rel)) return;
  std::fputs("[she_server] PROMOTE: draining replication stream\n", stderr);
  if (replica_) replica_->promote();
  std::fputs("[she_server] PROMOTE: serving as primary\n", stderr);
}

// ----------------------------------------------------------- accept loop --

void SheServer::reap_finished() {
  std::vector<Conn> done;
  {
    std::lock_guard lk(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second.finished) {
        done.push_back(std::move(it->second));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (Conn& c : done) {
    if (c.thread.joinable()) c.thread.join();
    if (c.fd >= 0) ::close(c.fd);
  }
}

void SheServer::accept_loop() {
  Clock::time_point next_trim = Clock::now() + kFrameTrimInterval;
  for (;;) {
    reap_finished();
    const Clock::time_point now = Clock::now();
    if (now >= next_trim) {
      frames::trim();
      next_trim = now + kFrameTrimInterval;
    }
    // Wake at least every 500 ms to reap, and in time for the next trim.
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(next_trim - now);
    // http_fd_ is -1 without an HTTP port, and poll() ignores it then.
    pollfd fds[4] = {{listen_fd_, POLLIN, 0},
                     {http_fd_, POLLIN, 0},
                     {stop_pipe_[0], POLLIN, 0},
                     {promote_pipe_[0], POLLIN, 0}};
    const int r =
        ::poll(fds, 4, static_cast<int>(std::min<std::int64_t>(wait.count(), 500)));
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[2].revents != 0) break;
    if (fds[3].revents & POLLIN) {
      char byte;
      [[maybe_unused]] const ssize_t rd = ::read(promote_pipe_[0], &byte, 1);
      promote();
    }
    if (fds[1].revents & POLLIN) {
      // HTTP scrapes skip the max_connections cap and TCP_NODELAY.
      const int fd = ::accept(http_fd_, nullptr, nullptr);
      if (fd >= 0) {
        std::lock_guard lk(conns_mu_);
        const std::uint64_t id = next_conn_id_++;
        Conn& c = conns_[id];
        c.fd = fd;
        c.thread = std::thread([this, id, fd] { handle_http(id, fd); });
      }
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Responses are single small frames; Nagle would only delay them.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_total_->inc();
    std::lock_guard lk(conns_mu_);
    if (live_protocol_ >= opt_.max_connections) {
      ::close(fd);
      continue;
    }
    ++live_protocol_;
    const std::uint64_t id = next_conn_id_++;
    Conn& c = conns_[id];
    c.fd = fd;
    c.thread = std::thread([this, id, fd] { handle_conn(id, fd); });
  }
}

void SheServer::handle_conn(std::uint64_t id, int fd) {
  active_connections_->add(1);
  std::vector<char> body;
  std::vector<char> resp;  // each answer is built here, then sent from here
  // Connection auth state: identity 0 until a successful AUTH (identity =
  // 1-based token line).  With no token file, everything runs as 0.
  bool authed = auth_tokens_.empty();
  std::uint64_t auth_id = 0;
  const auto answer = [&](Status st, const std::string& msg) {
    fail(resp, st, msg);
    write_frame(fd, resp);
  };
  const auto require_auth = [&] {
    unauthorized_total_->inc();
    answer(Status::kUnauthorized, "AUTH required before any other op");
  };
  try {
    while (!stop_requested_.load(std::memory_order_acquire)) {
      if (!read_frame(fd, body)) break;  // clean EOF at a frame boundary
      // The request head, parsed once: the optional trace and sequence
      // headers, then the opcode.  dispatch() reads the rest of the body.
      BinaryReader req(body);
      ReqCtx ctx;
      ctx.trace_id = read_trace_header(req);
      ctx.seq = read_seq_header(req);
      Op op;
      try {
        op = op_from(req.u8());
      } catch (const ProtocolError& e) {
        // Framing is intact, so the connection stays open.  Not AUTH, so
        // an unauthenticated connection only hears that it must AUTH.
        if (!authed) {
          require_auth();
        } else {
          protocol_errors_->inc();
          answer(Status::kBadRequest, e.what());
        }
        continue;
      }
      // AUTH is handled here — it mutates connection state dispatch()
      // cannot see — and is never quota-gated (a client must always be
      // able to identify itself).
      if (op == Op::kAuth) {
        requests_by_op_[Op::kAuth]->inc();
        try {
          const std::string token = req.str();
          req.expect_done();
          const std::size_t match = match_token(auth_tokens_, token);
          if (auth_tokens_.empty() || match != 0) {
            authed = true;
            auth_id = static_cast<std::uint64_t>(match);  // 0: no token file
            write_frame(fd, kOkBody);
          } else {
            unauthorized_total_->inc();
            answer(Status::kUnauthorized, "unknown auth token");
          }
        } catch (const ProtocolError& e) {
          protocol_errors_->inc();
          answer(Status::kBadRequest, e.what());
        }
        continue;
      }
      if (!authed) {
        require_auth();
        continue;
      }
      // REPLICATE turns this connection into a one-way record stream: no
      // more requests arrive on it, so it leaves the request loop (and is
      // never admission-gated — a standby must be able to catch up while
      // the server sheds client load).
      if (op == Op::kReplicate) {
        requests_by_op_[Op::kReplicate]->inc();
        bool ok = false;
        try {
          const std::uint64_t ver = req.u64();
          req.expect_done();
          if (ver != kReplicationProtoVersion) {
            answer(Status::kBadRequest,
                   "unsupported replication protocol version " +
                       std::to_string(ver));
          } else {
            ok = true;
          }
        } catch (const ProtocolError& e) {
          protocol_errors_->inc();
          answer(Status::kBadRequest, e.what());
        }
        if (!ok) continue;
        write_frame(fd, kOkBody);
        serve_replication(fd, manager_, hub_, [this] {
          return stop_requested_.load(std::memory_order_acquire);
        });
        break;
      }
      // SHUTDOWN answers before triggering the stop sequence, so the
      // client sees its acknowledgment even though stop() tears down this
      // very connection moments later.
      if (op == Op::kShutdown) {
        requests_by_op_[Op::kShutdown]->inc();
        write_frame(fd, kOkBody);
        request_stop();
        break;
      }
      // Admission: shed *before* any work so an overloaded server answers
      // within the client's deadline instead of queueing behind it.
      const Admission adm = admit(auth_id, body.size());
      if (adm != Admission::kAdmit) {
        overloaded_total_->inc();
        answer(Status::kOverloaded,
               adm == Admission::kOverloadedGlobal
                   ? "server overloaded (global quota); retry with backoff"
                   : "client quota exceeded; retry with backoff");
        continue;
      }
      const bool tracing = obs::trace::enabled();
      // 1-in-N request sampling: unsampled requests run their dispatch
      // under a SuppressScope, so every span on this handler thread (the
      // op span and any inline estimator work) is skipped.  Spans recorded
      // by pipeline drain threads are tied to the client trace id, not
      // this thread, and are not sampled here.
      const bool sampled =
          !tracing || opt_.trace_sample <= 1 ||
          request_seq_.fetch_add(1, std::memory_order_relaxed) %
                  opt_.trace_sample ==
              0;
      const obs::trace::ThreadCursor cursor =
          tracing ? obs::trace::thread_cursor() : obs::trace::ThreadCursor{};
      const std::int64_t t0 = runtime::now_ns();
      if (opt_.request_deadline_ms != 0)
        ctx.deadline_ns =
            t0 + static_cast<std::int64_t>(opt_.request_deadline_ms) * 1'000'000;
      OpInfo info;
      try {
        if (sampled) {
          dispatch(req, op, info, ctx, resp);
        } else {
          const obs::trace::SuppressScope mute;
          dispatch(req, op, info, ctx, resp);
        }
      } catch (...) {
        release(auth_id);
        throw;
      }
      release(auth_id);
      const auto ns = static_cast<std::uint64_t>(runtime::now_ns() - t0);
      observe_request(info, ns);
      if (opt_.slow_request_ms != 0 &&
          ns >= opt_.slow_request_ms * 1'000'000ull) {
        maybe_log_slow(info, ns, cursor);
      }
      write_frame(fd, resp);
    }
  } catch (const ProtocolError& e) {
    // Framing is broken (oversized length, mid-frame EOF): the byte
    // stream cannot be resynchronized, so answer if the transport still
    // works and drop this connection.  Everyone else keeps being served.
    protocol_errors_->inc();
    try {
      answer(Status::kBadRequest, e.what());
    } catch (...) {
    }
  } catch (const std::exception&) {
    // Socket error (peer reset, shutdown() during stop): drop quietly.
  }
  ::shutdown(fd, SHUT_RDWR);
  active_connections_->add(-1);
  std::lock_guard lk(conns_mu_);
  --live_protocol_;
  const auto it = conns_.find(id);
  if (it != conns_.end()) it->second.finished = true;
}

void SheServer::handle_http(std::uint64_t id, int fd) {
  // Read the request head (bounded, with an idle timeout) and answer one
  // request; Connection: close.
  std::string head;
  try {
    char buf[2048];
    while (head.find("\r\n\r\n") == std::string::npos && head.size() < 8192) {
      pollfd p{fd, POLLIN, 0};
      const int pr = ::poll(&p, 1, 5000);
      if (pr <= 0) break;
      const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r <= 0) break;
      head.append(buf, static_cast<std::size_t>(r));
    }
    std::string resp;
    const std::optional<HttpRequest> req = parse_http_request(head);
    if (!req) {
      resp = http_response(400, "Bad Request", "text/plain", "bad request\n");
    } else if (req->method != "GET") {
      resp = http_response(405, "Method Not Allowed", "text/plain",
                           "only GET\n");
    } else if (req->target == "/healthz") {
      resp = http_response(200, "OK", "application/json", render_healthz());
    } else if (req->target == "/metrics" ||
               req->target.rfind("/metrics?", 0) == 0) {
      resp = http_response(200, "OK",
                           "text/plain; version=0.0.4; charset=utf-8",
                           render_metrics());
    } else if (req->target == "/trace" ||
               req->target.rfind("/trace?", 0) == 0) {
      // /trace?ms=N limits the export to spans from the last N ms
      // (default 1000; ms=0 = everything still in the rings).
      const std::optional<std::uint64_t> window_ms =
          trace_window_ms(req->target);
      resp = window_ms ? http_response(200, "OK", "application/json",
                                       render_trace(*window_ms))
                       : http_response(400, "Bad Request", "text/plain",
                                       "ms must be a decimal number\n");
    } else {
      resp = http_response(404, "Not Found", "text/plain", "not found\n");
    }
    write_all(fd, resp.data(), resp.size());
  } catch (const std::exception&) {
  }
  ::shutdown(fd, SHUT_RDWR);
  std::lock_guard lk(conns_mu_);
  const auto it = conns_.find(id);
  if (it != conns_.end()) it->second.finished = true;
}

std::string SheServer::render_metrics() const {
  // The pipelines and memory gauges are refreshed lazily, at export time.
  pipelines_gauge_->set(static_cast<std::int64_t>(manager_.size()));
  const frames::PoolStats pool = frames::pool_stats();
  frames_in_use_->set(
      static_cast<std::int64_t>(pool.frames - pool.free - pool.released));
  frames_free_->set(static_cast<std::int64_t>(pool.free));
  frames_released_->set(static_cast<std::int64_t>(pool.released));
  const PipelineManager::ExportSet exported = manager_.export_registries();
  std::vector<obs::LabeledRegistry> regs;
  regs.reserve(2 + exported.registries.size());
  regs.push_back({&obs::default_registry(), {}});
  regs.push_back({&registry_, {}});
  regs.insert(regs.end(), exported.registries.begin(),
              exported.registries.end());
  std::ostringstream os;
  obs::write_prometheus(os, std::span<const obs::LabeledRegistry>(regs));
  return os.str();
}

std::string SheServer::render_healthz() const {
  const std::int64_t now_ns = runtime::now_ns();
  const std::int64_t up_s =
      start_steady_ns_ > 0 ? (now_ns - start_steady_ns_) / 1'000'000'000
                           : 0;
  const std::size_t degraded = manager_.degraded_count();
  std::ostringstream os;
  os << "{\"status\":\"" << (degraded != 0 ? "degraded" : "ok")
     << "\",\"role\":\""
     << (standby_.load(std::memory_order_acquire) ? "standby" : "primary")
     << "\",\"degraded_pipelines\":" << degraded
     << ",\"uptime_s\":" << up_s
     << ",\"schema_version\":" << kHealthzSchemaVersion
     << ",\"version\":\"" << obs::json_escape(build_version())
     << "\",\"compiler\":\"" << obs::json_escape(build_compiler())
     << "\",\"simd\":\"" << obs::json_escape(build_simd_isa())
     << "\",\"force_scalar\":" << build_force_scalar()
     << ",\"tracing\":" << (obs::trace::enabled() ? "true" : "false")
     << ",\"trace_sample\":" << (opt_.trace_sample == 0 ? 1 : opt_.trace_sample)
     << ",\"auth_required\":" << (auth_tokens_.empty() ? "false" : "true")
     << ",\"request_deadline_ms\":" << opt_.request_deadline_ms
     << ",\"max_inflight\":" << opt_.max_inflight << ",\"inflight\":";
  {
    std::lock_guard lk(admission_mu_);
    os << inflight_;
  }
  os << ",\"overloaded_total\":" << overloaded_total_->value()
     << ",\"unauthorized_total\":" << unauthorized_total_->value()
     << ",\"deadline_shed_total\":" << deadline_shed_total_->value();
  if (replica_) {
    os << ",\"replication\":{\"connected\":"
       << (replica_->connected() ? "true" : "false")
       << ",\"synced\":" << (replica_->synced() ? "true" : "false")
       << ",\"lag_items\":" << replica_->lag_items() << "}";
  }
  os << ",\"pipelines\":" << manager_.size() << "}\n";
  return os.str();
}

std::string SheServer::render_trace(std::uint64_t window_ms) {
  std::ostringstream os;
  obs::trace::export_chrome_trace(os, window_ms * 1'000'000ull);
  return os.str();
}

void SheServer::observe_request(const OpInfo& info, std::uint64_t ns) {
  registry_
      .histogram("she_server_request_duration_ns",
                 "wall time per request, by opcode and target pipeline, ns",
                 {{"op", info.op},
                  {"pipeline", info.pipeline.empty() ? "-" : info.pipeline}})
      .observe(ns);
}

void SheServer::maybe_log_slow(const OpInfo& info, std::uint64_t ns,
                               const obs::trace::ThreadCursor& cursor) {
  slow_requests_->inc();
  // Rate limit the log line itself to one per second so a latency storm
  // cannot flood stderr; the counter above still sees every slow request.
  const std::int64_t now_ns = runtime::now_ns();
  std::int64_t last = last_slow_log_ns_.load(std::memory_order_relaxed);
  if (now_ns - last < 1'000'000'000 ||
      !last_slow_log_ns_.compare_exchange_strong(last, now_ns,
                                                 std::memory_order_relaxed)) {
    return;
  }
  std::ostringstream os;
  os << "[she_server] slow request: op=" << info.op << " pipeline="
     << (info.pipeline.empty() ? "-" : info.pipeline)
     << " took_ms=" << ns / 1'000'000;
  if (cursor.ring != nullptr) {
    os << " spans=[";
    const std::vector<obs::trace::CollectedSpan> spans =
        obs::trace::spans_since(cursor);
    bool first = true;
    for (const obs::trace::CollectedSpan& s : spans) {
      if (!first) os << ' ';
      first = false;
      os << s.name << ':' << s.dur_ns / 1'000'000 << "ms";
    }
    os << ']';
  }
  os << '\n';
  std::fputs(os.str().c_str(), stderr);
}

// -------------------------------------------------------------- admission --

bool SheServer::TokenBucket::take(double cost, double per_sec,
                                  std::int64_t now_ns) {
  if (per_sec <= 0) return true;  // unlimited
  const double cap = per_sec;     // burst: one second of budget
  if (last_ns == 0) tokens = cap;
  else
    tokens = std::min(
        cap, tokens + static_cast<double>(now_ns - last_ns) * 1e-9 * per_sec);
  last_ns = now_ns;
  // A request costing more than the burst would starve forever under a
  // strict `tokens >= cost` check; requiring only a full burst — while
  // still charging the whole cost, driving the bucket into debt — lets
  // oversize batches through at the configured long-run rate.
  if (tokens < std::min(cost, cap)) return false;
  tokens -= cost;
  return true;
}

SheServer::Admission SheServer::admit(std::uint64_t client,
                                      std::size_t bytes) {
  const std::int64_t now_ns = runtime::now_ns();
  std::lock_guard lk(admission_mu_);
  if (opt_.max_inflight != 0 && inflight_ >= opt_.max_inflight) {
    return Admission::kOverloadedGlobal;
  }
  ClientQuota& cq = client_quota_[client];
  if (opt_.max_inflight_per_client != 0 &&
      cq.inflight >= opt_.max_inflight_per_client) {
    return Admission::kOverloadedClient;
  }
  // Bytes budget: check the per-client bucket first so one hog drains its
  // own allowance before touching the shared pool.  Rejections must not
  // consume tokens, so the global take happens only after the client take
  // passed — and is refunded never (a global rejection after a client
  // take is the one ordering wrinkle; at these granularities it is noise).
  if (!cq.bytes.take(static_cast<double>(bytes),
                     static_cast<double>(opt_.bytes_per_sec_per_client),
                     now_ns)) {
    return Admission::kOverloadedClient;
  }
  if (!global_bytes_.take(static_cast<double>(bytes),
                          static_cast<double>(opt_.bytes_per_sec), now_ns)) {
    return Admission::kOverloadedGlobal;
  }
  ++inflight_;
  ++cq.inflight;
  inflight_gauge_->set(static_cast<std::int64_t>(inflight_));
  return Admission::kAdmit;
}

void SheServer::release(std::uint64_t client) {
  std::lock_guard lk(admission_mu_);
  if (inflight_ > 0) --inflight_;
  const auto it = client_quota_.find(client);
  if (it != client_quota_.end() && it->second.inflight > 0) {
    --it->second.inflight;
  }
  inflight_gauge_->set(static_cast<std::int64_t>(inflight_));
}

// --------------------------------------------------------------- dispatch --

void SheServer::dispatch(BinaryReader& req, Op op, OpInfo& info, ReqCtx ctx,
                         std::vector<char>& out) {
  out.clear();
  BinaryWriter resp(out);
  try {
    // The optional trace header binds this request's spans — here and in
    // every stage the work flows through — to the client-chosen trace id.
    const obs::trace::TraceIdScope trace_scope(ctx.trace_id);
    info.op = to_string(op);  // static literal; outlives the span ring
    const obs::trace::SpanGuard span(info.op, "server");
    requests_by_op_[op]->inc();
    // A standby serves reads from its replicated state but never takes
    // writes: the primary owns the stream, and a divergent standby could
    // not be promoted.  Typed kReadOnly so clients fail over, not retry.
    if (standby_.load(std::memory_order_acquire) &&
        (op == Op::kCreate || op == Op::kInsert || op == Op::kInsertBulk ||
         op == Op::kDrop)) {
      return fail(out, Status::kReadOnly,
                  "standby replica: writes go to the primary");
    }
    switch (op) {
      case Op::kPing: {
        req.expect_done();
        resp.u8(static_cast<std::uint8_t>(Status::kOk));
        break;
      }
      case Op::kCreate: {
        const std::string name = req.str();
        const std::string spec = req.str();
        req.expect_done();
        info.pipeline = name;
        manager_.create(name, spec);
        pipelines_gauge_->set(static_cast<std::int64_t>(manager_.size()));
        resp.u8(static_cast<std::uint8_t>(Status::kOk));
        break;
      }
      case Op::kInsert:
      case Op::kInsertBulk: {
        const std::string name = req.str();
        // One key or a counted run, decoded inside the connection's receive
        // buffer, which outlives this request, so routing reads the keys
        // where the socket put them.
        const std::span<const std::uint64_t> keys =
            req.u64s_in_place(op == Op::kInsert ? 1 : req.u32());
        req.expect_done();
        info.pipeline = name;
        const auto entry = manager_.find(name);
        if (!entry)
          return fail(out, Status::kNotFound, "no pipeline '" + name + "'");
        const std::uint64_t accepted = entry->insert_bulk(
            keys, ctx.seq.client_id, ctx.seq.client_seq, ctx.deadline_ns);
        if (accepted < keys.size() && ctx.deadline_ns != 0 &&
            runtime::now_ns() >= ctx.deadline_ns) {
          // Shed, not wedged: the deadline expired before some shard had
          // ring space for its sub-batch.  Each shard's sub-batch was
          // applied whole or not at all, so an idempotent client replays
          // with the same sequence number and the per-shard dedup makes
          // the retry exactly-once.
          deadline_shed_total_->inc();
          return fail(out, Status::kTimeout,
                      "request deadline exceeded (" +
                          std::to_string(accepted) + " of " +
                          std::to_string(keys.size()) +
                          " accepted, each shard's sub-batch whole or not "
                          "at all; replay is safe)");
        }
        resp.u8(static_cast<std::uint8_t>(Status::kOk));
        resp.u64(accepted);
        break;
      }
      case Op::kQuery:
        return do_query(req, info, ctx, out);
      case Op::kStats: {
        const std::string name = req.str();
        req.expect_done();
        info.pipeline = name;
        const auto entry = manager_.find(name);
        if (!entry)
          return fail(out, Status::kNotFound, "no pipeline '" + name + "'");
        resp.u8(static_cast<std::uint8_t>(Status::kOk));
        std::ostringstream json;
        obs::write_json(json, entry->monitor().metrics_registry());
        resp.str(json.str());
        break;
      }
      case Op::kDrop: {
        const std::string name = req.str();
        req.expect_done();
        info.pipeline = name;
        if (!manager_.drop(name)) {
          return fail(out, Status::kNotFound, "no pipeline '" + name + "'");
        }
        pipelines_gauge_->set(static_cast<std::int64_t>(manager_.size()));
        resp.u8(static_cast<std::uint8_t>(Status::kOk));
        break;
      }
      case Op::kSave:
      case Op::kFlush: {
        const std::string name = req.str();
        req.expect_done();
        info.pipeline = name;
        const auto entry = manager_.find(name);
        if (!entry)
          return fail(out, Status::kNotFound, "no pipeline '" + name + "'");
        const auto timeout_ms =
            barrier_timeout_ms(opt_.flush_timeout_ms, ctx.deadline_ns);
        if (!timeout_ms) {
          deadline_shed_total_->inc();
          return fail(out, Status::kTimeout, "request deadline exceeded");
        }
        const bool done = op == Op::kSave
                              ? entry->monitor().save_now(*timeout_ms)
                              : entry->monitor().flush(*timeout_ms);
        if (!done) {
          return fail(out, Status::kTimeout,
                      std::string(op == Op::kSave ? "save" : "flush") +
                          " barrier timed out");
        }
        resp.u8(static_cast<std::uint8_t>(Status::kOk));
        break;
      }
      case Op::kList: {
        req.expect_done();
        const std::vector<std::string> names = manager_.names();
        resp.u8(static_cast<std::uint8_t>(Status::kOk));
        resp.u32(static_cast<std::uint32_t>(names.size()));
        for (const std::string& n : names) resp.str(n);
        break;
      }
      case Op::kShutdown:
      case Op::kAuth:
      case Op::kReplicate:
        // Connection-level ops: handle_conn answers them itself.
        return fail(out, Status::kBadRequest, "not a dispatched op");
      case Op::kPromote: {
        req.expect_done();
        promote();
        resp.u8(static_cast<std::uint8_t>(Status::kOk));
        break;
      }
    }
  } catch (const ProtocolError& e) {
    // Body-level garbage inside an intact frame: framing survives, so the
    // connection keeps going after the error answer.  Only the request's
    // reader raises this DecodeError; a DiskFault, WalError or
    // CheckpointError is a sibling, the server's own failure, and lands
    // below as kError or kDegraded.
    protocol_errors_->inc();
    return fail(out, Status::kBadRequest, e.what());
  } catch (const AlreadyExists& e) {
    return fail(out, Status::kExists, e.what());
  } catch (const std::invalid_argument& e) {
    return fail(out, Status::kBadRequest, e.what());
  } catch (const runtime::DegradedError& e) {
    // Disk fault parked the pipeline read-only: typed so clients can tell
    // "this node cannot take writes right now" from a generic failure.
    return fail(out, Status::kDegraded, e.what());
  } catch (const std::exception& e) {
    return fail(out, Status::kError, e.what());
  }
}

void SheServer::do_query(BinaryReader& req, OpInfo& info, ReqCtx ctx,
                         std::vector<char>& out) {
  const std::string name = req.str();
  const QueryType qt = query_type_from(req.u8());
  info.pipeline = name;
  const auto entry = manager_.find(name);
  if (!entry) return fail(out, Status::kNotFound, "no pipeline '" + name + "'");
  ConcurrentMonitor& mon = entry->monitor();
  // Each shard read loads the shard's published view: a shared_ptr to an
  // immutable StreamMonitor that no pipeline owns, held for the read.  A
  // DROP racing this request cannot free it, and a re-CREATE under the
  // same name publishes into its own entry, never into this one.
  const auto merged_report = [&](std::size_t top_k) {
    SHE_TRACE_SPAN("query.shard_merge", "server");
    return mon.report(top_k);
  };
  BinaryWriter resp(out);
  switch (qt) {
    case QueryType::kMembership: {
      const std::uint64_t key = req.u64();
      req.expect_done();
      SHE_TRACE_SPAN("query.shard_read", "server");
      const bool present = mon.seen(key);
      resp.u8(static_cast<std::uint8_t>(Status::kOk));
      resp.u8(present ? 1 : 0);
      break;
    }
    case QueryType::kFrequency: {
      const std::uint64_t key = req.u64();
      req.expect_done();
      SHE_TRACE_SPAN("query.shard_read", "server");
      resp.u8(static_cast<std::uint8_t>(Status::kOk));
      resp.u64(mon.frequency(key));
      break;
    }
    case QueryType::kCardinality: {
      req.expect_done();
      const MonitorReport rep = merged_report(0);
      if (!rep.cardinality) {
        return fail(out, Status::kBadRequest,
                    "pipeline '" + name + "' does not track cardinality");
      }
      resp.u8(static_cast<std::uint8_t>(Status::kOk));
      resp.f64(*rep.cardinality);
      break;
    }
    case QueryType::kTopK: {
      const std::uint32_t k = req.u32();
      req.expect_done();
      const MonitorReport rep = merged_report(k);
      resp.u8(static_cast<std::uint8_t>(Status::kOk));
      resp.u32(static_cast<std::uint32_t>(rep.top.size()));
      for (const HeavyHitters::Entry& e : rep.top) {
        resp.u64(e.key);
        resp.u64(e.estimate);
      }
      break;
    }
    case QueryType::kJaccard: {
      const std::string other_name = req.str();
      req.expect_done();
      const auto other = manager_.find(other_name);
      if (!other) {
        return fail(out, Status::kNotFound, "no pipeline '" + other_name + "'");
      }
      // SHE-MH signatures compare at matching stream times; flush both so
      // the published snapshots reflect everything accepted so far.  The
      // request deadline bounds the barriers like it does FLUSH itself.
      const auto timeout_ms =
          barrier_timeout_ms(opt_.flush_timeout_ms, ctx.deadline_ns);
      if (!timeout_ms) {
        deadline_shed_total_->inc();
        return fail(out, Status::kTimeout, "request deadline exceeded");
      }
      mon.flush(*timeout_ms);
      other->monitor().flush(*timeout_ms);
      const double j = ConcurrentMonitor::jaccard(mon, other->monitor());
      resp.u8(static_cast<std::uint8_t>(Status::kOk));
      resp.f64(j);
      break;
    }
  }
}

}  // namespace she::server
