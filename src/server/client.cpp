#include "server/client.hpp"

#include "server/replica.hpp"  // parse_endpoint

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>

namespace she::server {
namespace {

/// Non-zero random identity; the zero id means "no identity" on the wire.
std::uint64_t random_client_id() {
  std::random_device rd;
  std::uint64_t id = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  return id == 0 ? 1 : id;
}

void set_io_deadline(int fd, std::uint64_t ms) {
  if (ms == 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// connect(2) bounded by `timeout_ms` (0 = plain blocking connect).
/// Throws IoTimeout when the deadline expires, std::runtime_error on
/// every other failure.  Leaves the fd in blocking mode.
void connect_bounded(int fd, const sockaddr_in& addr, const std::string& where,
                     std::uint64_t timeout_ms) {
  const auto* sa = reinterpret_cast<const sockaddr*>(&addr);
  if (timeout_ms == 0) {
    if (::connect(fd, sa, sizeof(addr)) != 0) {
      throw std::runtime_error("cannot connect to " + where + ": " +
                               std::strerror(errno));
    }
    return;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, sa, sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      throw std::runtime_error("cannot connect to " + where + ": " +
                               std::strerror(errno));
    }
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    int r;
    do {
      r = ::poll(&p, 1, static_cast<int>(timeout_ms));
    } while (r < 0 && errno == EINTR);
    if (r == 0) {
      throw IoTimeout("connect to " + where + " timed out after " +
                      std::to_string(timeout_ms) + "ms");
    }
    if (r < 0) {
      throw std::runtime_error("cannot connect to " + where + ": poll: " +
                               std::strerror(errno));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      throw std::runtime_error("cannot connect to " + where + ": " +
                               std::strerror(err));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
}

/// Throw ClientError unless `resp` answers OK.
void expect_ok(const std::vector<char>& resp) {
  BinaryReader r(resp);
  const auto status = static_cast<Status>(r.u8());
  if (status == Status::kOk) return;
  std::string msg;
  try {
    msg = r.str();
  } catch (const DecodeError&) {
    msg = "(no message)";
  }
  throw ClientError(status, msg);
}

/// A reader over an OK answer's payload: the bytes after its status.
BinaryReader payload(const std::vector<char>& resp) {
  return BinaryReader(std::span<const char>(resp).subspan(1));
}
BinaryReader payload(const std::vector<char>&&) = delete;  // would dangle

}  // namespace

SheClient::SheClient(const std::string& host, std::uint16_t port,
                     ClientOptions opt)
    : endpoints_{{host.empty() ? "127.0.0.1" : host, port}},
      opt_(std::move(opt)),
      client_id_(opt_.client_id != 0 ? opt_.client_id : random_client_id()) {
  connect_now();
}

SheClient::SheClient(const std::vector<std::string>& endpoints,
                     ClientOptions opt)
    : opt_(std::move(opt)),
      client_id_(opt_.client_id != 0 ? opt_.client_id : random_client_id()) {
  if (endpoints.empty()) {
    throw std::invalid_argument("SheClient needs at least one endpoint");
  }
  endpoints_.reserve(endpoints.size());
  for (const std::string& e : endpoints) endpoints_.push_back(parse_endpoint(e));
  connect_now();
}

SheClient::~SheClient() { disconnect(); }

SheClient::SheClient(SheClient&& other) noexcept
    : endpoints_(std::move(other.endpoints_)),
      current_(other.current_),
      opt_(std::move(other.opt_)),
      fd_(other.fd_),
      trace_id_(other.trace_id_),
      client_id_(other.client_id_),
      seq_(other.seq_) {
  other.fd_ = -1;
}

SheClient& SheClient::operator=(SheClient&& other) noexcept {
  if (this != &other) {
    disconnect();
    endpoints_ = std::move(other.endpoints_);
    current_ = other.current_;
    opt_ = std::move(other.opt_);
    fd_ = other.fd_;
    trace_id_ = other.trace_id_;
    client_id_ = other.client_id_;
    seq_ = other.seq_;
    other.fd_ = -1;
  }
  return *this;
}

void SheClient::rotate() noexcept {
  if (endpoints_.size() > 1) current_ = (current_ + 1) % endpoints_.size();
}

void SheClient::disconnect() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void SheClient::connect_now() {
  // Try every endpoint once, starting at current_ so a client that failed
  // over sticks with the endpoint that worked.  The last failure wins when
  // none of them answers; roundtrip()'s backoff loop wraps the whole scan.
  disconnect();
  std::exception_ptr last;
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const std::size_t idx = (current_ + i) % endpoints_.size();
    try {
      connect_endpoint(endpoints_[idx].first, endpoints_[idx].second);
      current_ = idx;
      return;
    } catch (...) {
      last = std::current_exception();
    }
  }
  std::rethrow_exception(last);
}

void SheClient::connect_endpoint(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("cannot parse host '" + host +
                             "' (want an IPv4 address)");
  }
  try {
    connect_bounded(fd, addr, host + ":" + std::to_string(port),
                    opt_.connect_timeout_ms);
  } catch (...) {
    ::close(fd);
    throw;
  }
  // Strict request/response protocol with small frames: Nagle only adds
  // latency here, never useful coalescing.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  set_io_deadline(fd, opt_.io_timeout_ms);
  fd_ = fd;

  if (!opt_.auth_token.empty()) {
    // Authenticate before anything else touches the connection.  Failure
    // closes the fd so a half-authenticated client can never leak out.
    try {
      std::vector<char> req;
      BinaryWriter w(req);
      w.u8(static_cast<std::uint8_t>(Op::kAuth));
      w.str(opt_.auth_token);
      expect_ok(exchange_raw(req));
    } catch (...) {
      disconnect();
      throw;
    }
  }
}

std::vector<char> SheClient::exchange_raw(std::span<const char> body) {
  write_frame(fd_, body);
  std::vector<char> resp;
  if (!read_frame(fd_, resp)) {
    throw std::runtime_error("server closed the connection");
  }
  return resp;
}

std::vector<char> SheClient::roundtrip_raw(std::span<const char> body) {
  if (fd_ < 0) connect_now();
  try {
    return exchange_raw(body);
  } catch (...) {
    // The stream is desynchronized (partial send, missing response, or a
    // late one still in flight); never reuse the connection.
    disconnect();
    throw;
  }
}

BinaryWriter SheClient::start(std::vector<char>& req, Op op,
                              ClientSeq cs) const {
  BinaryWriter w(req);
  if (trace_id_ != 0) {
    w.u8(kTraceHeader);
    w.u64(trace_id_);
  }
  if (cs.client_id != 0) {
    w.u8(kSeqHeader);
    w.u64(cs.client_id);
    w.u64(cs.client_seq);
  }
  w.u8(static_cast<std::uint8_t>(op));
  return w;
}

std::vector<char> SheClient::roundtrip(std::span<const char> req,
                                       bool replayable, ClientSeq cs) {
  // Every replay re-sends the identical bytes — same client_seq, so the
  // server dedups lost-ack retries instead of double-counting them.
  std::uint64_t backoff_ms = opt_.backoff_initial_ms;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      if (fd_ < 0) connect_now();
      std::vector<char> resp = exchange_raw(req);
      expect_ok(resp);
      return resp;
    } catch (const IoTimeout&) {
      // A missed io deadline means the response may still arrive later;
      // drop the stream.  The caller owns the clock — retrying here
      // would silently double their deadline.
      disconnect();
      throw;
    } catch (const ClientError& e) {
      // Overload is shed before any work, so replaying it is safe for
      // every op.  A generic server error (e.g. a failed backlog-log
      // append under fault injection) is only retried when the request
      // carries a sequence header: the server's dedup table then makes
      // the replay exactly-once no matter how far the failed attempt got.
      // kReadOnly means a standby answered (it sheds writes before any
      // work): rotate to the next endpoint and replay — during a
      // failover the promoted server eventually takes the request.
      bool retryable = e.status() == Status::kOverloaded ||
                       (e.status() == Status::kError && cs.client_id != 0);
      if (e.status() == Status::kReadOnly) {
        disconnect();
        rotate();
        retryable = true;
      }
      if (!retryable || attempt >= opt_.max_retries) throw;
    } catch (const std::exception&) {
      // Transport failure: the server may be gone for good — aim the
      // reconnect at the next endpoint first (connect_now still falls
      // back through the full list).
      disconnect();
      rotate();
      if (!replayable || attempt >= opt_.max_retries) throw;
    }
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    backoff_ms = std::min(std::max<std::uint64_t>(backoff_ms, 1) * 2,
                          opt_.backoff_max_ms);
  }
}

void SheClient::ping() {
  std::vector<char> req;
  start(req, Op::kPing);
  roundtrip(req, /*replayable=*/true);
}

void SheClient::create(const std::string& name, const std::string& spec) {
  std::vector<char> req;
  BinaryWriter w = start(req, Op::kCreate);
  w.str(name);
  w.str(spec);
  roundtrip(req, /*replayable=*/false);
}

void SheClient::drop(const std::string& name) {
  std::vector<char> req;
  start(req, Op::kDrop).str(name);
  roundtrip(req, /*replayable=*/false);
}

void SheClient::save(const std::string& name) {
  std::vector<char> req;
  start(req, Op::kSave).str(name);
  roundtrip(req, /*replayable=*/false);
}

void SheClient::flush(const std::string& name) {
  std::vector<char> req;
  start(req, Op::kFlush).str(name);
  roundtrip(req, /*replayable=*/false);
}

std::vector<std::string> SheClient::list() {
  std::vector<char> req;
  start(req, Op::kList);
  const std::vector<char> resp = roundtrip(req, /*replayable=*/true);
  BinaryReader r = payload(resp);
  const std::uint32_t n = r.u32();
  r.expect_remaining(std::uint64_t{n} * 4);  // each name has a length
  std::vector<std::string> names;
  names.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) names.push_back(r.str());
  return names;
}

std::string SheClient::stats_json(const std::string& name) {
  std::vector<char> req;
  start(req, Op::kStats).str(name);
  const std::vector<char> resp = roundtrip(req, /*replayable=*/true);
  return payload(resp).str();
}

std::uint64_t SheClient::insert(const std::string& name, std::uint64_t key) {
  const ClientSeq cs{client_id_, ++seq_};
  std::vector<char> req;
  BinaryWriter w = start(req, Op::kInsert, cs);
  w.str(name);
  w.u64(key);
  const std::vector<char> resp = roundtrip(req, /*replayable=*/true, cs);
  return payload(resp).u64();
}

std::uint64_t SheClient::insert_bulk(const std::string& name,
                                     std::span<const std::uint64_t> keys) {
  const ClientSeq cs{client_id_, ++seq_};
  std::vector<char> req;
  BinaryWriter w = start(req, Op::kInsertBulk, cs);
  w.str(name);
  w.u32(static_cast<std::uint32_t>(keys.size()));
  w.cells(keys);
  const std::vector<char> resp = roundtrip(req, /*replayable=*/true, cs);
  return payload(resp).u64();
}

bool SheClient::query_membership(const std::string& name, std::uint64_t key) {
  std::vector<char> req;
  BinaryWriter w = start(req, Op::kQuery);
  w.str(name);
  w.u8(static_cast<std::uint8_t>(QueryType::kMembership));
  w.u64(key);
  const std::vector<char> resp = roundtrip(req, /*replayable=*/true);
  return payload(resp).u8() != 0;
}

std::uint64_t SheClient::query_frequency(const std::string& name,
                                         std::uint64_t key) {
  std::vector<char> req;
  BinaryWriter w = start(req, Op::kQuery);
  w.str(name);
  w.u8(static_cast<std::uint8_t>(QueryType::kFrequency));
  w.u64(key);
  const std::vector<char> resp = roundtrip(req, /*replayable=*/true);
  return payload(resp).u64();
}

double SheClient::query_cardinality(const std::string& name) {
  std::vector<char> req;
  BinaryWriter w = start(req, Op::kQuery);
  w.str(name);
  w.u8(static_cast<std::uint8_t>(QueryType::kCardinality));
  const std::vector<char> resp = roundtrip(req, /*replayable=*/true);
  return payload(resp).f64();
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> SheClient::query_topk(
    const std::string& name, std::uint32_t k) {
  std::vector<char> req;
  BinaryWriter w = start(req, Op::kQuery);
  w.str(name);
  w.u8(static_cast<std::uint8_t>(QueryType::kTopK));
  w.u32(k);
  const std::vector<char> resp = roundtrip(req, /*replayable=*/true);
  BinaryReader r = payload(resp);
  const std::uint32_t n = r.u32();
  r.expect_remaining(std::uint64_t{n} * 16);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> top;
  top.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t key = r.u64();
    const std::uint64_t est = r.u64();
    top.emplace_back(key, est);
  }
  return top;
}

double SheClient::query_jaccard(const std::string& name,
                                const std::string& other) {
  std::vector<char> req;
  BinaryWriter w = start(req, Op::kQuery);
  w.str(name);
  w.u8(static_cast<std::uint8_t>(QueryType::kJaccard));
  w.str(other);
  const std::vector<char> resp = roundtrip(req, /*replayable=*/true);
  return payload(resp).f64();
}

void SheClient::shutdown_server() {
  std::vector<char> req;
  start(req, Op::kShutdown);
  roundtrip(req, /*replayable=*/false);
}

void SheClient::promote() {
  std::vector<char> req;
  start(req, Op::kPromote);
  roundtrip(req, /*replayable=*/true);  // idempotent on the server
}

}  // namespace she::server
