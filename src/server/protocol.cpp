#include "server/protocol.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace she::server {
namespace {

/// read(2) exactly `n` bytes, retrying EINTR.  Returns false on EOF at
/// byte 0 (`eof_ok` path); throws on mid-read EOF or socket error.
bool read_exact(int fd, void* dst, std::size_t n, bool eof_ok) {
  char* p = static_cast<char*>(dst);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw ProtocolError("connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw IoTimeout("read timed out");
    }
    throw std::runtime_error(std::string("read failed: ") +
                             std::strerror(errno));
  }
  return true;
}

/// sendmsg(2) all of iov[0, count), resuming after short sends and EINTR.
void send_all(int fd, iovec* iov, int count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(count);
    // MSG_NOSIGNAL: a peer that closed mid-response must surface as EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r >= 0) {
      advance_iov(iov, count, static_cast<std::size_t>(r));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw IoTimeout("write timed out");
    }
    throw std::runtime_error(std::string("write failed: ") +
                             std::strerror(errno));
  }
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kCreate: return "create";
    case Op::kInsert: return "insert";
    case Op::kInsertBulk: return "insert_bulk";
    case Op::kQuery: return "query";
    case Op::kStats: return "stats";
    case Op::kDrop: return "drop";
    case Op::kSave: return "save";
    case Op::kFlush: return "flush";
    case Op::kList: return "list";
    case Op::kShutdown: return "shutdown";
    case Op::kAuth: return "auth";
    case Op::kReplicate: return "replicate";
    case Op::kPromote: return "promote";
  }
  return "unknown";
}

const char* to_string(Status st) {
  switch (st) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kNotFound: return "not_found";
    case Status::kExists: return "exists";
    case Status::kBadRequest: return "bad_request";
    case Status::kTimeout: return "timeout";
    case Status::kUnauthorized: return "unauthorized";
    case Status::kOverloaded: return "overloaded";
    case Status::kReadOnly: return "read_only";
    case Status::kDegraded: return "degraded";
  }
  return "unknown";
}

const char* to_string(QueryType q) {
  switch (q) {
    case QueryType::kMembership: return "membership";
    case QueryType::kFrequency: return "frequency";
    case QueryType::kCardinality: return "cardinality";
    case QueryType::kTopK: return "topk";
    case QueryType::kJaccard: return "jaccard";
  }
  return "unknown";
}

Op op_from(std::uint8_t raw) {
  if (raw < static_cast<std::uint8_t>(Op::kPing) ||
      raw > static_cast<std::uint8_t>(Op::kPromote)) {
    throw ProtocolError("unknown opcode " + std::to_string(raw));
  }
  return static_cast<Op>(raw);
}

QueryType query_type_from(std::uint8_t raw) {
  if (raw < static_cast<std::uint8_t>(QueryType::kMembership) ||
      raw > static_cast<std::uint8_t>(QueryType::kJaccard)) {
    throw ProtocolError("unknown query type " + std::to_string(raw));
  }
  return static_cast<QueryType>(raw);
}

std::uint64_t read_trace_header(BinaryReader& r) {
  // A lone marker byte with no room for the id is left in place: op_from
  // then rejects 0xF5 as an unknown opcode, which is the right answer for
  // a truncated header too.
  if (r.remaining() < 9 || r.peek_u8() != kTraceHeader) return 0;
  (void)r.u8();
  return r.u64();
}

ClientSeq read_seq_header(BinaryReader& r) {
  // Like the trace header: a truncated marker is left for op_from to
  // reject as an unknown opcode.
  if (r.remaining() < 17 || r.peek_u8() != kSeqHeader) return {};
  (void)r.u8();
  ClientSeq cs;
  cs.client_id = r.u64();
  cs.client_seq = r.u64();
  return cs;
}

// ---------------------------------------------------------------- framing --

bool read_frame(int fd, std::vector<char>& body) {
  char hdr[4];
  if (!read_exact(fd, hdr, sizeof(hdr), /*eof_ok=*/true)) return false;
  const auto len = get_le<std::uint32_t>(hdr);
  if (len > kMaxFrameBytes) {
    throw ProtocolError("frame length " + std::to_string(len) +
                        " exceeds limit " + std::to_string(kMaxFrameBytes));
  }
  body.resize(len);
  if (len > 0) read_exact(fd, body.data(), len, /*eof_ok=*/false);
  return true;
}

void write_all(int fd, const void* data, std::size_t n) {
  iovec iov{const_cast<void*>(data), n};
  send_all(fd, &iov, n == 0 ? 0 : 1);
}

void write_frame(int fd, std::span<const char> body) {
  if (body.size() > kMaxFrameBytes) {
    throw ProtocolError("response body exceeds frame limit");
  }
  char len[4];
  put_le(len, static_cast<std::uint32_t>(body.size()));
  // The length and the body leave in one sendmsg, each where it lies: a
  // frame is never split by a throw between two sends, and a small
  // response costs one syscall.
  iovec iov[2] = {{len, sizeof(len)},
                  {const_cast<char*>(body.data()), body.size()}};
  send_all(fd, iov, body.empty() ? 1 : 2);
}

}  // namespace she::server
