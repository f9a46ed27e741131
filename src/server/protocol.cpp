#include "server/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "common/io.hpp"

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

std::uint32_t load_u32le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t load_u64le(const char* p) {
  return static_cast<std::uint64_t>(load_u32le(p)) |
         (static_cast<std::uint64_t>(load_u32le(p + 4)) << 32);
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

// --------------------------------------------------------------- encoding --

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s);
}

void WireWriter::raw(std::span<const char> b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

std::uint8_t WireReader::u8() {
  if (remaining() < 1) throw ProtocolError("body truncated reading u8");
  return static_cast<std::uint8_t>(body_[pos_++]);
}

std::uint32_t WireReader::u32() {
  if (remaining() < 4) throw ProtocolError("body truncated reading u32");
  const std::uint32_t v = load_u32le(body_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (remaining() < 8) throw ProtocolError("body truncated reading u64");
  const std::uint64_t v = load_u64le(body_.data() + pos_);
  pos_ += 8;
  return v;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  const std::uint32_t len = u32();
  if (remaining() < len) throw ProtocolError("body truncated reading string");
  std::string s(body_.data() + pos_, len);
  pos_ += len;
  return s;
}

std::span<const std::uint64_t> WireReader::u64s_in_place(std::uint32_t n) {
  const std::size_t bytes = static_cast<std::size_t>(n) * 8;
  if (remaining() < bytes) throw ProtocolError("body truncated reading u64s");
  if (mutable_ == nullptr)
    throw std::logic_error("u64s_in_place: the body is read-only");
  // The body is a std::vector<char>, whose storage operator new aligns
  // for any fundamental type, so rounding the offset down aligns the words.
  static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= alignof(std::uint64_t));
  char* const dst = mutable_ + (pos_ & ~std::size_t{7});
  // memmove implicitly creates the u64 objects in the body and returns a
  // pointer to them, so reading the words through it is defined.
  auto* const words = static_cast<std::uint64_t*>(
      std::memmove(dst, mutable_ + pos_, bytes));
  pos_ += bytes;
  if constexpr (std::endian::native != std::endian::little) {
    for (std::uint32_t i = 0; i < n; ++i) words[i] = to_le(words[i]);
  }
  return {words, n};
}

std::uint8_t WireReader::peek_u8() const {
  if (remaining() < 1) throw ProtocolError("body truncated peeking u8");
  return static_cast<std::uint8_t>(body_[pos_]);
}

void WireReader::expect_done() const {
  if (pos_ != body_.size()) {
    throw ProtocolError("trailing bytes after request body");
  }
}

std::uint64_t read_trace_header(WireReader& r) {
  // A lone marker byte with no room for the id is left in place: op_from
  // then rejects 0xF5 as an unknown opcode, which is the right answer for
  // a truncated header too.
  if (r.remaining() < 9 || r.peek_u8() != kTraceHeader) return 0;
  (void)r.u8();
  return r.u64();
}

ClientSeq read_seq_header(WireReader& r) {
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
  const std::uint32_t len = load_u32le(hdr);
  if (len > kMaxFrameBytes) {
    throw ProtocolError("frame length " + std::to_string(len) +
                        " exceeds limit " + std::to_string(kMaxFrameBytes));
  }
  body.resize(len);
  if (len > 0) read_exact(fd, body.data(), len, /*eof_ok=*/false);
  return true;
}

void write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    // send(MSG_NOSIGNAL) instead of write: a peer that closed mid-response
    // must surface as EPIPE, not kill the process with SIGPIPE.
    const ssize_t r = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (r >= 0) {
      sent += static_cast<std::size_t>(r);
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

void write_frame(int fd, std::span<const char> body) {
  if (body.size() > kMaxFrameBytes) {
    throw ProtocolError("response body exceeds frame limit");
  }
  char hdr[4];
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i)
    hdr[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  // Header and body go out in one write_all so a frame is never split by
  // a throw between two sends, and small responses cost one syscall.
  std::vector<char> out;
  out.reserve(4 + body.size());
  out.insert(out.end(), hdr, hdr + 4);
  out.insert(out.end(), body.begin(), body.end());
  write_all(fd, out.data(), out.size());
}

}  // namespace she::server
