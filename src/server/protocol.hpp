// she_server wire protocol — length-prefixed binary frames over TCP.
//
// Every message (request or response) is one frame:
//
//   offset  size  field
//   ------  ----  -------------------------------------------
//        0     4  body length in bytes (u32, little-endian)
//        4     n  body
//
// A request body is `u8 opcode` followed by opcode-specific fields; a
// response body is `u8 status` followed by status/opcode-specific fields.
// The fields are common/io.hpp's, written by BinaryWriter and read by
// BinaryReader: fixed-width little-endian integers, and strings as
// `u32 length + bytes` (no terminator).  The frame length is bounded by
// kMaxFrameBytes so a garbage prefix can never make the server allocate
// gigabytes.  A body that runs past its end, leaves trailing bytes or
// names an unknown opcode is a ProtocolError (the codec's DecodeError):
// the server counts it, answers kBadRequest and keeps the connection.  A
// broken frame (oversized length, EOF mid-frame) is answered when the
// transport still permits, then that connection is dropped (a byte stream
// cannot be resynchronized), while every other connection keeps being
// served.
//
// Request bodies:
//   PING
//   CREATE       str name, str spec          (spec: see parse_sketch_spec)
//   INSERT       str name, u64 key
//   INSERT_BULK  str name, u32 n, n x u64 keys
//   QUERY        str name, u8 query_type, then per type:
//                  MEMBERSHIP / FREQUENCY: u64 key
//                  CARDINALITY: -
//                  TOPK: u32 k
//                  JACCARD: str other_pipeline
//   STATS        str name
//   DROP         str name
//   SAVE         str name                    (checkpoint now)
//   FLUSH        str name                    (drain-then-publish barrier)
//   LIST
//   SHUTDOWN
//   AUTH         str token                   (required first op when the
//                                             server has an auth file)
//   REPLICATE    u64 proto_version           (standby subscribes; the
//                                             connection becomes a one-way
//                                             replication stream of
//                                             records, see replica.hpp)
//   PROMOTE                                  (standby only: drain the
//                                             stream, become primary)
//
// Response bodies (after `u8 status`; error statuses carry `str message`):
//   PING/CREATE/DROP/SAVE/FLUSH/SHUTDOWN: -
//   INSERT / INSERT_BULK: u64 accepted
//   QUERY MEMBERSHIP: u8 present
//   QUERY FREQUENCY:  u64 estimate
//   QUERY CARDINALITY / JACCARD: f64 estimate
//   QUERY TOPK: u32 n, n x (u64 key, u64 estimate)
//   STATS: str the pipeline's metric registry as obs::write_json renders
//          it (the series /metrics shows under pipeline="<name>")
//   LIST:  u32 n, n x str name
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/io.hpp"

namespace she::server {

/// Typed rejection for malformed frames and bodies: oversized lengths,
/// reads past the end of a body, trailing bytes, unknown opcodes.  It is
/// the byte codec's DecodeError, so whatever a BinaryReader rejects while
/// parsing a request is a bad request.
using ProtocolError = DecodeError;

/// A socket read/write missed its deadline (SO_RCVTIMEO / SO_SNDTIMEO on
/// the fd).  Distinct from generic transport errors so deadline-aware
/// callers can treat "slow" differently from "broken" — the connection is
/// desynchronized either way (a late response may still arrive), so the
/// fd must be dropped before retrying.
class IoTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Hard bound on one frame's body (16 MiB ~ a 2M-key bulk insert).
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Optional request-body prefix carrying a client trace id:
///
///   [u8 kTraceHeader][u64 trace_id][normal request body...]
///
/// The marker byte sits outside the opcode range (ops are 1..14), so a
/// server can tell a traced body from a legacy one by its first byte, and
/// servers that predate tracing reject it as an unknown opcode instead of
/// misparsing it.  Clients that never set a trace id produce byte-
/// identical requests to older builds.
inline constexpr std::uint8_t kTraceHeader = 0xF5;

/// Optional request-body prefix carrying the client's idempotence
/// identity, placed *after* the trace header when both are present:
///
///   [trace header?][u8 kSeqHeader][u64 client_id][u64 client_seq][body...]
///
/// INSERT_BULK requests tagged this way are deduplicated per shard by
/// (client_id, client_seq): a replay after a lost ack is acked again
/// without double-counting.  client_id 0 is reserved for "no identity".
inline constexpr std::uint8_t kSeqHeader = 0xF6;

enum class Op : std::uint8_t {
  kPing = 1,
  kCreate = 2,
  kInsert = 3,
  kInsertBulk = 4,
  kQuery = 5,
  kStats = 6,
  kDrop = 7,
  kSave = 8,
  kFlush = 9,
  kList = 10,
  kShutdown = 11,
  kAuth = 12,
  kReplicate = 13,
  kPromote = 14,
};

enum class QueryType : std::uint8_t {
  kMembership = 1,
  kFrequency = 2,
  kCardinality = 3,
  kTopK = 4,
  kJaccard = 5,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kError = 1,         ///< internal failure (message attached)
  kNotFound = 2,      ///< no pipeline under that name
  kExists = 3,        ///< CREATE of a name already taken
  kBadRequest = 4,    ///< malformed body, bad spec, unsupported query
  kTimeout = 5,       ///< barrier or per-request deadline expired
  kUnauthorized = 6,  ///< AUTH required/failed; retrying is pointless
  kOverloaded = 7,    ///< admission control shed the request; retry later
  kReadOnly = 8,      ///< standby replica: writes go to the primary
  kDegraded = 9,      ///< pipeline is read-only after a disk fault
};

[[nodiscard]] const char* to_string(Op op);
[[nodiscard]] const char* to_string(Status st);
[[nodiscard]] const char* to_string(QueryType q);

/// Validate a client-chosen opcode byte; throws ProtocolError.
[[nodiscard]] Op op_from(std::uint8_t raw);
[[nodiscard]] QueryType query_type_from(std::uint8_t raw);

/// Consume the optional trace header (see kTraceHeader) off the front of
/// a request body and return its trace id, or 0 when the body starts with
/// a plain opcode.  A marker byte not followed by a full id is left for
/// op_from to reject.
[[nodiscard]] std::uint64_t read_trace_header(BinaryReader& r);

/// Client idempotence identity (see kSeqHeader); absent = {0, 0}.
struct ClientSeq {
  std::uint64_t client_id = 0;
  std::uint64_t client_seq = 0;
};

/// Consume the optional sequence header off the front of a request body
/// (call after read_trace_header).  A marker byte not followed by both
/// ids is left for op_from to reject.
[[nodiscard]] ClientSeq read_seq_header(BinaryReader& r);

// ---------------------------------------------------------------- framing --

/// Read exactly one frame's body from `fd`.  Returns false on a clean EOF
/// at a frame boundary (client closed); throws ProtocolError on an
/// oversized length prefix or mid-frame EOF, std::runtime_error on socket
/// errors.
bool read_frame(int fd, std::vector<char>& body);

/// Write `body` as one length-prefixed frame, sent where it lies: one
/// sendmsg of the length and the body.  Throws std::runtime_error when
/// the peer is gone.
void write_frame(int fd, std::span<const char> body);

/// send(2) with MSG_NOSIGNAL until done, retrying EINTR; throws
/// std::runtime_error (IoTimeout when the fd's send deadline expires).
void write_all(int fd, const void* data, std::size_t n);

}  // namespace she::server
