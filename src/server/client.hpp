// SheClient — typed, deadline-aware client for the she_server protocol.
//
// One TCP connection, one outstanding request at a time (the protocol has
// no request ids; responses come back in order).  Error statuses surface
// as ClientError carrying the wire status and the server's message.  Used
// by `she_tool client` and the server tests.
//
// Robustness contract (all knobs in ClientOptions; defaults preserve the
// original blocking behavior):
//   - connect_timeout_ms bounds connection establishment (non-blocking
//     connect + poll); io_timeout_ms bounds every socket read/write
//     (SO_RCVTIMEO/SO_SNDTIMEO).  A missed deadline surfaces as IoTimeout
//     and drops the connection — a late response would desynchronize the
//     request/response stream otherwise.
//   - When a send/receive fails mid-request, replay-safe requests
//     (inserts, queries, PING/LIST/STATS) are retried over a fresh
//     connection with exponential backoff.  INSERT/INSERT_BULK are tagged
//     with (client_id, client_seq) on the wire, so a replay of a batch
//     whose ack was lost is deduplicated server-side: acked again,
//     counted once.  State-changing ops (CREATE/DROP/SAVE/FLUSH/
//     SHUTDOWN) are never silently replayed.
//   - kOverloaded answers (admission control) are retried with the same
//     backoff; every other error status propagates immediately.
//   - auth_token, when set, is presented via AUTH on every (re)connect
//     before anything else is sent.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "server/protocol.hpp"

namespace she::server {

/// A non-OK response status, or a transport-level failure.
class ClientError : public std::runtime_error {
 public:
  ClientError(Status status, const std::string& msg)
      : std::runtime_error(msg), status_(status) {}

  [[nodiscard]] Status status() const { return status_; }

 private:
  Status status_;
};

/// Timeout / retry / identity knobs.  The defaults are the legacy
/// behavior: block forever, retry nothing.
struct ClientOptions {
  std::uint64_t connect_timeout_ms = 0;  ///< 0 = blocking connect
  std::uint64_t io_timeout_ms = 0;       ///< 0 = no read/write deadline
  std::string auth_token;                ///< sent as AUTH when non-empty
  /// Reconnect-and-replay attempts for replay-safe requests (0 = fail on
  /// the first transport error, like the legacy client).
  std::size_t max_retries = 0;
  std::uint64_t backoff_initial_ms = 50;  ///< doubles per retry...
  std::uint64_t backoff_max_ms = 2000;    ///< ...up to this ceiling
  /// Idempotence identity prefixed to INSERT/INSERT_BULK; 0 = draw a
  /// random non-zero id per client.  Replays of the same (id, seq) are
  /// deduplicated by the server's per-shard sequence tables.
  std::uint64_t client_id = 0;
};

class SheClient {
 public:
  /// Connect to host:port (IPv4); throws std::runtime_error on failure,
  /// IoTimeout when connect_timeout_ms expires first.
  SheClient(const std::string& host, std::uint16_t port,
            ClientOptions opt = {});

  /// Failover client: candidate endpoints ("host:port"), tried in order
  /// starting from the first that connects.  A transport error — or a
  /// kReadOnly answer from a not-yet-promoted standby — rotates to the
  /// next endpoint before the retry; seq-tagged inserts make the replayed
  /// batch exactly-once on whichever server ends up taking it.
  explicit SheClient(const std::vector<std::string>& endpoints,
                     ClientOptions opt = {});
  ~SheClient();

  SheClient(SheClient&& other) noexcept;
  SheClient& operator=(SheClient&& other) noexcept;
  SheClient(const SheClient&) = delete;
  SheClient& operator=(const SheClient&) = delete;

  void ping();
  void create(const std::string& name, const std::string& spec);
  void drop(const std::string& name);
  void save(const std::string& name);
  void flush(const std::string& name);
  [[nodiscard]] std::vector<std::string> list();
  [[nodiscard]] std::string stats_json(const std::string& name);

  /// Returns how many keys the pipeline accepted (fewer than sent only
  /// when a shard died without a WAL).  Each call takes the next client_seq;
  /// internal replays reuse it, so a retried batch is counted once.
  std::uint64_t insert(const std::string& name, std::uint64_t key);
  std::uint64_t insert_bulk(const std::string& name,
                            std::span<const std::uint64_t> keys);

  [[nodiscard]] bool query_membership(const std::string& name,
                                      std::uint64_t key);
  [[nodiscard]] std::uint64_t query_frequency(const std::string& name,
                                              std::uint64_t key);
  [[nodiscard]] double query_cardinality(const std::string& name);
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  query_topk(const std::string& name, std::uint32_t k);
  [[nodiscard]] double query_jaccard(const std::string& name,
                                     const std::string& other);

  /// Ask the server to begin its shutdown sequence (acknowledged first).
  void shutdown_server();

  /// Standby → primary: drain the replication stream and start taking
  /// writes.  Idempotent (a primary answers OK without doing anything).
  void promote();

  /// Send a raw, possibly malformed body and return the raw response body
  /// (status byte included).  For protocol tests; reconnects when needed
  /// but never retries.
  std::vector<char> roundtrip_raw(std::span<const char> body);

  /// Tag every subsequent request with a trace id (prefixed on the wire
  /// as the optional kTraceHeader field); 0 restores untraced requests.
  /// A traced server stitches its spans for the request to this id.
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }
  [[nodiscard]] std::uint64_t trace_id() const { return trace_id_; }

  /// The idempotence identity inserts are tagged with.
  [[nodiscard]] std::uint64_t client_id() const { return client_id_; }
  /// client_seq of the most recent insert/insert_bulk (0 = none yet).
  [[nodiscard]] std::uint64_t last_seq() const { return seq_; }

  [[nodiscard]] int fd() const { return fd_; }

 private:
  /// Establish a connection to some endpoint (bounded by
  /// connect_timeout_ms per endpoint), apply the io deadline to the fd,
  /// and present the auth token when configured.  Tries endpoints
  /// round-robin starting at current_; throws the last failure when none
  /// answers.
  void connect_now();
  void connect_endpoint(const std::string& host, std::uint16_t port);
  void disconnect() noexcept;

  /// Send `body` (headers included) and read one response frame.
  std::vector<char> exchange_raw(std::span<const char> body);

  /// Begin a request body in `req`: the trace header when a trace id is
  /// set, the sequence header when `cs` carries an identity, then `op`.
  /// The op's fields follow through the returned writer, so the headers
  /// sit in front of the body without a copy.
  BinaryWriter start(std::vector<char>& req, Op op, ClientSeq cs = {}) const;

  /// Send `req` (a body begun by start), parse the status, throw
  /// ClientError on non-OK, and return the whole response body: its
  /// payload follows the status byte.  Reconnects and replays per the
  /// options when `replayable`; `cs` is the identity `req` carries.
  std::vector<char> roundtrip(std::span<const char> req, bool replayable,
                              ClientSeq cs = {});

  /// Rotate current_ to the next endpoint (no-op with one endpoint).
  void rotate() noexcept;

  std::vector<std::pair<std::string, std::uint16_t>> endpoints_;
  std::size_t current_ = 0;  ///< index of the endpoint fd_ points at
  ClientOptions opt_;
  int fd_ = -1;
  std::uint64_t trace_id_ = 0;
  std::uint64_t client_id_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace she::server
