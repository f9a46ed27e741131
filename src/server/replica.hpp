// Hot-standby replication: survive node death without losing the window.
//
// A standby `she_server --role standby --follow host:port` opens one
// REPLICATE connection to the primary and never lets go:
//
//   standby ──REPLICATE──▶ primary            (one protocol frame)
//   standby ◀──kOk──────── primary            (stream begins)
//   standby ◀──kFile*──────                   bootstrap: spec + shard-N.ckpt
//   standby ◀──kPipelineDone(name, spec)──    generations + WAL segments,
//   standby ◀──kBootstrapDone──               shipped verbatim per pipeline
//   standby ◀──kWal/kCreate/kDrop/kHeartbeat  live tail, forever
//
// Bootstrap is *file shipping*: the primary reads each pipeline's durable
// checkpoint frames and backlog log off disk and sends the bytes as-is —
// the CRC-framed "SHCP"/"SHWL" formats are already torn-tail-tolerant
// wire formats, and the standby resumes from them through the exact code
// path a crash-restart uses (estimator state, stream offsets, per-shard
// client sequence tables all restored).  The live tail then rides the
// per-shard WAL append observer: every durable data frame the primary
// appends is fanned out, in log order, to every subscriber.
//
// The race between the file snapshot and the live stream is closed by
// subscribing FIRST: a frame appended during bootstrap is both in the
// shipped file and in the queue, and the standby deduplicates by *offset*
// (frames whose end_offset is at or below the shard's applied offset are
// skipped), so the overlap is harmless.  Offsets — not WAL seq numbers —
// are the replication identity: they name items, and a standby's own log
// numbers its frames independently.
//
// The standby applies each frame through its own pipeline's WAL lane
// (Entry::insert_bulk with the frame's client identity), so the standby
// keeps its own durable WAL + checkpoints + dedup tables: after PROMOTE,
// replaying clients are still exactly-once, and a promoted server can
// itself be followed by a fresh standby.
//
// Lag is visible end to end: the primary heartbeats its per-(pipeline,
// shard) log end offsets every ~500 ms; the standby exports
// she_replica_lag_items = Σ max(0, primary_end − applied).
//
// Scope: live tailing requires the pipeline's WAL (wal mode != off).  A
// durable pipeline without a WAL is bootstrapped at checkpoint
// granularity and then only advances on the standby at the next
// re-bootstrap (reconnect); run replicated pipelines with wal=async or
// wal=fsync.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/wal.hpp"
#include "obs/metrics.hpp"
#include "runtime/doorbell.hpp"

namespace she::server {

class PipelineManager;

/// One REPLICATE stream record = one protocol frame, first byte the type.
enum class ReplRecord : std::uint8_t {
  kFile = 1,          ///< [str pipeline][str relpath][u8 last][str chunk]
  kPipelineDone = 2,  ///< [str pipeline][str spec_text] — adopt + resume now
  kBootstrapDone = 3, ///< [] — everything resident at subscribe time shipped
  kWal = 4,           ///< [str pipeline][u32 shard][str encoded SHWL frame]
  kCreate = 5,        ///< [str pipeline][str spec_text] — live CREATE
  kDrop = 6,          ///< [str pipeline] — live DROP
  kHeartbeat = 7,     ///< [u32 n] n×([str pipeline][u32 shard][u64 end_off])
};

inline constexpr std::uint64_t kReplicationProtoVersion = 1;
/// File-shipping chunk size; comfortably under kMaxFrameBytes.
inline constexpr std::size_t kReplFileChunk = std::size_t{4} << 20;

/// Fan-out point between the primary's WAL appends and its REPLICATE
/// connections.  publish_wal runs under the shard's append lock (the
/// observer contract), so it only ever enqueues: each subscriber owns a
/// bounded queue the connection thread drains onto its socket.  A
/// subscriber that falls further behind than its byte bound is marked
/// overflowed and its connection dropped — the standby reconnects and
/// re-bootstraps from files, which is always correct and never blocks
/// the ingest path.
class ReplicationHub {
 public:
  /// One encoded record, shared by every subscriber queue it is in.
  using Record = std::shared_ptr<const std::vector<char>>;

  struct Subscription {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Record> q;  ///< encoded records, oldest first
    std::size_t queued_bytes = 0;
    std::size_t max_bytes = std::size_t{64} << 20;
    bool overflowed = false;  ///< queue blew the bound; conn must drop
    bool closed = false;      ///< hub/connection is going away
  };

  explicit ReplicationHub(obs::Registry& registry);

  [[nodiscard]] std::shared_ptr<Subscription> subscribe();
  void unsubscribe(const std::shared_ptr<Subscription>& sub);
  [[nodiscard]] std::size_t subscriber_count() const;

  /// Observer entry (per-shard append lock held): advance the shard's
  /// end offset and enqueue the frame — `header`, then the payload's two
  /// runs `run1` and `run2`, the appender's own bytes, joined into one
  /// record only here, once for all subscribers.  With none subscribed it
  /// returns at once and copies nothing.
  void publish_wal(const std::string& pipeline, std::size_t shard,
                   std::uint64_t end_offset, std::span<const char> header,
                   std::span<const char> run1, std::span<const char> run2);
  void publish_create(const std::string& pipeline, const std::string& spec);
  void publish_drop(const std::string& pipeline);

  /// Encoded kHeartbeat record with the current per-(pipeline, shard)
  /// log end offsets (what the standby computes lag against).
  [[nodiscard]] std::vector<char> heartbeat_record() const;

 private:
  void broadcast(const Record& rec);

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Subscription>> subs_;
  std::atomic<std::size_t> nsubs_{0};  ///< fast no-subscriber early-out
  std::map<std::pair<std::string, std::size_t>, std::uint64_t> end_offsets_;
  obs::Counter* records_total_;
  obs::Counter* bytes_total_;
  obs::Counter* overflows_total_;
  obs::Gauge* subscribers_gauge_;
};

struct ReplicaClientOptions {
  std::vector<std::string> endpoints;  ///< primary candidates, "host:port"
  std::string auth_token;              ///< AUTH before REPLICATE when set
  std::size_t backoff_initial_ms = 200;
  std::size_t backoff_max_ms = 5000;
};

/// The standby side: one background thread that follows the configured
/// endpoints (rotating on failure), bootstraps, applies the live tail
/// through the local PipelineManager, and reports lag.  promote() drains
/// whatever the socket already holds, stops following, and returns — the
/// server then flips itself to primary.
class ReplicaClient {
 public:
  ReplicaClient(ReplicaClientOptions opt, PipelineManager& manager,
                obs::Registry& registry);
  ~ReplicaClient();  ///< stop() without draining

  ReplicaClient(const ReplicaClient&) = delete;
  ReplicaClient& operator=(const ReplicaClient&) = delete;

  void start();

  /// Drain the records already received (bounded by `drain_ms`), then
  /// stop following.  Idempotent; safe from any thread.
  void promote(std::size_t drain_ms = 2000);

  /// Stop following without the drain courtesy (shutdown path).
  void stop();

  [[nodiscard]] bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }
  /// At least one full bootstrap completed since start().
  [[nodiscard]] bool synced() const {
    return synced_.load(std::memory_order_acquire);
  }
  /// Σ max(0, primary_end − applied) over every known (pipeline, shard).
  [[nodiscard]] std::uint64_t lag_items() const;

 private:
  void run();
  /// One connect → bootstrap → tail session; returns when the connection
  /// died or stop/promote was requested.  True when the session reached
  /// the streaming phase (resets the reconnect backoff).
  bool follow_once(const std::string& host, std::uint16_t port);
  void handle_record(std::vector<char>& body);  ///< rewrites it in place
  [[nodiscard]] std::uint64_t lag_locked() const;  ///< mu_ held
  void refresh_lag();  ///< mu_ held
  void join_thread();

  ReplicaClientOptions opt_;
  PipelineManager& manager_;
  std::thread thread_;
  std::mutex join_mu_;  ///< promote() and stop() may race to join
  std::atomic<bool> stop_{false};
  std::atomic<bool> promoting_{false};
  runtime::Doorbell backoff_bell_;  ///< rung by stop() and promote()
  std::atomic<std::size_t> drain_ms_{2000};
  std::atomic<bool> connected_{false};
  std::atomic<bool> synced_{false};
  std::atomic<int> fd_{-1};  ///< live session socket, for shutdown()

  mutable std::mutex mu_;  ///< applied_/primary_end_/bootstrap file state
  std::map<std::pair<std::string, std::size_t>, std::uint64_t> applied_;
  std::map<std::pair<std::string, std::size_t>, std::uint64_t> primary_end_;
  /// Bootstrap file currently being received (records arrive file by
  /// file) and the set of pipelines whose stale local state was cleared.
  std::string cur_path_;
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> cur_file_{nullptr,
                                                            std::fclose};
  std::vector<std::string> bootstrapped_;

  obs::Counter* frames_applied_;
  obs::Counter* bytes_applied_;
  obs::Counter* dup_frames_;
  obs::Counter* reconnects_;
  obs::Gauge* connected_gauge_;
  obs::Gauge* synced_gauge_;
  obs::Gauge* lag_gauge_;
};

/// Parse "host:port" (host may be empty → 127.0.0.1); throws
/// std::invalid_argument on a malformed endpoint.
[[nodiscard]] std::pair<std::string, std::uint16_t> parse_endpoint(
    const std::string& text);

/// Primary side of one REPLICATE connection: subscribe to the hub FIRST
/// (so nothing appended during bootstrap can be missed), ship every
/// resident pipeline's files, then stream the subscription until the peer
/// dies, the queue overflows, or `stopping` returns true.  Sends records
/// only — the caller has already answered the REPLICATE request with kOk.
/// Socket errors just end the stream (the standby reconnects).
void serve_replication(int fd, PipelineManager& manager, ReplicationHub& hub,
                       const std::function<bool()>& stopping);

}  // namespace she::server
