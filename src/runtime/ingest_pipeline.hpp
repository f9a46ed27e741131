// IngestPipeline — sharded ingest with queries under load and
// fault-tolerant operation.  Producers route keys by Sharded<T>'s hash
// into one commit lane per shard; one worker per shard applies them and
// publishes immutable copies that every reader shares; checkpoints and the
// WAL let the accepted stream survive a crash.  PipelineCore is that
// runtime, compiled once (ingest_pipeline.cpp, whose header comment holds
// the lane, fault-tolerance and WAL design); IngestPipeline<Estimator> is
// its header-only typed view over the four-operation ShardState.
//
// Estimator requirements: copyable (each publish copies the estimator),
// `insert(uint64_t)`, `save(BinaryWriter&) const`,
// `static load(BinaryReader&)`, and const queries safe to call from several
// threads on one object (every reader shares the published copy).  Every
// SHE estimator and StreamMonitor qualifies.  Estimators additionally exposing
// `insert_batch(std::span<const uint64_t>)` (all of the above do) get the
// hash-ahead + prefetch batch path on the worker, over the ring's slots.
//
// Threading contract:
//   * push(producer, key) / push_bulk(producer, ...): any thread,
//     concurrently, with a producer index below `producers`
//     (std::out_of_range otherwise).  The index only labels
//     she_pipeline_produced_total; lanes serialize per shard.
//   * view()/snapshot()/shard_of()/metrics_registry()/faulted():
//     any thread, any time.
//   * start()/close(): one controlling thread; do not call push()
//     concurrently with close() — join your producers first.  close() on
//     a never-started pipeline drains the queues inline.
//
// Ordering: per-shard insertion order is lane order — the order in which
// sub-batches won the shard's mutex, each sub-batch contiguous and in
// arrival order.  With a single producer that is arrival order, so the
// result is bit-identical to sequential routing through Sharded<T>
// (tested), and a checkpoint+resume replay that skips each shard's
// recorded prefix reproduces the unfaulted run byte for byte.  With
// several producers the interleaving of their sub-batches is whatever
// order the lane admitted them; with the WAL on, drain order equals
// log-append order and crash+resume reproduces exactly that order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/io.hpp"
#include "common/wal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/ring_buffer.hpp"
#include "runtime/snapshot.hpp"
#include "she/sharded.hpp"

namespace she::runtime {

/// A push was rejected because the pipeline is in degraded read-only mode
/// after a disk fault (ENOSPC/EIO from the WAL or checkpoint writer).
/// Queries and snapshots keep working; writes fail fast with this typed
/// error until a recovery probe finds the disk healthy again.
class DegradedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct PipelineOptions {
  /// Bound on `shards`: push_bulk routes each key into one byte, and a
  /// pipeline builds one estimator and one worker per shard.
  static constexpr std::size_t kMaxShards = 256;

  std::size_t shards = 1;              ///< 1..kMaxShards
  std::size_t producers = 1;           ///< producer labels for
                                       ///< she_pipeline_produced_total
  std::size_t queue_capacity = 1024;   ///< per-shard backlog (the lane's
                                       ///< ring), at most
                                       ///< SpscRing::kMaxCapacity
  std::size_t publish_interval = 2048; ///< items between snapshot publishes

  // Fault tolerance.
  std::string checkpoint_dir;          ///< empty = no durable checkpoints
  std::uint64_t checkpoint_interval = 1u << 16;  ///< items between frames
  std::size_t checkpoint_keep = 1;     ///< retained frame generations per
                                       ///< shard (1 = overwrite in place)
  bool resume = false;                 ///< reload checkpoint_dir at startup

  // Write-ahead backlog log (requires checkpoint_dir; see
  // ingest_pipeline.cpp).
  WalMode wal_mode = WalMode::kOff;
  std::size_t wal_fsync_bytes = 0;     ///< kFsync group-commit bound;
                                       ///< 0 = fdatasync every append

  /// Called after each durable WAL append with the shard index, the
  /// shard log's new end offset, and the frame's encoded bytes as three
  /// spans valid only for the call: the header, then the payload's two
  /// runs (the ring slots the sub-batch was staged in, `run2` empty unless
  /// they wrap), under that shard's append lock (frames arrive in exact
  /// log order per shard).  Replication tails the pipeline through this;
  /// keep it cheap — enqueue, never block on a socket.
  std::function<void(std::size_t shard, std::uint64_t end_offset,
                     std::span<const char> header, std::span<const char> run1,
                     std::span<const char> run2)>
      wal_observer;

  void validate() const;  ///< throws std::invalid_argument on bad fields
};

static_assert(PipelineOptions::kMaxShards - 1 <=
                  std::numeric_limits<std::uint8_t>::max(),
              "push_bulk routes each key into one byte per shard index");

/// Sliding-window rate estimator behind she_pipeline_rate_items_per_sec:
/// feed (timestamp, monotone total) samples, read the rate over the
/// retained window.  A restart-induced throughput dip is visible here long
/// after a whole-run average has smoothed it away.  Not thread-safe — one
/// pipeline's supervisor thread owns it.
class RateWindow {
 public:
  explicit RateWindow(std::uint64_t window_seconds)
      : window_ns_(static_cast<std::int64_t>(window_seconds) * 1'000'000'000) {}

  /// Record `total` items as of `now_ns`, discarding samples that fell out
  /// of the window.  Timestamps must be monotone.
  void sample(std::int64_t now_ns, std::uint64_t total);

  /// Items/s between the oldest retained and the newest sample; 0 until
  /// two samples span a nonzero interval.
  [[nodiscard]] double rate() const;

 private:
  std::int64_t window_ns_;
  std::deque<std::pair<std::int64_t, std::uint64_t>> samples_;
};

/// One shard's estimator as PipelineCore sees it.  IngestPipeline<E>
/// supplies the one implementation, plus the loader for resume; the core
/// never names the estimator type.
class ShardState {
 public:
  virtual ~ShardState() = default;
  /// Insert `keys` in order (insert_batch when the estimator has it).
  virtual void apply(std::span<const std::uint64_t> keys) = 0;
  /// A copy of this state: one copy-construct, one allocation.  Serves the
  /// publish and a restart's rollback to the published state.
  [[nodiscard]] virtual std::shared_ptr<ShardState> clone() const = 0;
  /// The estimator's save() bytes.
  virtual void save(BinaryWriter& out) const = 0;

 protected:
  ShardState() = default;
  ShardState(const ShardState&) = default;
  ShardState& operator=(const ShardState&) = delete;
};

/// The untyped ingest runtime: lanes, workers, the supervisor, sync and
/// close, checkpoints, the WAL, resume and the heal, and degraded mode, all
/// over ShardState.  Use it through IngestPipeline<Estimator>.
class PipelineCore {
 public:
  /// Restarts per shard: a worker that throws rolls itself back and runs
  /// again on its own thread; the fault after the last abandons the shard.
  static constexpr std::size_t kMaxRestarts = 16;
  /// A running worker whose heartbeat is older than this counts as wedged.
  static constexpr std::size_t kHeartbeatTimeoutMs = 250;
  /// Supervisor poll period.
  static constexpr std::size_t kSupervisorIntervalMs = 5;
  /// The supervisor feeds the windowed rate at most this often, so the
  /// window holds about kRateWindowS * 1000 / kRateSampleIntervalMs samples.
  static constexpr std::size_t kRateSampleIntervalMs = 100;
  /// Width of the window behind she_pipeline_rate_items_per_sec.
  static constexpr std::size_t kRateWindowS = 10;
  /// Most keys a worker applies from its ring, in place, before it
  /// releases their slots.
  static constexpr std::size_t kDrainBatch = 256;
  /// Degraded read-only mode: after a DiskFault from the WAL or checkpoint
  /// writer, at most one disk-recovery probe runs per this many
  /// milliseconds (on the push path); until one succeeds, writes throw
  /// DegradedError.
  static constexpr std::size_t kDegradedProbeMs = 1000;

  /// Builds shard `s`'s fresh state.
  using MakeState = std::function<std::shared_ptr<ShardState>(std::size_t s)>;
  /// Rebuilds a state from a checkpoint's payload (the save() bytes).
  using LoadState = std::shared_ptr<ShardState> (*)(std::span<const char>);

  /// Builds `opt.shards` states via `make(shard_index)` — or, with
  /// `opt.resume`, via `load` from the shard's durable checkpoint when one
  /// exists (corrupt frames throw CheckpointError) — and publishes their
  /// initial snapshots; workers start with start().
  PipelineCore(const PipelineOptions& opt, const MakeState& make,
               LoadState load);
  PipelineCore(const PipelineCore&) = delete;
  PipelineCore& operator=(const PipelineCore&) = delete;
  ~PipelineCore();  ///< close()

  [[nodiscard]] const PipelineOptions& options() const;
  [[nodiscard]] std::size_t shard_count() const;

  /// Same routing as Sharded<T>.
  [[nodiscard]] std::size_t shard_of(std::uint64_t key) const;

  /// Items shard `s`'s estimator already contained when this pipeline was
  /// constructed with `resume` (0 otherwise): a single-producer driver
  /// replaying the original trace should skip the first resume_offset(s)
  /// keys that route to shard s to reproduce the unfaulted run exactly.
  [[nodiscard]] std::uint64_t resume_offset(std::size_t s) const;

  /// Shard `s`'s checkpoint file under a `checkpoint_dir`: the newest
  /// generation's name (checkpoint_generation_path names the older ones).
  [[nodiscard]] static std::string checkpoint_path(const std::string& dir,
                                                   std::size_t s);

  /// True while any shard worker is rolling itself back after a fault, or
  /// its shard is abandoned after kMaxRestarts.  Any thread.
  [[nodiscard]] bool faulted() const;

  /// True while the pipeline is parked read-only after a disk fault
  /// (pushes throw DegradedError; queries and snapshots keep working).
  /// Any thread.
  [[nodiscard]] bool degraded() const;

  /// Launch one worker thread per shard, plus the supervisor.
  void start();

  /// Route one key to its shard's lane: a push_bulk of one key.  Returns
  /// false iff the item was not accepted: an abandoned shard without a
  /// WAL, or the pipeline is closing.
  bool push(std::size_t producer, std::uint64_t key);

  /// Route `keys` and commit each shard's sub-batch, in arrival order,
  /// through that shard's lane; returns how many keys were accepted.
  ///
  /// Admission is all-or-nothing: the lane reserves ring space for the
  /// whole sub-batch (capped at the ring's capacity), and a request
  /// deadline expiry sheds it with nothing enqueued, logged or recorded,
  /// so a retry is clean.  An admitted sub-batch is (logged, with the WAL
  /// on, and) enqueued whole, a sub-batch larger than the ring following
  /// the live drain; only terminal shard death or close() cuts it, and
  /// without the WAL the enqueued prefix then counts as accepted.
  ///
  /// A sub-batch whose (client_id, client_seq) that shard already
  /// applied — a client replaying after a lost ack — is skipped and
  /// counted as accepted.  The sequence is recorded only once the whole
  /// sub-batch is enqueued (or logged), so a shed sub-batch replays in
  /// full and replay is exactly-once per shard.  client_id 0 means "no
  /// identity" (no dedup).
  ///
  /// `deadline_ns` (steady-clock absolute, 0 = none) bounds admission
  /// only.  One call takes at most 2^32 - 1 keys (std::invalid_argument
  /// beyond); with the WAL on, at most kMaxWalKeys of them may route to
  /// one shard (WalError beyond, with nothing accepted).  Both checks run
  /// before any lane waits or commits.
  /// Only a terminally dead shard still accepts a sub-batch into the log
  /// without enqueueing it (*durable but not yet live*); its items
  /// surface at the next resume, in order, and are counted accepted here
  /// because they are part of the recoverable stream.
  ///
  /// A `producer` at or above `producers` throws std::out_of_range before
  /// anything is routed or enqueued.
  std::size_t push_bulk(std::size_t producer,
                        std::span<const std::uint64_t> keys,
                        std::uint64_t client_id = 0,
                        std::uint64_t client_seq = 0,
                        std::int64_t deadline_ns = 0);

  /// Stop accepting, drain every ring, publish final snapshots (and final
  /// checkpoints when configured), join workers.  Idempotent.  If start()
  /// was never called the queues are drained inline on the calling thread.
  void close();

  /// Drain-then-publish barrier: ask every live shard worker to finish
  /// draining its ring, publish a fresh snapshot, and — with
  /// `with_checkpoint` and a configured checkpoint_dir — write a durable
  /// frame (not on a shard whose restart lost items), then wait for the
  /// acknowledgements.  This is what a serving front-end's FLUSH (make
  /// earlier accepted inserts visible to snapshot queries) and SAVE
  /// (checkpoint now, not at the next interval) commands ride on.
  ///
  /// Returns true when every shard acked within `timeout_ms`; false on
  /// timeout or when a shard is dead/abandoned.  Workers ack only from
  /// their idle branch (ring momentarily empty), so under relentless
  /// concurrent ingest the barrier is best-effort and bounded by the
  /// timeout.  Any thread may call this; on a closed (or never-started)
  /// pipeline the final state is already published and checkpointed, so
  /// it returns true immediately.
  bool sync(bool with_checkpoint, std::size_t timeout_ms = 5000);

  /// The pipeline's private metric registry (always on); export it with
  /// obs::write_prometheus / obs::write_json, typically alongside
  /// obs::default_registry().
  [[nodiscard]] const obs::Registry& metrics_registry() const;

 protected:
  /// Shard `s`'s latest published state, a pointer copy; any thread.
  [[nodiscard]] std::shared_ptr<const ShardState> published(std::size_t) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The typed view of PipelineCore: wraps each shard's Estimator in a
/// ShardState and hands its published copies out as `const Estimator`.
template <typename Estimator>
class IngestPipeline : public PipelineCore {
 public:
  using Factory = std::function<Estimator(std::size_t)>;

  /// Builds each shard's estimator with `factory(shard_index)`, or loads
  /// it from its checkpoint on resume (see PipelineCore's constructor).
  IngestPipeline(const PipelineOptions& opt, const Factory& factory)
      : PipelineCore(
            opt,
            [&factory](std::size_t s) -> std::shared_ptr<ShardState> {
              return std::make_shared<State>(factory(s));
            },
            &State::load) {}

  /// Shard `s`'s latest published estimator state: a pointer copy, no
  /// estimator copy.  The object is immutable and shared by every reader
  /// until the next publish replaces it; holding the pointer keeps that
  /// state alive across later publishes and past the pipeline's own
  /// destruction.  Callable from any thread at any time.
  [[nodiscard]] std::shared_ptr<const Estimator> view(std::size_t s) const {
    std::shared_ptr<const ShardState> state = published(s);
    const Estimator* est = &static_cast<const State&>(*state).est;
    return std::shared_ptr<const Estimator>(std::move(state), est);
  }

  /// A private, mutable copy of view(s).
  [[nodiscard]] Estimator snapshot(std::size_t s) const { return *view(s); }

 private:
  struct State final : ShardState {
    explicit State(Estimator e) : est(std::move(e)) {}
    void apply(std::span<const std::uint64_t> keys) override {
      feed_shard(est, keys);
    }
    std::shared_ptr<ShardState> clone() const override {
      return std::make_shared<State>(*this);
    }
    void save(BinaryWriter& out) const override { est.save(out); }
    static std::shared_ptr<ShardState> load(std::span<const char> payload) {
      BinaryReader in(payload);
      return std::make_shared<State>(Estimator::load(in));
    }

    Estimator est;
  };
};

}  // namespace she::runtime
