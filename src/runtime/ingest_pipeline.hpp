// IngestPipeline — sharded ingest pipelines with queries under load and
// fault-tolerant operation.
//
// The hardware pipeline sustains one item per cycle because insertion and
// lazy cleaning are single-stage operations; this is the CPU serving-path
// analogue.  Any number of producer threads route keys by the same hash
// Sharded<T> uses (so accuracy semantics carry over) and commit each
// per-shard sub-batch through that shard's commit lane: the shard's mutex
// plus its single SPSC ring.  Each shard worker thread exclusively owns
// one estimator, applies its ring's keys in blocks where they lie, and
// every `publish_interval` items publishes an immutable copy of it that
// all readers share.
// Producers never touch estimator state, and queries run concurrently
// against the snapshots:
//
//   producers ──lane s (mutex + ring)──▶ worker s ──owns──▶ Estimator s
//                                           └─publishes──▶ view s ◀─readers
//                                           │   (shared_ptr<const Estimator>)
//                                           └─checkpoints─▶ shard-s.ckpt
//
// A lane commit is one critical section per sub-batch: a dedup peek of
// the client identity, a ring-space reservation, then the sub-batch is
// gathered in arrival order straight into the reserved ring slots
// (SpscRing::stage) and made visible with one release store
// (SpscRing::publish; two or more only when the sub-batch is larger than
// the ring).  The worker takes up to kDrainBatch keys at a time
// (SpscRing::peek), passes them to insert_batch where they lie, counts
// them applied, and only then frees their slots (SpscRing::release), so
// each key is copied once between the caller's buffer and the sketch: into
// its ring slot.  `queue_capacity` therefore bounds
// a shard's whole backlog, and memory scales with shards, not with
// producers.  Admission has one rule: a producer waits for ring space
// for the whole sub-batch (capped at the ring's capacity), and only the
// caller's request deadline bounds that wait — an expiry sheds the
// sub-batch with nothing enqueued.  An admitted sub-batch is enqueued
// whole; only terminal shard death or close() stops it.  Producers
// waiting on the same full shard sleep on its mutex.
//
// Fault tolerance (docs/INTERNALS.md §10):
//   * Durable checkpoints: with `checkpoint_dir` set, each worker writes
//     its just-published snapshot into a CRC32-framed file (atomic
//     write-rename, common/checkpoint.hpp) every `checkpoint_interval`
//     items and at close.  `resume = true` reloads those frames at
//     construction — corrupted or truncated files are rejected with a
//     typed CheckpointError, never loaded silently — and records the
//     per-shard stream offsets (`resume_offset()`) so a driver can skip
//     the already-ingested per-shard prefix of its trace.
//   * Supervision: every started pipeline runs a supervisor thread that
//     restarts workers that died by exception (rolled back to the shard's
//     last published snapshot; items applied since are counted lost, ring
//     backlog counted replayed — including the block the dead worker was
//     applying, which it never released).  A restart that lost items also
//     ends the shard's checkpoints, so its newest frame stays an exact
//     prefix of its stream for resume.  Restarts are capped at `kMaxRestarts`
//     per shard; the next fault abandons the shard, the only terminal
//     state, and pushes to it fail fast.  A worker whose heartbeat is
//     older than `kHeartbeatTimeoutMs` (a long checkpoint, a stall) is
//     only counted as wedged, once per stale heartbeat: it is still the
//     shard's one live consumer, so the supervisor leaves it alone.
//   * Write-ahead backlog log (common/wal.hpp): checkpoints capture the
//     drained prefix, but items *accepted and still queued* used to be
//     lost by design at a crash.  With `wal_mode != kOff`, the lane
//     commit gains an append: the reservation comes *first* — a request
//     deadline sheds the batch before anything reaches the log — then
//     the sub-batch is staged in the reserved ring slots, appended from
//     there to the shard's segmented log
//     `<checkpoint_dir>/shard-<s>.<seq>.wal`, and only then published to
//     the worker, whole, in log order.  Drain order therefore equals
//     log-append order, which is what lets the checkpoint offset (a count
//     of drained items) identify the exact log prefix a checkpoint
//     covers: drain progress is the durable low-water mark below which
//     whole segments are unlinked, and resume replays the logged suffix
//     past the newest checkpoint — so kill -9 at any instant reconstructs
//     the accepted stream byte-identically.
//     Only an abandoned shard accepts batches into the log without
//     enqueueing them; that is safe because nothing drains or
//     checkpoints there again, so the logged tail surfaces, in order, at
//     the next resume.  A restart's rollback gap (published snapshot ..
//     consumed) is healed back from the log instead of being counted
//     lost.
//   * Client replay: sub-batches carrying a client identity (client_id,
//     client_seq) are deduplicated against a per-shard sequence table —
//     inside the log with the WAL on (it survives restarts), in memory
//     without it.  A sequence is recorded only once its whole sub-batch
//     is enqueued (or logged), and an admitted sub-batch is never cut, so
//     a shed sub-batch replays cleanly and client-side INSERT_BULK replay
//     is exactly-once per shard.
//   * Fault injection: the deterministic hooks in
//     common/fault_injection.hpp, part of every build, let tests and
//     `she_tool pipeline --inject` drive every one of those paths on
//     purpose.
//
// Observability: every pipeline owns a private obs::Registry (always on,
// independent of the global obs::enabled() toggle) holding the per-shard
// counters, drain/publish latency histograms, queue-depth gauges,
// backpressure stall time, the fault/recovery counters (restarts,
// faults, wedges, items lost/replayed, checkpoints, push timeouts) and a
// windowed items/s rate gauge (`kRateWindowS`) that makes restart dips
// visible where a whole-run average would smooth them away.  The registry
// is the only home of these counters: export it, or total a family with
// obs::Registry::sum.  Push latency is sampled (1 in 64 calls) only while
// the global telemetry toggle is enabled, so a lane commit otherwise costs
// one bulk ring push and one counter add per sub-batch.  The supervisor
// refreshes the queue-depth gauges on every tick (close() once more, after
// the final drain) and is the only thing that feeds the windowed rate,
// every `kRateSampleIntervalMs`, so scrapes see backlog and rate even
// while a worker is stuck inside a long sweep.
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

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bobhash.hpp"
#include "common/checkpoint.hpp"
#include "common/fault_injection.hpp"
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

  // Write-ahead backlog log (requires checkpoint_dir; see the class
  // comment).
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

template <typename Estimator>
class IngestPipeline {
 public:
  using Factory = std::function<Estimator(std::size_t)>;

  /// Supervised restarts per shard before it is abandoned.
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

  /// Builds `opt.shards` estimators via `factory(shard_index)` — or, with
  /// `opt.resume`, from the shard's durable checkpoint when one exists
  /// (corrupt frames throw CheckpointError) — and publishes their initial
  /// snapshots; workers start with start().
  IngestPipeline(const PipelineOptions& opt, const Factory& factory)
      : opt_(opt) {
    opt_.validate();
    drain_hist_ = &registry_.histogram(
        "she_pipeline_drain_latency_ns",
        "wall time of one non-empty ring drain sweep, ns");
    publish_hist_ = &registry_.histogram(
        "she_pipeline_publish_latency_ns",
        "copy + pointer swap publishing one shard snapshot, ns");
    push_hist_ = &registry_.histogram(
        "she_pipeline_push_latency_ns",
        "producer push()/push_bulk() call wall time, 1-in-64 sampled while "
        "telemetry is enabled, ns");
    checkpoint_hist_ = &registry_.histogram(
        "she_pipeline_checkpoint_latency_ns",
        "frame + atomic-replace of one durable checkpoint, ns");
    stall_ns_ = &registry_.counter(
        "she_pipeline_stall_ns_total",
        "producer time spent waiting for ring space in a commit lane, ns");
    stall_events_ = &registry_.counter(
        "she_pipeline_stall_events_total",
        "full-ring waits entered by producers in a commit lane");
    push_timeouts_ = &registry_.counter(
        "she_pipeline_push_timeouts_total",
        "sub-batches shed at admission by a request deadline");
    rate_gauge_ = &registry_.gauge(
        "she_pipeline_rate_items_per_sec",
        "drained items/s over the last rate_window_s seconds");
    degraded_gauge_ = &registry_.gauge(
        "she_degraded",
        "1 while the pipeline is read-only after a disk fault");
    disk_faults_ = &registry_.counter(
        "she_pipeline_disk_faults_total",
        "WAL/checkpoint writes that failed with a disk-unhealthy errno");
    if (!opt_.checkpoint_dir.empty())
      std::filesystem::create_directories(opt_.checkpoint_dir);
    shards_.reserve(opt_.shards);
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      std::optional<CheckpointData> ck;
      if (opt_.resume)
        ck = read_newest_checkpoint(checkpoint_path(s), opt_.checkpoint_keep);
      auto sh = std::make_unique<Shard>(
          ck ? deserialize<Estimator>(ck->payload().data(),
                                      ck->payload().size())
             : factory(s),
          opt_.queue_capacity);
      sh->index = s;
      bind_metrics(*sh, s);
      std::uint64_t pos = ck ? ck->stream_offset : 0;  // items applied
      sh->last_checkpoint = pos;
      if (opt_.wal_mode != WalMode::kOff) {
        // Scan the backlog log, replaying the accepted suffix past the
        // checkpoint into the estimator as the scan reaches it (logged
        // order is drain order for any producer count, so the result is
        // byte-identical to the unfaulted run), then open the log for
        // appending with the torn tail truncated.  The checkpoint offset
        // names an exact log prefix: a batch is logged only once its ring
        // space is reserved, so a frame past the checkpoint is un-applied
        // whole.  A fresh pipeline opens an empty scan, which deletes an
        // earlier life's segments.
        WalScan scan;
        if (opt_.resume) {
          scan = read_wal(wal_path(s), [&](const WalFrame& f, auto keys) {
            return replay_frame(*sh, f, keys, pos,
                                std::numeric_limits<std::uint64_t>::max());
          });
          // Items neither the checkpoint nor the log holds (a deleted
          // checkpoint, a missing segment) cannot be replayed: refuse to
          // resume rather than skip them silently.
          if (pos < scan.end_offset)
            throw WalError("wal: shard " + std::to_string(s) +
                           " cannot resume: the items from " +
                           std::to_string(pos) +
                           " on are in neither its checkpoint nor its log");
          // If the checkpoint is ahead of the log (log lost, or every
          // segment retired), new frames must still start at the
          // checkpoint offset — an append below `consumed` would be
          // skipped as "already checkpointed" at the next resume.
          scan.end_offset = pos;
        }
        ShardWal::Options wopt;
        wopt.mode = opt_.wal_mode;
        wopt.fsync_interval_bytes = opt_.wal_fsync_bytes;
        wopt.shard = s;
        if (opt_.wal_observer) {
          auto cb = opt_.wal_observer;
          wopt.observer = [cb, s](std::uint64_t end_offset,
                                  std::span<const char> header,
                                  std::span<const char> run1,
                                  std::span<const char> run2) {
            cb(s, end_offset, header, run1, run2);
          };
        }
        sh->wal = std::make_unique<ShardWal>(wal_path(s), std::move(wopt),
                                             scan);
        // Seed the generation history conservatively: checkpoint files
        // from before this restart may still be retained with offsets we
        // no longer know, so retirement must not pass the resume base
        // until `checkpoint_keep` fresh generations have rotated them out.
        sh->ckpt_history.assign(opt_.checkpoint_keep, sh->last_checkpoint);
      }
      sh->resume_offset = sh->consumed = sh->consumed_at_publish = pos;
      sh->view = std::make_shared<const Estimator>(sh->est);
      shards_.push_back(std::move(sh));
    }
    produced_.reserve(opt_.producers);
    for (std::size_t p = 0; p < opt_.producers; ++p)
      produced_.push_back(&registry_.counter(
          "she_pipeline_produced_total", "accepted pushes per producer",
          {{"producer", std::to_string(p)}}));
  }

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  ~IngestPipeline() { close(); }

  [[nodiscard]] const PipelineOptions& options() const { return opt_; }
  [[nodiscard]] std::size_t shard_count() const { return opt_.shards; }

  /// Same routing as Sharded<T>.
  [[nodiscard]] std::size_t shard_of(std::uint64_t key) const {
    return static_cast<std::size_t>(hash64(key, kRouteSeed) % opt_.shards);
  }

  /// Items shard `s`'s estimator already contained when this pipeline was
  /// constructed with `resume` (0 otherwise): a single-producer driver
  /// replaying the original trace should skip the first resume_offset(s)
  /// keys that route to shard s to reproduce the unfaulted run exactly.
  [[nodiscard]] std::uint64_t resume_offset(std::size_t s) const {
    return shards_[s]->resume_offset;
  }

  /// True while any shard worker is dead by exception (or abandoned after
  /// kMaxRestarts) and not yet restarted.  Any thread.
  [[nodiscard]] bool faulted() const {
    for (const auto& sh : shards_) {
      const WorkerState st = sh->state.load(std::memory_order_acquire);
      if (st == WorkerState::kFaulted || st == WorkerState::kAbandoned)
        return true;
    }
    return false;
  }

  /// True while the pipeline is parked read-only after a disk fault
  /// (pushes throw DegradedError; queries and snapshots keep working).
  /// Any thread.
  [[nodiscard]] bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  /// Launch one worker thread per shard, plus the supervisor.
  void start() {
    if (started_.load(std::memory_order_relaxed))
      throw std::logic_error("IngestPipeline: already started");
    if (closed_.load(std::memory_order_relaxed))
      throw std::logic_error("IngestPipeline: already closed");
    started_.store(true, std::memory_order_relaxed);
    workers_.reserve(opt_.shards);
    for (std::size_t s = 0; s < opt_.shards; ++s)
      workers_.emplace_back([this, s] { worker_entry(s); });
    supervisor_ = std::thread([this] { supervisor_loop(); });
  }

  /// Route one key to its shard's lane: a push_bulk of one key.  Returns
  /// false iff the item was not accepted: an abandoned shard without a
  /// WAL, or the pipeline is closing.
  bool push(std::size_t producer, std::uint64_t key) {
    return push_bulk(producer, std::span<const std::uint64_t>(&key, 1)) == 1;
  }

  /// push_bulk without a client identity or deadline.
  std::size_t push_bulk(std::size_t producer,
                        std::span<const std::uint64_t> keys) {
    return push_bulk(producer, keys, 0, 0, 0);
  }

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
  /// one shard (WalError beyond, with nothing accepted).
  /// Only a terminally dead shard still accepts a sub-batch into the log
  /// without enqueueing it (*durable but not yet live*); its items
  /// surface at the next resume, in order, and are counted accepted here
  /// because they are part of the recoverable stream.
  ///
  /// A `producer` at or above `producers` throws std::out_of_range before
  /// anything is routed or enqueued.
  std::size_t push_bulk(std::size_t producer,
                        std::span<const std::uint64_t> keys,
                        std::uint64_t client_id, std::uint64_t client_seq,
                        std::int64_t deadline_ns = 0) {
    SHE_TRACE_SPAN("pipeline.push_bulk", "pipeline");
    if (producer >= opt_.producers)
      throw std::out_of_range("push_bulk: producer " +
                              std::to_string(producer) + " is not below " +
                              std::to_string(opt_.producers));
    check_degraded();
    if (keys.empty()) return 0;
    thread_local std::uint64_t push_seq = 0;
    const bool timed = obs::enabled() && ((++push_seq & 63u) == 0);
    const std::int64_t t0 = timed ? now_ns() : 0;
    std::size_t accepted = 0;
    if (opt_.shards == 1 || keys.size() == 1) {
      std::size_t i = 0;
      accepted = lane_commit(producer, *shards_[shard_of(keys[0])],
                             keys.size(), [&] { return keys[i++]; },
                             client_id, client_seq, deadline_ns);
    } else {
      // Route once into one shard byte per key (kMaxShards fits a byte).
      // Each lane then gathers its sub-batch straight from `keys`, in
      // frame order, one 64-key block at a time: a mask of the block's
      // bytes that name its shard, walked bit by bit, so no branch depends
      // on where a single key went.  Stale bytes past the frame fill the
      // last block; a lane stops after its count[s] keys, before any.
      if (keys.size() > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument("push_bulk: more than 2^32-1 keys");
      thread_local std::vector<std::uint8_t> route;
      route.resize((keys.size() + 63) & ~std::size_t{63});
      std::array<std::uint32_t, PipelineOptions::kMaxShards> count{};
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::size_t s = shard_of(keys[i]);
        route[i] = static_cast<std::uint8_t>(s);
        ++count[s];
      }
      // Each sub-batch is one WAL frame: refuse the whole call before the
      // first lane commits when one would exceed the frame bound, so no
      // shard accepts its share of a call another shard's append refuses.
      if (opt_.wal_mode != WalMode::kOff && keys.size() > kMaxWalKeys)
        for (std::size_t s = 0; s < opt_.shards; ++s)
          if (count[s] > kMaxWalKeys)
            throw WalError("push_bulk: " + std::to_string(count[s]) +
                           " keys route to shard " + std::to_string(s) +
                           ", above the " + std::to_string(kMaxWalKeys) +
                           "-key bound on one WAL frame");
      for (std::size_t s = 0; s < opt_.shards; ++s) {
        if (count[s] == 0) continue;
        const auto mine = static_cast<std::uint8_t>(s);
        std::size_t block = 0;
        std::uint64_t mask = route_mask(route.data(), mine);
        accepted += lane_commit(
            producer, *shards_[s], count[s],
            [&] {
              while (mask == 0) {
                block += 64;
                mask = route_mask(route.data() + block, mine);
              }
              const std::size_t i =
                  block + static_cast<std::size_t>(std::countr_zero(mask));
              mask &= mask - 1;
              return keys[i];
            },
            client_id, client_seq, deadline_ns);
      }
    }
    if (timed) push_hist_->observe(static_cast<std::uint64_t>(now_ns() - t0));
    return accepted;
  }

 private:
  struct Shard;  // defined below; referenced by the lane helpers' signatures

  /// Bit j set iff `block[j] == shard`, for j < 64; eight bytes per
  /// step, with no branch on them.
  static std::uint64_t route_mask(const std::uint8_t* block,
                                  std::uint8_t shard) {
    constexpr std::uint64_t kOnes = 0x0101010101010101ull;
    constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
    std::uint64_t m = 0;
    for (unsigned w = 0; w < 8; ++w) {
      // Zero bytes where the route names `shard`; then the high bit of
      // exactly those bytes, gathered into 8 adjacent bits by a multiply.
      const std::uint64_t x =
          get_le<std::uint64_t>(reinterpret_cast<const char*>(block) + 8 * w) ^
          (kOnes * shard);
      const std::uint64_t zero = ~(((x & kLow7) + kLow7) | x) & ~kLow7;
      m |= (((zero >> 7) * 0x0102040810204080ull) >> 56) << (8 * w);
    }
    return m;
  }

  /// Wait until the shard's ring has at least `want` free slots.  Returns
  /// true when the space is there — or when the shard went terminally
  /// dead mid-wait, which the caller re-checks.  Returns false when the
  /// wait is cut: the pipeline is closing, or the request deadline
  /// (`deadline_ns`, 0 = none) passed.  The free-space count is exact
  /// from the producer side: the caller holds the lane mutex (sole
  /// producer on this ring) and the consumer only ever frees slots.
  bool wait_ring_space(Shard& sh, std::size_t want, std::int64_t deadline_ns) {
    const auto free_now = [&sh] {
      return sh.ring.capacity() - sh.ring.size_approx();
    };
    if (free_now() >= want) return true;
    const std::int64_t stall_start = now_ns();
    stall_events_->inc();
    bool ok = true;
    std::int64_t backoff_us = 0;
    for (;;) {
      if (!accepting_.load(std::memory_order_acquire)) {
        ok = false;
        break;
      }
      if (shard_dead(sh)) break;
      if (free_now() >= want) break;
      if (deadline_ns != 0 && now_ns() >= deadline_ns) {
        push_timeouts_->inc();
        ok = false;
        break;
      }
      if (backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
        backoff_us = std::min<std::int64_t>(backoff_us * 2, 1000);
      } else {
        std::this_thread::yield();
        // Exponential backoff only for a wait with a deadline: an
        // unbounded wait keeps the latency-optimal pure spin-yield.
        if (deadline_ns != 0) backoff_us = 1;
      }
    }
    stall_ns_->inc(static_cast<std::uint64_t>(now_ns() - stall_start));
    return ok;
  }

  /// Fill staged slots in ring order from `next()`.
  template <typename Next>
  static void fill(const SpscRing::Runs<std::uint64_t>& runs, Next& next) {
    for (std::uint64_t& key : runs.first) key = next();
    for (std::uint64_t& key : runs.second) key = next();
  }

  /// Enqueue `n` keys from `next()` onto the shard's ring, in order, with
  /// no deadline: stage as many as are free, fill them, publish them, and
  /// wait for the live drain to free more.  Returns how many went in:
  /// fewer than `n` only when the shard died or the pipeline is closing.
  template <typename Next>
  std::size_t enqueue(Shard& sh, std::size_t n, Next&& next) {
    std::size_t done = 0;
    while (done < n && wait_ring_space(sh, 1, 0) && !shard_dead(sh)) {
      // Exact from the producer side: the consumer only frees slots.
      const std::size_t free = sh.ring.capacity() - sh.ring.size_approx();
      const SpscRing::Runs<std::uint64_t> runs =
          sh.ring.stage(std::min(n - done, free));
      fill(runs, next);
      sh.ring.publish(runs.size());
      done += runs.size();
    }
    return done;
  }

  /// The commit lane: one per-shard sub-batch of `n` keys, taken in order
  /// from `next()`, in one critical section under the shard's lane_mu —
  /// dedup peek, ring-space reservation, staging in the reserved slots,
  /// log append (WAL on), publish, sequence record.  Every enqueue onto
  /// the shard's ring happens here, so drain order is lane order, and with
  /// the WAL on it equals log order, which is what lets the checkpoint's
  /// drained-item count identify the exact log prefix it covers.  Returns
  /// the accepted count (see push_bulk); a WalError from the append
  /// propagates with nothing acked.
  template <typename Next>
  std::size_t lane_commit(std::size_t producer, Shard& sh, std::size_t n,
                          Next&& next, std::uint64_t client_id,
                          std::uint64_t client_seq, std::int64_t deadline_ns) {
    std::lock_guard<std::mutex> lk(sh.lane_mu);
    if (!accepting_.load(std::memory_order_acquire)) return 0;
    ClientSeqTable& seqs = sh.wal != nullptr ? sh.wal->seq_table() : sh.seqs;
    if (client_id != 0 && client_seq <= seqs.high(client_id)) {
      // Duplicate of an already-applied delivery: ack without waiting on
      // ring space — the retry must not block behind a full ring.
      sh.wal_dups->inc(n);
      return n;
    }
    // Admission: reserve ring space for the whole sub-batch (capped at
    // the ring's capacity).  Only the request deadline bounds this wait,
    // and a shed here leaves nothing enqueued, logged or recorded.  With
    // the WAL on it also keeps a logged batch from ever being abandoned
    // mid-log, which keeps checkpoint offsets aligned with log positions.
    if (!shard_dead(sh) &&
        !wait_ring_space(sh, std::min(n, sh.ring.capacity()), deadline_ns))
      return 0;
    // Traced request?  Leave the id on the shard, before its keys reach the
    // ring, so the sweep that drains them sees it (see worker_loop).
    if (obs::trace::enabled()) {
      const std::uint64_t trace_id = obs::trace::current_trace_id();
      if (trace_id != 0)
        sh.last_trace_id.store(trace_id, std::memory_order_relaxed);
    }
    // The one copy of the sub-batch: it is gathered straight into the ring
    // slots admission reserved, staged but not yet visible, and published
    // with one release store.  A sub-batch larger than the ring (admission
    // reserved only its capacity) follows the live drain, staged and
    // published as slots free up.
    std::size_t done = n;
    if (sh.wal == nullptr) {
      done = enqueue(sh, n, next);
      if (done == n)
        (void)seqs.record(client_id, client_seq);
      else if (shard_dead(sh))
        sh.dropped->inc(n - done);
    } else {
      // With the WAL on, the log writes the frame from the staged slot
      // runs, and only a logged sub-batch is published, so a worker never
      // applies a key the log does not hold (in a count-based window every
      // applied key moves the window); a refused or failed append leaves
      // the slots unpublished.  A sub-batch the ring cannot stage whole
      // (larger than the ring, or a dead shard's full ring) is gathered
      // into a buffer that lives for this call, because its frame is
      // logged whole before any of it is published.
      SpscRing::Runs<std::uint64_t> runs = sh.ring.stage(n);
      std::vector<std::uint64_t> gathered;
      if (runs.size() < n) {
        gathered.resize(n);
        runs = {gathered, {}};
      }
      fill(runs, next);
      bool logged = false;
      try {
        logged = sh.wal->append(runs.first, runs.second, client_id,
                                client_seq);
      } catch (const DiskFault& e) {
        // The disk under the log is sick (ENOSPC/EIO): park the pipeline
        // read-only and tell the caller with the typed error.  Nothing
        // was acked and nothing reached the worker, so a post-recovery
        // retry is clean and deduplicated.
        enter_degraded(e.what());
        throw DegradedError(e.what());
      }
      if (!logged) {
        sh.wal_dups->inc(n);
        return n;  // the earlier delivery already covered it
      }
      // Logged, so accepted whatever happens next.  Only terminal shard
      // death (or close) stops the enqueue, and then the logged tail
      // surfaces, in order, at the next resume — a dead shard never
      // drains or checkpoints again, so no later batch can be applied
      // *behind* it.
      if (!gathered.empty()) {
        std::size_t i = 0;
        (void)enqueue(sh, n, [&] { return gathered[i++]; });
      } else if (!shard_dead(sh)) {
        sh.ring.publish(n);
      }
    }
    if (done > 0) produced_[producer]->inc(done);
    return done;
  }

 public:
  /// Stop accepting, drain every ring, publish final snapshots (and final
  /// checkpoints when configured), join workers.  Idempotent.  If start()
  /// was never called the queues are drained inline on the calling thread.
  void close() {
    if (closed_.load(std::memory_order_relaxed)) return;
    accepting_.store(false, std::memory_order_release);
    stopping_.store(true, std::memory_order_release);
    if (started_.load(std::memory_order_relaxed)) {
      if (supervisor_.joinable()) supervisor_.join();
      for (auto& t : workers_)
        if (t.joinable()) t.join();
      workers_.clear();
    } else {
      for (std::size_t s = 0; s < opt_.shards; ++s) worker_entry(s);
    }
    // The supervisor's last tick predates the final drain.
    for (const auto& sh : shards_)
      sh->queue_depth->set(static_cast<std::int64_t>(sh->ring.size_approx()));
    closed_.store(true, std::memory_order_relaxed);
  }

  /// Drain-then-publish barrier: ask every live shard worker to finish
  /// draining its ring, publish a fresh snapshot, and — with
  /// `with_checkpoint` and a configured checkpoint_dir — write a durable
  /// frame (not on a shard whose restart lost items; see restart_shard),
  /// then wait for the acknowledgements.  This is what a serving
  /// front-end's FLUSH (make earlier accepted inserts visible to
  /// snapshot queries) and SAVE (checkpoint now, not at the next
  /// interval) commands ride on.
  ///
  /// Returns true when every shard acked within `timeout_ms`; false on
  /// timeout or when a shard is dead/abandoned.  Workers ack only from
  /// their idle branch (ring momentarily empty), so under relentless
  /// concurrent ingest the barrier is best-effort and bounded by the
  /// timeout.  Any thread may call this; on a closed (or never-started)
  /// pipeline the final state is already published and checkpointed, so
  /// it returns true immediately.
  bool sync(bool with_checkpoint, std::size_t timeout_ms = 5000) {
    if (closed_.load(std::memory_order_acquire)) return true;
    if (!started_.load(std::memory_order_relaxed)) {
      // No workers yet: the construction-time snapshots are current.
      return true;
    }
    std::vector<std::uint64_t> want(opt_.shards);
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      Shard& sh = *shards_[s];
      if (with_checkpoint && !opt_.checkpoint_dir.empty())
        sh.sync_ckpt.store(true, std::memory_order_relaxed);
      want[s] = sh.sync_req.fetch_add(1, std::memory_order_acq_rel) + 1;
    }
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
    bool ok = true;
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      Shard& sh = *shards_[s];
      while (sh.sync_ack.load(std::memory_order_acquire) < want[s]) {
        if (closed_.load(std::memory_order_acquire)) return true;
        if (shard_dead(sh)) {  // nobody will ever ack this shard
          ok = false;
          break;
        }
        if (now_ns() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return ok;
  }

  /// Shard `s`'s latest published estimator state: a pointer copy, no
  /// estimator copy.  The object is immutable and shared by every reader
  /// until the next publish replaces it; holding the pointer keeps that
  /// state alive across later publishes and past the pipeline's own
  /// destruction.  Callable from any thread at any time.
  [[nodiscard]] std::shared_ptr<const Estimator> view(std::size_t s) const {
    const Shard& sh = *shards_[s];
    std::lock_guard<std::mutex> lk(sh.view_mu);
    return sh.view;
  }

  /// A private, mutable copy of view(s).
  [[nodiscard]] Estimator snapshot(std::size_t s) const { return *view(s); }

  /// The pipeline's private metric registry (always on); export it with
  /// obs::write_prometheus / obs::write_json, typically alongside
  /// obs::default_registry().
  [[nodiscard]] const obs::Registry& metrics_registry() const {
    return registry_;
  }

 private:
  enum class WorkerState : int { kIdle, kRunning, kFaulted, kAbandoned };

  struct Shard {
    Shard(Estimator e, std::size_t queue_capacity)
        : est(std::move(e)), ring(queue_capacity) {}
    Estimator est;  ///< worker-owned once start() runs
    std::size_t index = 0;
    /// Last published state.  Only the thread owning `est` replaces it;
    /// readers copy the pointer from any thread.  The mutex is held only
    /// for that pointer copy or swap: libstdc++'s
    /// std::atomic<std::shared_ptr> releases its internal lock with a
    /// relaxed store on load, which ThreadSanitizer reports as a race.
    mutable std::mutex view_mu;
    std::shared_ptr<const Estimator> view;  ///< guarded by view_mu
    /// The shard's backlog: producers stage and publish under lane_mu,
    /// the worker peeks, applies and releases.
    SpscRing ring;
    std::uint64_t since_publish = 0;     ///< worker-only
    std::uint64_t consumed = 0;          ///< worker-only: items applied
    std::uint64_t consumed_at_publish = 0;  ///< worker-only
    std::uint64_t last_checkpoint = 0;   ///< worker-only: consumed at frame
    std::uint64_t ckpt_ordinal = 0;      ///< worker-only: frames written
    std::uint64_t resume_offset = 0;     ///< fixed at construction
    std::uint64_t hwm_local = 0;         ///< worker-only mirror
    /// Set by a restart that lost applied items: the estimator no longer
    /// holds a prefix of the shard's stream, so no checkpoint offset
    /// describes it and the shard writes no more frames.  Worker-only,
    /// like `consumed` (the supervisor writes it while the worker is dead).
    bool ckpt_frozen = false;
    /// Backlog log (wal_mode != kOff).
    std::unique_ptr<ShardWal> wal;
    /// The commit lane: serializes every sub-batch commit for this shard
    /// (dedup peek, ring-space reservation, append, enqueue, sequence
    /// record) so enqueue order equals drain order — and, with the WAL
    /// on, log-append order — for any number of producers.  See
    /// lane_commit().
    std::mutex lane_mu;
    /// In-memory idempotence filter when the WAL is off but clients still
    /// send identities (the WAL embeds its own table when on).  Written
    /// under lane_mu.
    ClientSeqTable seqs;
    /// Worker-only: offsets of the last `checkpoint_keep` checkpoint
    /// frames, oldest first.  The WAL retirement low-water is the *oldest*
    /// retained generation — resume may fall back past a corrupt newest
    /// frame, and that older base still needs its replay suffix.
    std::vector<std::uint64_t> ckpt_history;
    // Supervision handshake.  The worker's plain fields above are read by
    // the supervisor only after it observed kFaulted (released by the
    // dying worker) and joined the thread.
    std::atomic<WorkerState> state{WorkerState::kIdle};
    std::atomic<std::int64_t> heartbeat_ns{0};
    // Sync handshake (see sync()): a caller bumps sync_req; the worker
    // acks after its ring drained and a fresh snapshot (and, when
    // sync_ckpt was set, a durable frame) was published.
    std::atomic<std::uint64_t> sync_req{0};
    std::atomic<std::uint64_t> sync_ack{0};
    std::atomic<bool> sync_ckpt{false};
    /// Trace id of the most recent traced push routed here, stored before
    /// its keys are enqueued; the worker adopts it for a sweep, and clears
    /// it in a sweep that drained, so drain / publish / checkpoint spans
    /// carry the requester's id.
    std::atomic<std::uint64_t> last_trace_id{0};
    std::string fault_msg;           ///< written before state -> kFaulted
    // Registry-owned metrics (see bind_metrics); plain pointers, the
    // registry outlives the shards.
    obs::Counter* inserted = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* drains = nullptr;
    obs::Counter* publishes = nullptr;
    obs::Counter* restarts = nullptr;
    obs::Counter* faults = nullptr;
    obs::Counter* wedged = nullptr;
    obs::Counter* lost = nullptr;
    obs::Counter* replayed = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* wal_replayed = nullptr;
    obs::Counter* wal_dups = nullptr;
    obs::Gauge* queue_hwm = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };

  void bind_metrics(Shard& sh, std::size_t s) {
    const obs::Labels shard_label = {{"shard", std::to_string(s)}};
    sh.inserted = &registry_.counter("she_pipeline_inserted_total",
                                     "items drained into the estimator",
                                     shard_label);
    sh.dropped = &registry_.counter(
        "she_pipeline_dropped_total",
        "keys not enqueued because the shard died (dead-shard abort)",
        shard_label);
    sh.drains = &registry_.counter("she_pipeline_drains_total",
                                   "non-empty drain sweeps", shard_label);
    sh.publishes = &registry_.counter("she_pipeline_publishes_total",
                                      "snapshot publications", shard_label);
    sh.restarts = &registry_.counter("she_pipeline_worker_restarts_total",
                                     "supervised worker restarts",
                                     shard_label);
    sh.faults = &registry_.counter("she_pipeline_worker_faults_total",
                                   "worker threads died by exception",
                                   shard_label);
    sh.wedged = &registry_.counter(
        "she_pipeline_worker_wedged_total",
        "heartbeat-stale episodes detected by the supervisor", shard_label);
    sh.lost = &registry_.counter(
        "she_pipeline_items_lost_total",
        "items rolled back to the last published snapshot at a restart",
        shard_label);
    sh.replayed = &registry_.counter(
        "she_pipeline_items_replayed_total",
        "ring backlog re-drained by a restarted worker", shard_label);
    sh.checkpoints = &registry_.counter("she_pipeline_checkpoints_total",
                                        "durable checkpoint frames written",
                                        shard_label);
    sh.wal_replayed = &registry_.counter(
        "she_pipeline_wal_replayed_total",
        "items re-inserted from the backlog log at resume", shard_label);
    sh.wal_dups = &registry_.counter(
        "she_pipeline_wal_duplicates_total",
        "keys skipped as already-applied client replays", shard_label);
    sh.queue_hwm = &registry_.gauge("she_pipeline_queue_hwm",
                                    "deepest shard backlog observed",
                                    shard_label);
    sh.queue_depth = &registry_.gauge(
        "she_pipeline_queue_depth",
        "queued items in the shard's ring (supervisor tick)",
        shard_label);
  }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  [[nodiscard]] std::string checkpoint_path(std::size_t s) const {
    return opt_.checkpoint_dir + "/shard-" + std::to_string(s) + ".ckpt";
  }

  [[nodiscard]] std::string wal_path(std::size_t s) const {
    return opt_.checkpoint_dir + "/shard-" + std::to_string(s) + ".wal";
  }

  /// A shard whose ring will never drain again: abandoned past
  /// kMaxRestarts.
  [[nodiscard]] bool shard_dead(const Shard& sh) const {
    return sh.state.load(std::memory_order_acquire) == WorkerState::kAbandoned;
  }

  void publish(Shard& sh) {
    SHE_TRACE_SPAN("pipeline.publish", "pipeline");
    const std::int64_t t0 = now_ns();
    std::shared_ptr<const Estimator> next =
        std::make_shared<const Estimator>(sh.est);
    {
      std::lock_guard<std::mutex> lk(sh.view_mu);
      sh.view.swap(next);
    }
    next.reset();  // the previous view, freed outside the lock unless held
    publish_hist_->observe(static_cast<std::uint64_t>(now_ns() - t0));
    sh.publishes->inc();
    sh.since_publish = 0;
    sh.consumed_at_publish = sh.consumed;
    if (!opt_.checkpoint_dir.empty() &&
        sh.consumed_at_publish - sh.last_checkpoint >= opt_.checkpoint_interval)
      write_checkpoint(sh);
  }

  /// Frame the published view and atomically replace the shard's
  /// checkpoint file, so the durable state is always some published state.
  /// Runs on the worker thread; the injection hook may corrupt the frame
  /// on purpose.  A frame at the newest one's offset (a SAVE with nothing
  /// applied since) replaces generation 0 in place: rotating would push a
  /// distinct older generation out for a copy of the newest.
  void write_checkpoint(Shard& sh) {
    SHE_TRACE_SPAN("pipeline.checkpoint", "pipeline");
    if (degraded_.load(std::memory_order_acquire))
      return;  // disk is sick: keep the previous generation until recovery
    if (sh.ckpt_frozen) return;  // the newest frame is the last exact prefix
    const std::int64_t t0 = now_ns();
    const bool rotate = sh.consumed_at_publish != sh.last_checkpoint;
    // The frame borrows the view's cell pages: hold the view until the
    // write returns.
    const std::shared_ptr<const Estimator> v = view(sh.index);
    CheckpointFrame frame;
    BinaryWriter w = frame.writer();
    v->save(w);
    seal_checkpoint(frame, sh.consumed_at_publish);
    fault::maybe_corrupt_frame(sh.index, sh.ckpt_ordinal, frame);
    try {
      if (fault::maybe_ckpt_eio(sh.index, sh.ckpt_ordinal))
        throw DiskFault(
            "checkpoint: injected EIO on " + checkpoint_path(sh.index), EIO);
      if (rotate)
        rotate_checkpoints(checkpoint_path(sh.index), opt_.checkpoint_keep);
      write_file_atomic(checkpoint_path(sh.index), frame.iov);
    } catch (const DiskFault& e) {
      // Survivable: the previous generation stays in place and the
      // pipeline parks read-only instead of killing the worker.
      enter_degraded(e.what());
      return;
    }
    ++sh.ckpt_ordinal;
    sh.checkpoints->inc();
    sh.last_checkpoint = sh.consumed_at_publish;
    if (rotate && sh.wal != nullptr) {
      // A durable checkpoint retires the WAL segments below the *oldest*
      // generation rotate_checkpoints still keeps: resume may fall back
      // that far past corrupt newer frames, and replays forward from it.
      sh.ckpt_history.push_back(sh.consumed_at_publish);
      while (sh.ckpt_history.size() > opt_.checkpoint_keep)
        sh.ckpt_history.erase(sh.ckpt_history.begin());
      try {
        sh.wal->retire(sh.ckpt_history.front());
      } catch (const WalError&) {
        // A segment that cannot be unlinked yet stays in the log, which
        // is still valid, and is retried at the next checkpoint.
      }
    }
    checkpoint_hist_->observe(static_cast<std::uint64_t>(now_ns() - t0));
  }

  /// Park the pipeline read-only after a survivable disk fault.  Any
  /// thread (push callers and shard workers both land here).
  void enter_degraded(const std::string& why) {
    disk_faults_->inc();
    {
      std::lock_guard<std::mutex> lk(degraded_mu_);
      degraded_msg_ = why;
    }
    // Start the probe clock now so the first recovery attempt waits a
    // full interval — the fault is fresh, the disk almost certainly
    // still sick.
    last_probe_ns_.store(now_ns(), std::memory_order_relaxed);
    degraded_gauge_->set(1);
    degraded_.store(true, std::memory_order_release);
  }

  /// Push-path gate: fail fast with the typed error while degraded,
  /// running at most one disk-recovery probe per kDegradedProbeMs.
  void check_degraded() {
    if (!degraded_.load(std::memory_order_acquire)) return;
    if (try_recover()) return;
    std::lock_guard<std::mutex> lk(degraded_mu_);
    throw DegradedError("pipeline degraded (read-only): " + degraded_msg_);
  }

  /// One caller per probe interval actually touches the disk: a tiny
  /// durable write-and-remove in the checkpoint directory — the same
  /// filesystem the WAL and checkpoint writers need.  Returns true when
  /// this call cleared degraded mode.
  bool try_recover() {
    constexpr std::int64_t interval =
        static_cast<std::int64_t>(kDegradedProbeMs) * 1'000'000;
    std::int64_t last = last_probe_ns_.load(std::memory_order_relaxed);
    const std::int64_t now = now_ns();
    if (now - last < interval) return false;
    if (!last_probe_ns_.compare_exchange_strong(last, now,
                                                std::memory_order_relaxed))
      return false;  // another pusher won this probe slot
    try {
      const std::string probe = opt_.checkpoint_dir + "/.probe";
      static constexpr char kProbe[] = {'o', 'k'};
      write_file_atomic(probe, std::span<const char>(kProbe, sizeof kProbe));
      std::error_code ec;
      std::filesystem::remove(probe, ec);
    } catch (const std::exception&) {
      return false;  // still sick; next probe after the interval
    }
    degraded_gauge_->set(0);
    degraded_.store(false, std::memory_order_release);
    return true;
  }

  void worker_entry(std::size_t si) {
    Shard& sh = *shards_[si];
    sh.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
    sh.state.store(WorkerState::kRunning, std::memory_order_release);
    try {
      worker_loop(si);
      sh.state.store(WorkerState::kIdle, std::memory_order_release);
    } catch (const std::exception& e) {
      // The estimator may be mid-batch; only the published snapshot is
      // trustworthy now.  The supervisor rolls back to it.
      sh.fault_msg = e.what();
      sh.faults->inc();
      sh.state.store(WorkerState::kFaulted, std::memory_order_release);
    }
  }

  void worker_loop(std::size_t si) {
    Shard& sh = *shards_[si];
    for (;;) {
      const std::int64_t sweep_start = now_ns();
      sh.heartbeat_ns.store(sweep_start, std::memory_order_relaxed);
      fault::maybe_stall(si, sh.consumed);
      fault::maybe_throw(si, sh.consumed);
      // Adopt the id of the most recent traced push routed to this shard,
      // so this sweep's drain/publish/checkpoint spans carry it across the
      // producer → worker thread hop.  Only a sweep that drains clears it:
      // an idle sweep must not take it from keys still on their way.
      const bool tracing = obs::trace::enabled();
      std::uint64_t adopted =
          tracing ? sh.last_trace_id.load(std::memory_order_relaxed) : 0;
      obs::trace::TraceIdScope trace_scope(adopted);
      const std::uint64_t sweep_ticks =
          tracing ? obs::trace::now_ticks() : 0;
      // Also sampled here: the supervisor's tick misses short peaks.
      const std::size_t depth = sh.ring.size_approx();
      if (depth > sh.hwm_local) {
        sh.hwm_local = depth;
        sh.queue_hwm->max_of(static_cast<std::int64_t>(depth));
      }
      // At most publish_interval items per sweep: a lane that keeps pace
      // must not keep the worker away from the sweep-start heartbeat and
      // fault hooks.  Each block is applied where it lies in the ring,
      // counted in `consumed`, and only then released: a throw inside
      // insert_batch leaves the block it was applying in the ring for the
      // restarted worker, and every block applied before it is inside
      // the rollback gap the restart heals from the log or counts lost.
      std::size_t got = 0;
      while (got < opt_.publish_interval) {
        const SpscRing::Runs<const std::uint64_t> block =
            sh.ring.peek(kDrainBatch);
        const std::size_t n = block.size();
        if (n == 0) break;
        if (tracing && got == 0) {
          // The id was stored before these keys were published, so once
          // they are visible it is too, even if this sweep began before
          // the push.
          adopted = sh.last_trace_id.load(std::memory_order_relaxed);
          obs::trace::set_current_trace_id(adopted);
        }
        {
          SHE_TRACE_SPAN("estimator.insert_batch", "estimator");
          feed_shard(sh.est, block.first);  // pipelined hash-ahead + prefetch
          if (!block.second.empty()) feed_shard(sh.est, block.second);
        }
        sh.consumed += n;
        sh.since_publish += n;
        sh.inserted->inc(n);
        sh.ring.release(n);
        got += n;
        if (n < kDrainBatch) break;  // ring (momentarily) empty
      }
      if (got > 0) {
        // A newer request's id stays for the sweep that drains its keys.
        if (adopted != 0)
          sh.last_trace_id.compare_exchange_strong(adopted, 0,
                                                   std::memory_order_relaxed);
        drain_hist_->observe(static_cast<std::uint64_t>(now_ns() - sweep_start));
        if (tracing)
          obs::trace::record("pipeline.drain", "pipeline", sweep_ticks,
                             obs::trace::now_ticks(),
                             obs::trace::current_trace_id());
        sh.drains->inc();
        if (sh.since_publish >= opt_.publish_interval) publish(sh);
        continue;
      }
      // Idle: surface whatever arrived since the last publish so readers
      // see a fresh snapshot even in quiet periods.
      if (sh.since_publish > 0) publish(sh);
      // sync() barrier: the ring is momentarily empty, so publish and ack.
      const std::uint64_t syncreq = sh.sync_req.load(std::memory_order_acquire);
      if (syncreq != sh.sync_ack.load(std::memory_order_relaxed)) {
        // The empty-ring observation above predates this acquire load, so
        // it may have missed pushes made just before the sync() call.  The
        // acquire makes those pushes visible; re-check and re-drain before
        // acking, or the barrier publishes a snapshot missing items it
        // promised to cover.
        if (sh.ring.size_approx() > 0) continue;
        publish(sh);
        if (sh.sync_ckpt.exchange(false, std::memory_order_acq_rel) &&
            !opt_.checkpoint_dir.empty())
          write_checkpoint(sh);
        sh.sync_ack.store(syncreq, std::memory_order_release);
      }
      if (stopping_.load(std::memory_order_acquire) &&
          sh.ring.size_approx() == 0)
        break;
      std::this_thread::yield();
    }
    publish(sh);  // final state, unconditionally
    if (!opt_.checkpoint_dir.empty() &&
        sh.consumed_at_publish != sh.last_checkpoint)
      write_checkpoint(sh);
  }

  /// Supervisor: poll worker states, restart the dead, count the wedged,
  /// and refresh the queue-depth gauges and the windowed rate, so scrapes
  /// see backlog even while a worker is stuck inside a long sweep.
  void supervisor_loop() {
    std::vector<std::uint64_t> restart_count(opt_.shards, 0);
    // The last stale heartbeat counted per shard: one wedge per episode.
    std::vector<std::int64_t> flagged(opt_.shards, 0);
    constexpr std::int64_t kHeartbeatTimeoutNs =
        static_cast<std::int64_t>(kHeartbeatTimeoutMs) * 1'000'000;
    constexpr std::int64_t kRateSampleIntervalNs =
        static_cast<std::int64_t>(kRateSampleIntervalMs) * 1'000'000;
    RateWindow rate_window(kRateWindowS);
    std::int64_t last_rate_sample = 0;
    while (!stopping_.load(std::memory_order_acquire)) {
      std::uint64_t inserted_total = 0;
      for (std::size_t s = 0; s < opt_.shards; ++s) {
        Shard& sh = *shards_[s];
        const auto depth = static_cast<std::int64_t>(sh.ring.size_approx());
        sh.queue_depth->set(depth);
        sh.queue_hwm->max_of(depth);
        inserted_total += sh.inserted->value();
        const WorkerState st = sh.state.load(std::memory_order_acquire);
        if (st == WorkerState::kFaulted) {
          if (restart_count[s] >= kMaxRestarts) {
            sh.state.store(WorkerState::kAbandoned,
                           std::memory_order_release);
            continue;
          }
          ++restart_count[s];
          restart_shard(s);
        } else if (st == WorkerState::kRunning) {
          // Wedged: a sweep (a long checkpoint, a stall) outlived the
          // timeout.  Only counted — the worker is still the shard's one
          // live consumer, and a thread cannot be killed anyway.
          const std::int64_t hb =
              sh.heartbeat_ns.load(std::memory_order_relaxed);
          if (hb != 0 && hb != flagged[s] &&
              now_ns() - hb > kHeartbeatTimeoutNs) {
            sh.wedged->inc();
            flagged[s] = hb;
          }
        }
      }
      if (const std::int64_t now = now_ns();
          now - last_rate_sample >= kRateSampleIntervalNs) {
        rate_window.sample(now, inserted_total);
        rate_gauge_->set(static_cast<std::int64_t>(rate_window.rate()));
        last_rate_sample = now;
      }
      // Sleep in small slices so close() is never delayed.
      auto remaining = std::chrono::milliseconds(kSupervisorIntervalMs);
      while (remaining.count() > 0 &&
             !stopping_.load(std::memory_order_acquire)) {
        const auto slice = std::min(remaining, std::chrono::milliseconds(2));
        std::this_thread::sleep_for(slice);
        remaining -= slice;
      }
    }
  }

  /// Re-insert the part of the logged frame `f` (its `keys`) in [pos, end)
  /// into the shard's estimator, advancing `pos`; false — stop the scan —
  /// at a hole in the log (a frame starting past `pos`) or at `end`.
  static bool replay_frame(Shard& sh, const WalFrame& f,
                           std::span<const std::uint64_t> keys,
                           std::uint64_t& pos, std::uint64_t end) {
    if (f.end_offset() <= pos) return true;  // already applied
    if (f.start_offset > pos) return false;  // a hole
    const std::span<const std::uint64_t> part = keys.subspan(
        static_cast<std::size_t>(pos - f.start_offset),
        static_cast<std::size_t>(std::min(f.end_offset(), end) - pos));
    feed_shard(sh.est, part);
    sh.wal_replayed->inc(part.size());
    pos += part.size();
    return pos < end;
  }

  /// Heal the rollback gap [consumed_at_publish, consumed) of a freshly
  /// rolled-back estimator from the log; returns the offset healed up to.
  /// Runs on the supervisor thread after the dead worker was joined, so
  /// it owns sh.est; a concurrent producer may be appending past
  /// `consumed`, but the range we read is already flushed to the file
  /// (it was applied by the worker, so its append long since returned).
  /// The scan stops at `consumed`, short of the active segment's tail,
  /// which it neither truncates nor counts as torn.
  std::uint64_t wal_heal(Shard& sh) {
    std::uint64_t pos = sh.consumed_at_publish;
    if (pos >= sh.consumed) return sh.consumed;
    try {  // on a read error, what was replayed before it stays applied
      (void)read_wal(wal_path(sh.index), [&](const WalFrame& f, auto keys) {
        return replay_frame(sh, f, keys, pos, sh.consumed);
      });
    } catch (const std::exception&) {
    }
    return pos;
  }

  /// Join the dead worker, roll the shard back to its last published
  /// snapshot (the live estimator may be mid-batch garbage), account
  /// lost/replayed items, relaunch.  With the WAL on, the rollback gap
  /// [consumed_at_publish, consumed) is healed back from the log (every
  /// applied item was logged first), so nothing is lost and the
  /// checkpoint offset keeps identifying a log prefix.  Without it the gap
  /// is lost, and the shard stops checkpointing (`ckpt_frozen`).
  void restart_shard(std::size_t s) {
    Shard& sh = *shards_[s];
    if (workers_[s].joinable()) workers_[s].join();
    const std::uint64_t backlog = sh.ring.size_approx();
    try {
      Estimator restored = *view(s);
      std::destroy_at(&sh.est);
      std::construct_at(&sh.est, std::move(restored));
    } catch (const std::exception&) {
      // Only the copy can fail (out of memory); the shard cannot be
      // saved then — abandon it.
      sh.state.store(WorkerState::kAbandoned, std::memory_order_release);
      return;
    }
    if (sh.wal != nullptr) {
      const std::uint64_t healed = wal_heal(sh);
      if (healed < sh.consumed) {
        // A hole in the log below `consumed` (should be impossible: items
        // are logged before they are applied).  The unhealable range is
        // gone from the live estimator; account it like the no-WAL path
        // would.
        sh.lost->inc(sh.consumed - healed);
        sh.ckpt_frozen = true;
      }
    } else if (sh.consumed > sh.consumed_at_publish) {
      // The dead worker applied these items and released their slots;
      // they are gone.  Later frames would name an offset that skips the
      // wrong keys on resume, so the shard's checkpoints stop here.
      sh.lost->inc(sh.consumed - sh.consumed_at_publish);
      sh.consumed = sh.consumed_at_publish;
      sh.ckpt_frozen = true;
    }
    sh.since_publish = 0;
    sh.replayed->inc(backlog);
    sh.restarts->inc();
    sh.state.store(WorkerState::kIdle, std::memory_order_release);
    workers_[s] = std::thread([this, s] { worker_entry(s); });
  }

  PipelineOptions opt_;
  obs::Registry registry_;  ///< declared before anything holding handles
  obs::Histogram* drain_hist_ = nullptr;
  obs::Histogram* publish_hist_ = nullptr;
  obs::Histogram* push_hist_ = nullptr;
  obs::Histogram* checkpoint_hist_ = nullptr;
  obs::Counter* stall_ns_ = nullptr;
  obs::Counter* stall_events_ = nullptr;
  obs::Counter* push_timeouts_ = nullptr;
  obs::Gauge* rate_gauge_ = nullptr;
  obs::Gauge* degraded_gauge_ = nullptr;
  obs::Counter* disk_faults_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<obs::Counter*> produced_;  ///< one per producer
  std::vector<std::thread> workers_;     ///< indexed by shard
  std::thread supervisor_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> closed_{false};
  std::atomic<bool> degraded_{false};
  std::atomic<std::int64_t> last_probe_ns_{0};
  std::mutex degraded_mu_;
  std::string degraded_msg_;  ///< guarded by degraded_mu_
};

}  // namespace she::runtime
