// PipelineCore — the ingest runtime behind IngestPipeline<Estimator>,
// compiled once for every estimator type, which it reaches only through
// ShardState (apply, clone, save, and the typed layer's loader).
//
// The hardware pipeline sustains one item per cycle because insertion and
// lazy cleaning are single-stage operations; this is the CPU serving-path
// analogue.  Producers route keys by Sharded<T>'s hash (so accuracy
// semantics carry over) and commit each per-shard sub-batch through that
// shard's commit lane: its mutex plus its one SPSC ring.  Each shard's
// worker thread exclusively owns its estimator, applies the ring's keys in
// blocks where they lie, and every `publish_interval` items publishes an
// immutable copy that all readers share:
//
//   producers ──lane s (mutex + ring)──▶ worker s ──owns──▶ estimator s
//                                           ├─publishes──▶ view s ◀─readers
//                                           │   (shared_ptr<const ShardState>)
//                                           └─checkpoints─▶ shard-s.ckpt
//
// Lanes (lane_commit): one critical section per sub-batch — a dedup peek
// of the client identity, a ring-space reservation for the whole
// sub-batch (capped at the ring's capacity; only the request deadline
// bounds the wait, and a shed leaves nothing enqueued), then the keys are
// gathered straight into the reserved slots (SpscRing::stage) and made
// visible with one release store (SpscRing::publish).  Producers waiting
// on one full shard sleep on its mutex.  Every wait (an idle worker, a
// producer short of ring space, sync(), the supervisor) is one Doorbell:
// spin briefly, then park until rung.  The worker applies up to
// kDrainBatch keys where they lie (SpscRing::peek), counts them, and only
// then frees their slots (SpscRing::release): each key is copied once,
// into its ring slot, and `queue_capacity` bounds a shard's whole backlog
// whatever the producer count.
//
// Fault tolerance (docs/INTERNALS.md §10 and §14):
//   * Checkpoints: with `checkpoint_dir` set, a worker frames its
//     just-published view (CRC32, atomic write-rename) every
//     `checkpoint_interval` items, on a sync, and at close; resume reloads
//     the newest intact generation (a corrupt one throws CheckpointError)
//     and records each shard's stream offset (resume_offset()).
//   * Self-healing workers: a worker that throws rolls itself back to its
//     last published view and re-enters its loop on the same thread.
//     Items applied since are healed from the WAL or counted lost, and a
//     loss ends that shard's checkpoints, so its newest frame stays an
//     exact prefix of its stream.  The block it was applying stays in the
//     ring, counted replayed.  After kMaxRestarts the next fault abandons
//     the shard, the only terminal state.  The supervisor only observes: a
//     worker whose heartbeat is older than kHeartbeatTimeoutMs is counted
//     as wedged, and it is still the shard's one live consumer.
//   * WAL: the lane appends the staged sub-batch to the shard's segmented
//     log after the reservation and before the publish, so drain order
//     equals log order and a checkpoint's offset (a count of drained
//     items) names the exact log prefix it covers.  Segments below the
//     oldest retained generation are unlinked, and resume replays the
//     suffix, so kill -9 at any instant reconstructs the accepted stream
//     byte-identically.  Only an abandoned shard logs a batch without
//     enqueueing it; the logged tail surfaces, in order, at the next
//     resume.
//   * Client replay: a (client_id, client_seq) is recorded only once its
//     whole sub-batch is enqueued or logged — inside the log with the WAL
//     on, in memory without it — so replay is exactly-once per shard.
//   * Disk faults (ENOSPC/EIO) park the pipeline read-only until a probe
//     finds the disk healthy again.
//   * Fault injection (common/fault_injection.hpp, in every build) drives
//     each of these paths on purpose.
//
// Observability: the pipeline's private, always-on obs::Registry is the
// only home of its counters, histograms and gauges.  The supervisor
// refreshes the queue-depth gauges every tick and alone feeds the windowed
// rate, so scrapes see backlog and rate even while a worker is stuck
// inside a long sweep.
#include "runtime/ingest_pipeline.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/bobhash.hpp"
#include "common/checkpoint.hpp"
#include "common/fault_injection.hpp"
#include "runtime/doorbell.hpp"

namespace she::runtime {

void PipelineOptions::validate() const {
  if (shards == 0 || shards > kMaxShards)
    throw std::invalid_argument("PipelineOptions: shards must be in 1..256");
  if (producers == 0)
    throw std::invalid_argument("PipelineOptions: producers must be > 0");
  if (queue_capacity == 0 || queue_capacity > SpscRing::kMaxCapacity)
    throw std::invalid_argument(
        "PipelineOptions: queue_capacity must be in 1..2^26");
  if (publish_interval == 0)
    throw std::invalid_argument(
        "PipelineOptions: publish_interval must be > 0");
  if (resume && checkpoint_dir.empty())
    throw std::invalid_argument(
        "PipelineOptions: resume needs a checkpoint_dir");
  if (!checkpoint_dir.empty() && checkpoint_interval == 0)
    throw std::invalid_argument(
        "PipelineOptions: checkpoint_interval must be > 0");
  if (checkpoint_keep == 0)
    throw std::invalid_argument(
        "PipelineOptions: checkpoint_keep must be >= 1");
  if (wal_mode != WalMode::kOff && checkpoint_dir.empty())
    throw std::invalid_argument(
        "PipelineOptions: the WAL needs a checkpoint_dir (the log lives "
        "beside the shard checkpoints it backstops)");
}

void RateWindow::sample(std::int64_t now_ns, std::uint64_t total) {
  samples_.emplace_back(now_ns, total);
  // Keep one sample at or before the window start so the rate really
  // covers the whole window, not just the interior samples.
  while (samples_.size() > 2 && samples_[1].first <= now_ns - window_ns_)
    samples_.pop_front();
}

double RateWindow::rate() const {
  if (samples_.size() < 2) return 0.0;
  const auto& [t0, c0] = samples_.front();
  const auto& [t1, c1] = samples_.back();
  if (t1 <= t0 || c1 < c0) return 0.0;
  return static_cast<double>(c1 - c0) /
         (static_cast<double>(t1 - t0) / 1e9);
}

namespace {

enum class WorkerState : int { kIdle, kRunning, kFaulted, kAbandoned };

/// The pipeline's lifecycle; only start() and close() advance it.
enum class Phase : int { kNew, kRunning, kClosing, kClosed };

/// Longest park of an idle worker.  Below kHeartbeatTimeoutMs, so a parked
/// worker's heartbeat never looks wedged; 10 wake-ups a second cost three
/// idle 2-shard pipelines well under 1 % of a core on a 4-vCPU host.
constexpr std::int64_t kParkCapNs = 100'000'000;
static_assert(kParkCapNs < PipelineCore::kHeartbeatTimeoutMs * 1'000'000);

struct Shard {
  Shard(std::shared_ptr<ShardState> e, std::size_t queue_capacity)
      : est(std::move(e)), ring(queue_capacity) {}
  std::shared_ptr<ShardState> est;  ///< worker-owned once start() runs
  std::size_t index = 0;
  /// Last published state.  Only the thread owning `est` replaces it;
  /// readers copy the pointer from any thread.  The mutex is held only
  /// for that pointer copy or swap: libstdc++'s
  /// std::atomic<std::shared_ptr> releases its internal lock with a
  /// relaxed store on load, which ThreadSanitizer reports as a race.
  mutable std::mutex view_mu;
  std::shared_ptr<const ShardState> view;  ///< guarded by view_mu
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
  /// Set by a rollback that lost applied items: the estimator no longer
  /// holds a prefix of the shard's stream, so no checkpoint offset
  /// describes it and the shard writes no more frames.  Worker-only.
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
  /// Written by the worker; kFaulted while it rolls itself back.
  std::atomic<WorkerState> state{WorkerState::kIdle};
  std::atomic<std::int64_t> heartbeat_ns{0};
  // Sync handshake (see sync()): a caller bumps sync_req; the worker
  // acks after its ring drained and a fresh snapshot (and, when
  // sync_ckpt was set, a durable frame) was published.
  std::atomic<std::uint64_t> sync_req{0};
  std::atomic<std::uint64_t> sync_ack{0};
  std::atomic<bool> sync_ckpt{false};
  /// Rung on work (a lane's publish, sync(), close()) and on progress (a
  /// sweep that drained, a sync ack, shard death).
  Doorbell bell;
  /// Trace id of the most recent traced push routed here, stored before
  /// its keys are enqueued; the worker adopts it for a sweep, and clears
  /// it in a sweep that drained, so drain / publish / checkpoint spans
  /// carry the requester's id.
  std::atomic<std::uint64_t> last_trace_id{0};
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
  obs::Counter* idle_ns = nullptr;
  obs::Gauge* queue_hwm = nullptr;
  obs::Gauge* queue_depth = nullptr;
};

}  // namespace

/// The whole pipeline; PipelineCore's public members forward to it.
struct PipelineCore::Impl {
  Impl(const PipelineOptions& opt, const MakeState& make, LoadState load)
      : opt_(opt) {
    opt_.validate();
    if (!opt_.checkpoint_dir.empty())
      std::filesystem::create_directories(opt_.checkpoint_dir);
    shards_.reserve(opt_.shards);
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      std::optional<CheckpointData> ck;
      if (opt_.resume)
        ck = read_newest_checkpoint(checkpoint_path(s), opt_.checkpoint_keep);
      auto sh = std::make_unique<Shard>(ck ? load(ck->payload()) : make(s),
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
        if (opt_.wal_observer)
          wopt.observer = [cb = opt_.wal_observer, s](
                              std::uint64_t end_offset, auto header, auto run1,
                              auto run2) {
            cb(s, end_offset, header, run1, run2);
          };
        sh->wal = std::make_unique<ShardWal>(wal_path(s), std::move(wopt),
                                             scan);
        // Seed the generation history conservatively: checkpoint files
        // from before this restart may still be retained with offsets we
        // no longer know, so retirement must not pass the resume base
        // until `checkpoint_keep` fresh generations have rotated them out.
        sh->ckpt_history.assign(opt_.checkpoint_keep, sh->last_checkpoint);
      }
      sh->resume_offset = sh->consumed = sh->consumed_at_publish = pos;
      sh->view = sh->est->clone();
      shards_.push_back(std::move(sh));
    }
    produced_.reserve(opt_.producers);
    for (std::size_t p = 0; p < opt_.producers; ++p)
      produced_.push_back(&registry_.counter(
          "she_pipeline_produced_total", "accepted pushes per producer",
          {{"producer", std::to_string(p)}}));
  }

  [[nodiscard]] std::size_t shard_of(std::uint64_t key) const {
    return static_cast<std::size_t>(hash64(key, kRouteSeed) % opt_.shards);
  }

  void start() {
    if (phase_.load(std::memory_order_relaxed) != Phase::kNew)
      throw std::logic_error("IngestPipeline: already started or closed");
    phase_.store(Phase::kRunning, std::memory_order_release);
    workers_.reserve(opt_.shards);
    for (std::size_t s = 0; s < opt_.shards; ++s)
      workers_.emplace_back([this, s] { worker_entry(s); });
    supervisor_ = std::thread([this] { supervisor_loop(); });
  }

  std::size_t push_bulk(std::size_t producer,
                        std::span<const std::uint64_t> keys,
                        std::uint64_t client_id, std::uint64_t client_seq,
                        std::int64_t deadline_ns) {
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
    if (keys.size() > std::numeric_limits<std::uint32_t>::max())
      throw std::invalid_argument("push_bulk: more than 2^32-1 keys");
    // One lane takes the whole call when there is one shard or one key.
    // Otherwise route once into one shard byte per key (kMaxShards fits a
    // byte).  Each lane then gathers its sub-batch straight from `keys`, in
    // frame order, one 64-key block at a time: a mask of the block's
    // bytes that name its shard, walked bit by bit, so no branch depends
    // on where a single key went.  Stale bytes past the frame fill the
    // last block; a lane stops after its count[s] keys, before any.
    const bool one_lane = opt_.shards == 1 || keys.size() == 1;
    const std::size_t lane = one_lane ? shard_of(keys[0]) : 0;
    thread_local std::vector<std::uint8_t> route;
    std::array<std::uint32_t, PipelineOptions::kMaxShards> count{};
    if (one_lane) {
      count[lane] = static_cast<std::uint32_t>(keys.size());
    } else {
      route.resize((keys.size() + 63) & ~std::size_t{63});
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::size_t s = shard_of(keys[i]);
        route[i] = static_cast<std::uint8_t>(s);
        ++count[s];
      }
    }
    // Each sub-batch is one WAL frame: refuse the whole call before any
    // lane waits or commits when one would exceed the frame bound, so no
    // shard accepts its share of a call another shard's append refuses,
    // and no lane gathers a frame its append would refuse.
    if (opt_.wal_mode != WalMode::kOff && keys.size() > kMaxWalKeys)
      for (std::size_t s = 0; s < opt_.shards; ++s)
        if (count[s] > kMaxWalKeys)
          throw WalError("push_bulk: " + std::to_string(count[s]) +
                         " keys route to shard " + std::to_string(s) +
                         ", above the " + std::to_string(kMaxWalKeys) +
                         "-key bound on one WAL frame");
    std::size_t accepted = 0;
    if (one_lane) {
      std::size_t i = 0;
      accepted = lane_commit(producer, *shards_[lane], keys.size(),
                             [&] { return keys[i++]; }, client_id,
                             client_seq, deadline_ns);
    } else {
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
    const auto room = [&sh, want] {
      return sh.ring.capacity() - sh.ring.size_approx() >= want;
    };
    if (room()) return true;
    const std::int64_t stall_start = now_ns();
    stall_events_->inc();
    const bool woken = sh.bell.wait(
        [&] { return closing() || shard_dead(sh) || room(); }, deadline_ns);
    if (!woken) push_timeouts_->inc();
    stall_ns_->inc(static_cast<std::uint64_t>(now_ns() - stall_start));
    return woken && !closing();
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
      sh.bell.ring();
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
    if (closing()) return 0;
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
        sh.bell.ring();
      }
    }
    if (done > 0) produced_[producer]->inc(done);
    return done;
  }

  void close() {
    const Phase was = phase_.load(std::memory_order_relaxed);
    if (was == Phase::kClosed) return;
    phase_.store(Phase::kClosing, std::memory_order_release);
    for (const auto& sh : shards_) sh->bell.ring();
    tick_.ring();
    if (was == Phase::kNew) {
      for (std::size_t s = 0; s < opt_.shards; ++s) worker_entry(s);
    } else {
      if (supervisor_.joinable()) supervisor_.join();
      for (auto& t : workers_)
        if (t.joinable()) t.join();
      workers_.clear();
    }
    // The supervisor's last tick predates the final drain.
    for (const auto& sh : shards_)
      sh->queue_depth->set(static_cast<std::int64_t>(sh->ring.size_approx()));
    phase_.store(Phase::kClosed, std::memory_order_release);
    for (const auto& sh : shards_) sh->bell.ring();  // sync() returns
  }

  /// close() has begun: pushes are refused and workers exit once drained.
  [[nodiscard]] bool closing() const {
    return phase_.load(std::memory_order_acquire) >= Phase::kClosing;
  }

  bool sync(bool with_checkpoint, std::size_t timeout_ms) {
    // Closed, or no workers yet: the published snapshots are current.
    const auto settled = [this] {
      const Phase p = phase_.load(std::memory_order_acquire);
      return p == Phase::kNew || p == Phase::kClosed;
    };
    if (settled()) return true;
    std::vector<std::uint64_t> want(opt_.shards);
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      Shard& sh = *shards_[s];
      if (with_checkpoint && !opt_.checkpoint_dir.empty())
        sh.sync_ckpt.store(true, std::memory_order_relaxed);
      want[s] = sh.sync_req.fetch_add(1, std::memory_order_acq_rel) + 1;
      sh.bell.ring();
    }
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
    bool ok = true;
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      Shard& sh = *shards_[s];
      const auto acked = [&] {
        return sh.sync_ack.load(std::memory_order_acquire) >= want[s];
      };
      if (!sh.bell.wait([&] { return acked() || settled() || shard_dead(sh); },
                        deadline))
        return false;
      if (settled()) return true;
      ok = ok && acked();  // a dead shard never acks
    }
    return ok;
  }

  std::shared_ptr<const ShardState> published(std::size_t s) const {
    std::lock_guard<std::mutex> lk(shards_[s]->view_mu);
    return shards_[s]->view;
  }

  void bind_metrics(Shard& sh, std::size_t s) {
    static constexpr struct {
      obs::Counter* Shard::*field;
      const char* name;
      const char* help;
    } kCounters[] = {
        {&Shard::inserted, "she_pipeline_inserted_total",
         "items drained into the estimator"},
        {&Shard::dropped, "she_pipeline_dropped_total",
         "keys not enqueued because the shard died (dead-shard abort)"},
        {&Shard::drains, "she_pipeline_drains_total", "non-empty drain sweeps"},
        {&Shard::publishes, "she_pipeline_publishes_total",
         "snapshot publications"},
        {&Shard::restarts, "she_pipeline_worker_restarts_total",
         "faulted workers rolled back and rerun on their own thread"},
        {&Shard::faults, "she_pipeline_worker_faults_total",
         "worker threads died by exception"},
        {&Shard::wedged, "she_pipeline_worker_wedged_total",
         "heartbeat-stale episodes detected by the supervisor"},
        {&Shard::lost, "she_pipeline_items_lost_total",
         "items rolled back to the last published snapshot at a restart"},
        {&Shard::replayed, "she_pipeline_items_replayed_total",
         "ring backlog re-drained by a restarted worker"},
        {&Shard::checkpoints, "she_pipeline_checkpoints_total",
         "durable checkpoint frames written"},
        {&Shard::wal_replayed, "she_pipeline_wal_replayed_total",
         "items re-inserted from the backlog log at resume"},
        {&Shard::wal_dups, "she_pipeline_wal_duplicates_total",
         "keys skipped as already-applied client replays"},
        {&Shard::idle_ns, "she_pipeline_worker_idle_ns_total",
         "time the worker waited for work (spinning, then parked), ns"},
    };
    const obs::Labels shard_label = {{"shard", std::to_string(s)}};
    for (const auto& c : kCounters)
      sh.*c.field = &registry_.counter(c.name, c.help, shard_label);
    sh.queue_hwm = &registry_.gauge("she_pipeline_queue_hwm",
                                    "deepest shard backlog observed",
                                    shard_label);
    sh.queue_depth = &registry_.gauge(
        "she_pipeline_queue_depth",
        "queued items in the shard's ring (supervisor tick)",
        shard_label);
  }

  [[nodiscard]] std::string checkpoint_path(std::size_t s) const {
    return PipelineCore::checkpoint_path(opt_.checkpoint_dir, s);
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
    std::shared_ptr<const ShardState> next = sh.est->clone();
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
    const std::shared_ptr<const ShardState> v = published(sh.index);
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

  /// A shard's one worker, for the pipeline's life (inline in a close()
  /// that found it never started): on a fault it rolls back and reruns.
  void worker_entry(std::size_t si) {
    Shard& sh = *shards_[si];
    for (std::size_t restarts = 0;; ++restarts) {
      sh.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
      sh.state.store(WorkerState::kRunning, std::memory_order_release);
      try {
        worker_loop(si);
        sh.state.store(WorkerState::kIdle, std::memory_order_release);
        return;
      } catch (const std::exception&) {
        // The estimator may be mid-batch; only the published snapshot is
        // trustworthy now.
        sh.faults->inc();
        sh.state.store(WorkerState::kFaulted, std::memory_order_release);
      }
      if (restarts == kMaxRestarts || !roll_back(sh)) {
        sh.state.store(WorkerState::kAbandoned, std::memory_order_release);
        sh.bell.ring();
        return;
      }
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
          sh.est->apply(block.first);  // pipelined hash-ahead + prefetch
          if (!block.second.empty()) sh.est->apply(block.second);
        }
        sh.consumed += n;
        sh.since_publish += n;
        sh.inserted->inc(n);
        sh.ring.release(n);
        got += n;
        if (n < kDrainBatch) break;  // ring (momentarily) empty
      }
      if (got > 0) {
        sh.bell.ring();  // once a sweep, and only a parked producer pays
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
        sh.bell.ring();
      }
      if (closing()) {
        // A lane commit that passed its closing() check before close()
        // began publishes under lane_mu: wait it out before the last look.
        std::lock_guard<std::mutex> lk(sh.lane_mu);
        if (sh.ring.size_approx() == 0) break;
      }
      const std::int64_t idle_start = now_ns();
      sh.bell.wait(
          [&] {
            return sh.ring.size_approx() > 0 || closing() ||
                   sh.sync_req.load(std::memory_order_acquire) !=
                       sh.sync_ack.load(std::memory_order_relaxed);
          },
          idle_start + kParkCapNs);
      sh.idle_ns->inc(static_cast<std::uint64_t>(now_ns() - idle_start));
    }
    publish(sh);  // final state, unconditionally
    if (!opt_.checkpoint_dir.empty() &&
        sh.consumed_at_publish != sh.last_checkpoint)
      write_checkpoint(sh);
  }

  /// Supervisor, an observer only: count the wedged, and refresh the
  /// queue-depth gauges and the windowed rate, so scrapes see backlog even
  /// while a worker is stuck inside a long sweep.  Exits when close()
  /// begins; the workers heal themselves without it.
  void supervisor_loop() {
    // The last stale heartbeat counted per shard: one wedge per episode.
    std::vector<std::int64_t> flagged(opt_.shards, 0);
    constexpr std::int64_t kHeartbeatTimeoutNs =
        static_cast<std::int64_t>(kHeartbeatTimeoutMs) * 1'000'000;
    constexpr std::int64_t kRateSampleIntervalNs =
        static_cast<std::int64_t>(kRateSampleIntervalMs) * 1'000'000;
    RateWindow rate_window(kRateWindowS);
    std::int64_t last_rate_sample = 0;
    while (!closing()) {
      std::uint64_t inserted_total = 0;
      for (std::size_t s = 0; s < opt_.shards; ++s) {
        Shard& sh = *shards_[s];
        const auto depth = static_cast<std::int64_t>(sh.ring.size_approx());
        sh.queue_depth->set(depth);
        sh.queue_hwm->max_of(depth);
        inserted_total += sh.inserted->value();
        if (sh.state.load(std::memory_order_acquire) != WorkerState::kRunning)
          continue;
        // Wedged: a sweep (a long checkpoint, a stall) outlived the timeout.
        // Only counted — the worker is still the shard's one live consumer,
        // and a thread cannot be killed anyway.
        const std::int64_t hb = sh.heartbeat_ns.load(std::memory_order_relaxed);
        if (hb != 0 && hb != flagged[s] && now_ns() - hb > kHeartbeatTimeoutNs) {
          sh.wedged->inc();
          flagged[s] = hb;
        }
      }
      if (const std::int64_t now = now_ns();
          now - last_rate_sample >= kRateSampleIntervalNs) {
        rate_window.sample(now, inserted_total);
        rate_gauge_->set(static_cast<std::int64_t>(rate_window.rate()));
        last_rate_sample = now;
      }
      tick_.wait([this] { return closing(); },
                 now_ns() + static_cast<std::int64_t>(kSupervisorIntervalMs) *
                                1'000'000);
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
    sh.est->apply(part);
    sh.wal_replayed->inc(part.size());
    pos += part.size();
    return pos < end;
  }

  /// Heal the rollback gap [consumed_at_publish, consumed) of a freshly
  /// rolled-back estimator from the log; returns the offset healed up to.
  /// Runs on the shard's worker thread.  A concurrent producer may be
  /// appending past `consumed`, but the range we read is already flushed
  /// to the file (it was applied, so its append long since returned).
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

  /// On the faulted worker's thread: roll the shard back to its last
  /// published snapshot (the live estimator may be mid-batch garbage) and
  /// account lost/replayed items.  With the WAL on, the rollback gap
  /// [consumed_at_publish, consumed) is healed back from the log (every
  /// applied item was logged first) and published by the next idle sweep,
  /// and the checkpoint offset keeps identifying a log prefix.  Without it
  /// the gap is lost, and the shard stops checkpointing (`ckpt_frozen`).
  /// False when the copy fails (out of memory): the shard is abandoned.
  bool roll_back(Shard& sh) {
    const std::uint64_t backlog = sh.ring.size_approx();
    try {
      sh.est = published(sh.index)->clone();
    } catch (const std::exception&) {
      return false;
    }
    const std::uint64_t healed =
        sh.wal != nullptr ? wal_heal(sh) : sh.consumed_at_publish;
    if (healed < sh.consumed) {
      // Applied, released, and not in the log (without the WAL, or at a
      // hole in it, which should be impossible: items are logged before
      // they are applied): these items are gone.  Later frames would name
      // an offset that skips the wrong keys on resume, so the shard's
      // checkpoints stop here.
      sh.lost->inc(sh.consumed - healed);
      sh.ckpt_frozen = true;
      // With the WAL on, `consumed` stays the shard's log offset.
      if (sh.wal == nullptr) sh.consumed = healed;
    }
    sh.since_publish = sh.consumed - sh.consumed_at_publish;
    sh.replayed->inc(backlog);
    sh.restarts->inc();
    return true;
  }

  PipelineOptions opt_;
  obs::Registry registry_;  ///< declared before anything holding handles
  obs::Histogram* const drain_hist_ = &registry_.histogram(
      "she_pipeline_drain_latency_ns",
      "wall time of one non-empty ring drain sweep, ns");
  obs::Histogram* const publish_hist_ = &registry_.histogram(
      "she_pipeline_publish_latency_ns",
      "copy + pointer swap publishing one shard snapshot, ns");
  obs::Histogram* const push_hist_ = &registry_.histogram(
      "she_pipeline_push_latency_ns",
      "producer push()/push_bulk() call wall time, 1-in-64 sampled while "
      "telemetry is enabled, ns");
  obs::Histogram* const checkpoint_hist_ = &registry_.histogram(
      "she_pipeline_checkpoint_latency_ns",
      "frame + atomic-replace of one durable checkpoint, ns");
  obs::Counter* const stall_ns_ = &registry_.counter(
      "she_pipeline_stall_ns_total",
      "producer time spent waiting for ring space in a commit lane, ns");
  obs::Counter* const stall_events_ = &registry_.counter(
      "she_pipeline_stall_events_total",
      "full-ring waits entered by producers in a commit lane");
  obs::Counter* const push_timeouts_ = &registry_.counter(
      "she_pipeline_push_timeouts_total",
      "sub-batches shed at admission by a request deadline");
  obs::Gauge* const rate_gauge_ = &registry_.gauge(
      "she_pipeline_rate_items_per_sec",
      "drained items/s over the last rate_window_s seconds");
  obs::Gauge* const degraded_gauge_ = &registry_.gauge(
      "she_degraded", "1 while the pipeline is read-only after a disk fault");
  obs::Counter* const disk_faults_ = &registry_.counter(
      "she_pipeline_disk_faults_total",
      "WAL/checkpoint writes that failed with a disk-unhealthy errno");
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<obs::Counter*> produced_;  ///< one per producer
  std::vector<std::thread> workers_;     ///< indexed by shard
  Doorbell tick_;  ///< the supervisor's, rung by close()
  std::thread supervisor_;
  std::atomic<Phase> phase_{Phase::kNew};
  std::atomic<bool> degraded_{false};
  std::atomic<std::int64_t> last_probe_ns_{0};
  std::mutex degraded_mu_;
  std::string degraded_msg_;  ///< guarded by degraded_mu_
};

PipelineCore::PipelineCore(const PipelineOptions& opt, const MakeState& make,
                           LoadState load)
    : impl_(std::make_unique<Impl>(opt, make, load)) {}
PipelineCore::~PipelineCore() { impl_->close(); }

const PipelineOptions& PipelineCore::options() const { return impl_->opt_; }
std::size_t PipelineCore::shard_count() const { return impl_->opt_.shards; }
std::size_t PipelineCore::shard_of(std::uint64_t key) const {
  return impl_->shard_of(key);
}
std::string PipelineCore::checkpoint_path(const std::string& dir,
                                          std::size_t s) {
  return dir + "/shard-" + std::to_string(s) + ".ckpt";
}
std::uint64_t PipelineCore::resume_offset(std::size_t s) const {
  return impl_->shards_[s]->resume_offset;
}
bool PipelineCore::faulted() const {
  const auto& shards = impl_->shards_;
  return std::any_of(shards.begin(), shards.end(), [](const auto& sh) {
    const WorkerState st = sh->state.load(std::memory_order_acquire);
    return st == WorkerState::kFaulted || st == WorkerState::kAbandoned;
  });
}
bool PipelineCore::degraded() const {
  return impl_->degraded_.load(std::memory_order_acquire);
}
void PipelineCore::start() { impl_->start(); }
bool PipelineCore::push(std::size_t producer, std::uint64_t key) {
  return push_bulk(producer, std::span<const std::uint64_t>(&key, 1)) == 1;
}
std::size_t PipelineCore::push_bulk(std::size_t producer,
                                     std::span<const std::uint64_t> keys,
                                     std::uint64_t client_id,
                                     std::uint64_t client_seq,
                                     std::int64_t deadline_ns) {
  return impl_->push_bulk(producer, keys, client_id, client_seq, deadline_ns);
}
void PipelineCore::close() { impl_->close(); }
bool PipelineCore::sync(bool with_checkpoint, std::size_t timeout_ms) {
  return impl_->sync(with_checkpoint, timeout_ms);
}
const obs::Registry& PipelineCore::metrics_registry() const {
  return impl_->registry_;
}
std::shared_ptr<const ShardState> PipelineCore::published(
    std::size_t s) const {
  return impl_->published(s);
}

}  // namespace she::runtime
