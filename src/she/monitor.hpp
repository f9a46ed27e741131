// StreamMonitor — one-stop sliding-window telemetry.
//
// Applications usually want several window statistics at once (the QoS
// example hand-rolls exactly this).  StreamMonitor bundles SHE-BF
// membership, SHE-BM or SHE-HLL cardinality, and SHE-CM frequency + heavy
// hitters behind a single insert(), with one memory budget split across
// the sketches, a consolidated report, and whole-monitor
// checkpoint/restore.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/io.hpp"
#include "runtime/ingest_pipeline.hpp"
#include "she/heavy_hitters.hpp"
#include "she/she_bloom.hpp"
#include "she/she_bitmap.hpp"
#include "she/she_hll.hpp"
#include "she/she_minhash.hpp"
#include "she/tuning.hpp"

namespace she {

/// Monitor configuration: one window, one budget, task toggles.
struct MonitorConfig {
  std::uint64_t window = 1u << 16;      ///< sliding window, in items
  std::size_t memory_bytes = 1u << 20;  ///< total budget across sketches
  bool track_membership = true;
  bool track_cardinality = true;
  bool track_frequency = true;
  bool track_similarity = false;  ///< keep a SHE-MH signature for jaccard()
  bool use_hll = false;        ///< cardinality via HLL instead of Bitmap
  double expected_cardinality = 0;  ///< 0 = assume window/4 (for Eq. 2)
  std::size_t heavy_hitter_slots = 64;  ///< at most memory_bytes
  std::size_t similarity_slots = 0;  ///< SHE-MH signature slots; 0 = auto
  std::uint32_t seed = 0;

  void validate() const;
};

/// A consolidated snapshot of the window.
struct MonitorReport {
  std::uint64_t items = 0;                  ///< stream position
  std::optional<double> cardinality;        ///< distinct keys in window
  std::vector<HeavyHitters::Entry> top;     ///< heaviest keys, descending

  /// Merge per-shard reports into one window view: items and cardinality
  /// sum (shards partition the key space), top lists concatenate, re-sort
  /// and truncate to `top_k`.  This is the merge ConcurrentMonitor::report
  /// performs — exposed so callers holding their own per-shard states can
  /// combine their reports the same way.
  [[nodiscard]] static MonitorReport combine(
      std::span<const MonitorReport> parts, std::size_t top_k);
};

class StreamMonitor {
 public:
  explicit StreamMonitor(const MonitorConfig& cfg);

  /// Feed one stream item to every enabled sketch.
  void insert(std::uint64_t key);

  /// Feed a batch (equivalent to insert() per key, in order): each enabled
  /// sketch, heavy hitters included, takes the whole batch through its
  /// pipelined insert_batch.  This is the path the ingest runtime's drain
  /// loop takes.
  void insert_batch(std::span<const std::uint64_t> keys);

  /// Was `key` seen in the window?  (Requires track_membership; one-sided.)
  [[nodiscard]] bool seen(std::uint64_t key) const;

  /// Window frequency of `key` (requires track_frequency).
  [[nodiscard]] std::uint64_t frequency(std::uint64_t key) const;

  /// Consolidated snapshot (top-k limited to `top_k`).
  [[nodiscard]] MonitorReport report(std::size_t top_k = 10) const;

  /// Estimated Jaccard similarity of two monitors' windows (requires
  /// track_similarity on both).  Both must share the similarity
  /// configuration (slots, window, seed) and be at the same stream time —
  /// SHE-MH signatures compare slot-by-slot over lock-step streams; throws
  /// std::invalid_argument otherwise.
  [[nodiscard]] static double jaccard(const StreamMonitor& a,
                                      const StreamMonitor& b);

  void clear();

  [[nodiscard]] std::uint64_t time() const { return time_; }
  [[nodiscard]] const MonitorConfig& config() const { return cfg_; }

  /// The frequency task's sketch and candidate table, in the geometry
  /// this monitor derived from its budget (nullptr without
  /// track_frequency).
  [[nodiscard]] const HeavyHitters* heavy_hitters() const {
    return freq_ ? &*freq_ : nullptr;
  }

  /// Actual bytes across enabled sketches (close to, and never wildly
  /// above, cfg.memory_bytes).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Checkpoint / restore the whole monitor.  load() throws
  /// SerializeError for a malformed stream, and for a header whose config
  /// fails MonitorConfig::validate().
  void save(BinaryWriter& out) const;
  static StreamMonitor load(BinaryReader& in);

 private:
  StreamMonitor() = default;  ///< no sketches; load() fills them in

  MonitorConfig cfg_;
  std::uint64_t time_ = 0;
  std::optional<SheBloomFilter> membership_;
  std::optional<SheBitmap> card_bm_;
  std::optional<SheHyperLogLog> card_hll_;
  std::optional<HeavyHitters> freq_;
  std::optional<SheMinHash> sim_;
};

/// ConcurrentMonitor — StreamMonitor behind the ingest runtime.
///
/// Shards one logical monitor across `pipeline.shards` StreamMonitors
/// (window and budget split evenly, same key routing as Sharded<T>), feeds
/// them through one commit lane per shard (a mutex plus one ring), and
/// answers queries *while the stream is being ingested* from the shards'
/// published views (one immutable StreamMonitor per shard, shared by every
/// reader): membership and frequency go to the owning shard, cardinality
/// sums across shards, top-k merges (shard key spaces are disjoint).
/// It *is* an IngestPipeline<StreamMonitor>: push, start, close, view and
/// the rest are the pipeline's own, under its threading contract.  Queries
/// are safe from any thread at any time.
class ConcurrentMonitor : public runtime::IngestPipeline<StreamMonitor> {
 public:
  ConcurrentMonitor(const MonitorConfig& monitor,
                    const runtime::PipelineOptions& pipeline);

  /// Drain-then-publish barrier (IngestPipeline::sync): after this
  /// returns true, snapshot queries see every previously accepted push.
  bool flush(std::size_t timeout_ms = 5000) {
    return sync(/*with_checkpoint=*/false, timeout_ms);
  }

  /// flush() plus a durable checkpoint frame per shard (no-op frames when
  /// the pipeline has no checkpoint_dir).
  bool save_now(std::size_t timeout_ms = 5000) {
    return sync(/*with_checkpoint=*/true, timeout_ms);
  }

  /// Snapshot queries (see class comment for semantics).
  [[nodiscard]] bool seen(std::uint64_t key) const;
  [[nodiscard]] std::uint64_t frequency(std::uint64_t key) const;
  [[nodiscard]] MonitorReport report(std::size_t top_k = 10) const;

  /// Estimated Jaccard similarity between two concurrent monitors with
  /// identical configurations (same shard count, window, budget, seed and
  /// track_similarity on both): shard s of `a` and shard s of `b` cover
  /// the same key partition, so their SHE-MH signatures are compared
  /// pairwise and averaged.  Requires lock-step per-shard stream times
  /// (e.g. both monitors fed the same item count through the same
  /// routing); throws std::invalid_argument otherwise.
  [[nodiscard]] static double jaccard(const ConcurrentMonitor& a,
                                      const ConcurrentMonitor& b);

  /// A private, mutable copy of view(s).
  [[nodiscard]] StreamMonitor shard_snapshot(std::size_t s) const {
    return snapshot(s);
  }
};

}  // namespace she
