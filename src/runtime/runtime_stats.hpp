// RuntimeStats — observability report for the ingest pipeline.
//
// A plain-struct *view* over the pipeline's metric registry: counters live
// in obs::Counter/Gauge objects updated on the hot paths, and
// IngestPipeline::stats() reads them into this snapshot.  The JSON form is
// what `she_tool pipeline --json` and bench/pipeline_throughput emit so
// runs are machine-comparable; `schema_version` lets downstream
// comparisons evolve with the field set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace she::runtime {

struct ShardStats {
  std::uint64_t inserted = 0;   ///< items drained into the estimator
  std::uint64_t dropped = 0;    ///< pushes rejected by a dead shard
  std::uint64_t drains = 0;     ///< non-empty drain sweeps
  std::uint64_t publishes = 0;  ///< snapshot publications
  std::uint64_t queue_hwm = 0;  ///< deepest single ring observed
  std::uint64_t restarts = 0;   ///< supervised worker restarts
  std::uint64_t faults = 0;     ///< worker exceptions caught
  std::uint64_t lost = 0;       ///< items rolled back to the last snapshot
  std::uint64_t replayed = 0;   ///< ring backlog re-drained after a restart
  std::uint64_t checkpoints = 0;  ///< durable checkpoint frames written
};

struct RuntimeStats {
  /// Bumped whenever the JSON field set changes: 1 = seed layout,
  /// 2 = adds schema_version itself and the registry-backed counters,
  /// 3 = adds producer backpressure stalls (stall_ns, stall_events),
  /// 4 = adds fault tolerance (worker_restarts/faults/wedged, items_lost,
  ///     items_replayed, checkpoints, push_timeouts) and the windowed rate
  ///     view (recent_items_per_sec, rate_window_s).
  static constexpr int kSchemaVersion = 4;

  std::size_t shards = 0;
  std::size_t producers = 0;
  std::uint64_t produced = 0;   ///< accepted pushes across producers
  std::uint64_t inserted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t drains = 0;
  std::uint64_t publishes = 0;
  std::uint64_t queue_hwm = 0;  ///< max over shards
  std::uint64_t stall_ns = 0;   ///< producer wait time on full rings
  std::uint64_t stall_events = 0;  ///< full-ring stall episodes
  std::uint64_t push_timeouts = 0;  ///< sub-batches shed by a request deadline
  std::uint64_t worker_restarts = 0;  ///< supervised restarts across shards
  std::uint64_t worker_faults = 0;    ///< worker exceptions across shards
  std::uint64_t worker_wedged = 0;    ///< heartbeat-stale episodes detected
  std::uint64_t items_lost = 0;       ///< rolled back at faulted restarts
  std::uint64_t items_replayed = 0;   ///< ring backlog re-drained at restarts
  std::uint64_t checkpoints = 0;      ///< durable checkpoint frames written
  double elapsed_seconds = 0;   ///< start() until close() (or stats() call)
  double items_per_sec = 0;     ///< inserted / elapsed (whole-run average)
  double recent_items_per_sec = 0;  ///< windowed rate (last rate_window_s s)
  std::uint64_t rate_window_s = 0;  ///< width of the windowed-rate view
  std::vector<ShardStats> per_shard;

  /// Record the elapsed time and derive items_per_sec from `inserted`,
  /// guarding against zero/near-zero (or negative, from clock skew)
  /// elapsed values: rates are reported as 0 rather than inf/NaN.
  void set_rate(double elapsed);

  /// One-line-per-field human summary plus a per-shard table.
  void print(std::ostream& os) const;

  /// Compact single-object JSON (per-shard stats inlined as an array).
  [[nodiscard]] std::string to_json() const;
};

/// Sliding-window rate estimator behind RuntimeStats::recent_items_per_sec:
/// feed (timestamp, monotone total) samples, read the rate over the
/// retained window.  A restart-induced throughput dip is visible here long
/// after the whole-run average has smoothed it away.  Not thread-safe —
/// the pipeline serializes access externally.
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

}  // namespace she::runtime
