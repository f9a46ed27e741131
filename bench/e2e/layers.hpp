// Per-layer view of a traced run, built only from public interfaces:
// before/after scrapes of GET /metrics, GET /trace pulls, the load
// generator's own request timings, and single-thread probes that call each
// layer's functions on the workload's keys.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "load.hpp"
#include "samples.hpp"

namespace she::bench::e2e {

/// One reported number.  `samples` is the sample count behind a
/// percentile or mean (0 for counters and single measurements).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

/// A Prometheus text exposition, as series ("name{labels}") → value.
class PromScrape {
 public:
  PromScrape() = default;
  explicit PromScrape(const std::string& text);

  /// Sum over the series of metric `name` whose label text contains
  /// `label` (e.g. pipeline="load"); 0 when there are none.
  [[nodiscard]] double sum(std::string_view name, std::string_view label = {}) const;
  /// Largest such series value; 0 when there are none.
  [[nodiscard]] double max(std::string_view name, std::string_view label = {}) const;

 private:
  std::vector<std::pair<std::string, double>> series_;
};

/// Accumulates span durations from repeated GET /trace?ms=1000 pulls.
/// Each export restarts its timestamps at its earliest span, so a pull is
/// aligned onto the previous one through the spans both contain (same
/// thread, name and nanosecond duration), then spans already counted are
/// dropped by (thread, start).
class TraceCollector {
 public:
  explicit TraceCollector(std::uint16_t http_port) : port_(http_port) {}

  /// Pull now.  A baseline pull (`count` false) only remembers its spans,
  /// so the next pull counts what started after it.
  void pull(bool count = true);
  /// Pull if the last one is at least 500 ms old.
  void maybe_pull();

  /// Durations (µs) of every counted span called `name`.
  [[nodiscard]] const Samples& durations_us(const std::string& name) const;

 private:
  struct Seen {
    std::uint32_t tid;
    const std::string* name;  ///< key in by_name_ (stable node address)
    std::uint64_t dur_ns;
    std::int64_t start_ns;    ///< aligned start
  };

  std::uint16_t port_;
  std::int64_t last_pull_ns_ = 0;
  std::map<std::string, Samples> by_name_;
  std::vector<Seen> prev_;
};

/// Single-thread cost of one shard's StreamMonitor (the unit a drain
/// inserts into, a publish serializes and a reader deserializes).
struct EstimatorProbe {
  double insert_batch_ns_per_item = 0;
  double insert_one_ns = 0;
  double save_us = 0;
  double load_us = 0;
  double snapshot_bytes = 0;
  double frequency_ns = 0;
  double seen_ns = 0;
  double report_us = 0;
};
[[nodiscard]] EstimatorProbe probe_estimator(const std::string& spec,
                                             std::span<const std::uint64_t> keys);

/// Single-thread cost of one WAL append (async) and of the fdatasync an
/// fsync-mode append adds on top; files live under `dir`.
struct WalProbe {
  double append_us_per_frame = 0;
  double fsync_us = 0;
};
[[nodiscard]] WalProbe probe_wal(const std::filesystem::path& dir,
                                 std::span<const std::uint64_t> keys);

/// Everything the per-layer table is computed from.
struct LayerInputs {
  const OpStats* client = nullptr;  ///< measured window (+ tail), traced server
  PromScrape before;                ///< /metrics as the measured window opens
  PromScrape after;                 ///< /metrics once the load has stopped
  double window_s = 0;              ///< seconds between the two scrapes
  const TraceCollector* trace = nullptr;
  std::size_t shards = 0;
  EstimatorProbe estimator;
  WalProbe wal;
  double wal_replayed_items = 0;    ///< replayed by the first --resume
  double recovery_s = 0;            ///< that resume's spawn-to-answer time
  double wal_bytes_on_disk = 0;     ///< *.wal bytes just before kill -9
  double trace_overhead = 0;        ///< traced / untraced headline metric
};

/// The per-layer metrics, in BENCHMARK.json order.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const LayerInputs& in);

}  // namespace she::bench::e2e
