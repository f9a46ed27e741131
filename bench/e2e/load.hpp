// The four traffic mixes and the load generator that drives them.
//
// Every workload runs against one pipeline named kPipeline with the spec
// from pipeline_spec().  A measured phase runs up to three load threads
// (one SheClient connection each) plus the calling thread, which issues
// ack-to-visible probes on its own connection: at most four threads and
// four protocol connections in all.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "samples.hpp"
#include "server/client.hpp"

namespace she::bench::e2e {

using Clock = std::chrono::steady_clock;

enum class Kind { kBulkIngest, kMixedReadWrite, kPointOps, kDurableIngest };

struct Workload {
  const char* name;
  Kind kind;
  bool wal;         ///< WAL fsync + periodic checkpoints (durable_ingest)
  const char* why;  ///< one line: what the workload is for
};

inline constexpr Workload kWorkloads[] = {
    {"bulk_ingest", Kind::kBulkIngest, false,
     "3 closed-loop INSERT_BULK streams, WAL off, no readers: write-path "
     "capacity (decode, ring push, drain, insert_batch, publish)"},
    {"mixed_read_write", Kind::kMixedReadWrite, false,
     "open-loop 500K items/s ingest under 2 closed-loop query connections: "
     "every publish invalidates the readers' cached snapshots"},
    {"point_ops", Kind::kPointOps, false,
     "2 closed-loop connections alternating single-key INSERT and QUERY: "
     "per-request framing, dispatch and publish-per-drain cost"},
    {"durable_ingest", Kind::kDurableIngest, true,
     "bulk_ingest with wal=fsync and 4M-item checkpoints, then kill -9 and "
     "--resume: WAL commit lane, group fsync, checkpoints and replay"},
};

[[nodiscard]] const Workload* find_workload(std::string_view name);

/// bulk_ingest and durable_ingest: nothing reads during their window.
[[nodiscard]] inline bool no_readers(const Workload& w) {
  return w.kind == Kind::kBulkIngest || w.kind == Kind::kDurableIngest;
}

/// Name of the pipeline every workload loads.
inline constexpr const char* kPipeline = "load";

/// Keys per INSERT_BULK frame of the closed-loop writers.
inline constexpr std::size_t kFrameKeys = 8192;

/// The workload's CREATE spec with `producers` producer slots.  WAL-off
/// workloads still run under a checkpoint root (for the recovery step),
/// with a checkpoint interval no run reaches, so only SAVE writes frames.
[[nodiscard]] std::string pipeline_spec(const Workload& w, std::size_t producers);

/// What the requests of one phase measured, merged across its threads.
/// Samples only cover requests started inside the phase's measured
/// window; attempted/failed cover every request sent.
struct OpStats {
  Samples insert_bulk_us;    ///< INSERT_BULK (open loop: from the due time)
  Samples insert_us;         ///< single-key INSERT sent by the load
  Samples probe_insert_us;   ///< single-key INSERT sent by the probe
  Samples query_point_us;    ///< membership + frequency queries
  Samples query_agg_us;      ///< cardinality + top-10 queries
  Samples probe_query_us;    ///< membership queries sent by the probe
  Samples gen_late_us;       ///< scheduled sends: start minus due time
  Samples visibility_ms;     ///< probe INSERT ack → membership reads true (seen probes)
  std::uint64_t items = 0;   ///< keys acknowledged to the load's inserts
  std::uint64_t queries = 0; ///< load queries answered
  std::uint64_t probes_skipped = 0;  ///< fresh probe keys that already read true
  std::uint64_t probes_unseen = 0;   ///< probe keys no snapshot ever showed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void merge(const OpStats& o);
};

struct PhasePlan {
  const Workload* workload = nullptr;
  std::span<const std::uint64_t> pool;  ///< keys the load cycles through
  std::uint64_t seed = 0;
  double warmup_s = 0;
  double measure_s = 0;
};

/// Callbacks run on the probe thread: once when the measured window opens,
/// and after every probe (used for the traced pass's periodic pulls).
struct PhaseHooks {
  std::function<void()> at_measure_start;
  std::function<void()> between_probes;
};

/// Warm-up then measured window of the workload's load.  The calling
/// thread issues 20 ack-to-visible probes/s on `probe` during the measured
/// window, except on the bulk workloads, which have no readers.
[[nodiscard]] OpStats run_measured_phase(std::uint16_t port,
                                         server::SheClient& probe,
                                         const PhasePlan& plan,
                                         const PhaseHooks& hooks);

/// The read-back tail after the measured phase of a workload without
/// readers, on the now idle pipeline: 2 closed-loop connections send the
/// mixed query mix for `query_s`, then `probe` alone issues 100 probes/s
/// for `probe_s`.  `tick` runs on the calling thread every 50 ms of the
/// query part and after every probe.
[[nodiscard]] OpStats run_tail(std::uint16_t port, server::SheClient& probe,
                               const PhasePlan& plan, double query_s,
                               double probe_s, const std::function<void()>& tick);

/// INSERT_BULK `keys` into `pipeline` in kFrameKeys frames; false if any
/// frame failed or was not fully accepted.  Counts into `stats`.
bool insert_frames(server::SheClient& client, const std::string& pipeline,
                   std::span<const std::uint64_t> keys, OpStats& stats);

}  // namespace she::bench::e2e
