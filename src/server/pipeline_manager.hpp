// PipelineManager — named, resident ConcurrentMonitor instances.
//
// The server keeps one ConcurrentMonitor per client-chosen name.  The
// manager owns the name table, the textual sketch-spec language clients
// use in CREATE, per-pipeline checkpoint directories under one root
// (`<root>/<name>/spec` + the pipeline's CRC-framed shard frames), and
// restart recovery: resume_all() re-creates every pipeline whose spec
// survived, resuming each from its newest valid checkpoint generation.
//
// Concurrency: lookups take a shared lock and hand out shared_ptr<Entry>,
// so a DROP racing an in-flight INSERT/QUERY never frees memory under the
// handler — the handler's shared_ptr keeps the entry alive; its pushes are
// rejected (return 0 accepted) once the drop has closed the pipeline.
// CREATE/DROP serialize on the exclusive lock, making them linearizable
// against each other.  Handler threads push straight into the pipeline:
// its per-shard commit lanes serialize concurrent sub-batches.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "she/monitor.hpp"

namespace she::server {

class ReplicationHub;

/// CREATE of a name that is already resident.
class AlreadyExists : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed sketch spec: what to estimate + how to run it.  The WAL
/// fields stay separate from the pipeline options because they only apply
/// once the manager has assigned a checkpoint directory: unset means
/// "server default".
struct PipelineSpec {
  MonitorConfig monitor;
  runtime::PipelineOptions pipeline;
  std::optional<WalMode> wal;                  ///< spec `wal=off|async|fsync`
  std::optional<std::size_t> wal_fsync_bytes;  ///< spec `wal-fsync-bytes=N`
};

/// Parse the CREATE spec language: whitespace-separated `key=value` pairs
/// and bare flags.  Keys: window, memory (both take K/M/G suffixes),
/// shards (1..256), queue (at most 2^26), publish, policy (block only:
/// accepted so persisted specs keep resuming; drop, block-timeout and
/// push-timeout-ms were removed), hll, similarity, similarity-slots, hh-slots,
/// expected-cardinality, checkpoint-every, seed (producers, batch and
/// degraded-probe-ms are accepted with any value and ignored, for the
/// same reason); flags:
/// no-membership, no-cardinality, no-frequency.  Unknown tokens, malformed
/// numbers, and invalid combinations (similarity with shards > 1 — SHE-MH
/// jaccard needs lock-step per-shard streams, which hash routing breaks)
/// throw std::invalid_argument.
[[nodiscard]] PipelineSpec parse_sketch_spec(const std::string& text);

/// Names are path components and label values: [A-Za-z0-9_-], 1..64 chars.
[[nodiscard]] bool valid_pipeline_name(const std::string& name);

class PipelineManager {
 public:
  struct Options {
    std::string checkpoint_root;     ///< empty = nothing durable
    std::size_t checkpoint_keep = 1; ///< frame generations per shard
    bool resume = false;             ///< resume_all() on construction
    /// Backlog-log default for pipelines whose spec says nothing about
    /// `wal=`; requires a checkpoint_root to take effect.
    WalMode default_wal_mode = WalMode::kOff;
    std::size_t wal_fsync_bytes = 0;  ///< default kFsync group-commit bound
    /// When set, every durable pipeline's WAL appends are fanned out to
    /// the hub (REPLICATE subscribers), and CREATE/DROP are announced.
    ReplicationHub* hub = nullptr;
  };

  /// One resident pipeline.  Inserts and queries go straight to the
  /// monitor from any handler thread (commit lanes in, shared published
  /// views out).
  class Entry {
   public:
    Entry(std::string name, std::string spec_text, const PipelineSpec& spec);

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] const std::string& spec_text() const { return spec_text_; }
    [[nodiscard]] ConcurrentMonitor& monitor() { return monitor_; }
    [[nodiscard]] const ConcurrentMonitor& monitor() const { return monitor_; }

    /// Push keys into the pipeline; returns accepted count (0 once the
    /// entry is closed).
    std::size_t insert_bulk(std::span<const std::uint64_t> keys) {
      return insert_bulk(keys, 0, 0, 0);
    }

    /// insert_bulk carrying the client's idempotence identity (replays
    /// dedupe per shard) and an absolute steady-clock deadline (0 = none)
    /// bounding backpressure blocking.
    std::size_t insert_bulk(std::span<const std::uint64_t> keys,
                            std::uint64_t client_id, std::uint64_t client_seq,
                            std::int64_t deadline_ns) {
      return monitor_.push_bulk(0, keys, client_id, client_seq, deadline_ns);
    }

    /// Drain + final checkpoint + join workers; idempotent and safe to
    /// race with insert_bulk (late pushes are rejected, not lost memory).
    void close_once();

   private:
    std::string name_;
    std::string spec_text_;
    ConcurrentMonitor monitor_;
    std::once_flag close_flag_;
  };

  /// Per-pipeline registries plus the shared_ptrs keeping them alive for
  /// the duration of an export.
  struct ExportSet {
    std::vector<std::shared_ptr<Entry>> keepalive;
    std::vector<obs::LabeledRegistry> registries;  ///< pipeline="<name>"
  };

  explicit PipelineManager(Options opt);
  ~PipelineManager();  ///< close_all()

  PipelineManager(const PipelineManager&) = delete;
  PipelineManager& operator=(const PipelineManager&) = delete;

  /// Parse `spec_text`, persist it under the checkpoint root (when
  /// configured), construct and start the pipeline.  Throws
  /// std::invalid_argument on a bad name/spec, AlreadyExists on a taken
  /// name.
  std::shared_ptr<Entry> create(const std::string& name,
                                const std::string& spec_text);

  /// nullptr when no pipeline holds `name`.
  [[nodiscard]] std::shared_ptr<Entry> find(const std::string& name) const;

  /// Close the pipeline and delete its checkpoint directory.  False when
  /// the name is not resident.
  bool drop(const std::string& name);

  /// Replication bootstrap: close and forget any resident pipeline under
  /// `name` *without* deleting its checkpoint directory, then re-create it
  /// from `spec_text` resuming from the files currently in that directory
  /// (which the replica client just received from the primary).
  std::shared_ptr<Entry> adopt(const std::string& name,
                               const std::string& spec_text);

  /// Pipelines parked read-only after a disk fault (for /healthz).
  [[nodiscard]] std::size_t degraded_count() const;

  /// One resident pipeline as the REPLICATE handler ships it: name, spec,
  /// and the on-disk directory whose files are sent verbatim.
  struct BootstrapItem {
    std::string name;
    std::string spec_text;
    std::string dir;  ///< empty when the manager is not durable
  };
  [[nodiscard]] std::vector<BootstrapItem> bootstrap_snapshot() const;

  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const;

  /// Re-create every pipeline whose `<root>/<name>/spec` survived a
  /// restart, resuming from the newest valid checkpoint generation.
  /// Unreadable specs and corrupt-beyond-recovery checkpoints are warned
  /// to stderr and skipped — one damaged pipeline must not take down the
  /// rest.  Returns how many were resumed.
  std::size_t resume_all();

  /// Close every pipeline (drain + final checkpoint frames).  Entries stay
  /// resident for queries; used on server shutdown.
  void close_all();

  /// Snapshot of per-pipeline metric registries for /metrics.
  [[nodiscard]] ExportSet export_registries() const;

  [[nodiscard]] const Options& options() const { return opt_; }

 private:
  [[nodiscard]] std::string dir_for(const std::string& name) const;

  std::shared_ptr<Entry> create_internal(const std::string& name,
                                         const std::string& spec_text,
                                         bool resume);

  Options opt_;
  mutable std::shared_mutex mu_;
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> entries_;
};

}  // namespace she::server
