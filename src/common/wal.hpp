// Per-shard write-ahead backlog log.
//
// The durable checkpoint (common/checkpoint.hpp) captures estimator state
// at the drain offset it had reached; everything *accepted but not yet
// drained* — items sitting in the SPSC rings — used to vanish at a crash.
// The WAL closes that gap: `IngestPipeline::push_bulk` appends each
// accepted per-shard sub-batch here *before* ring enqueue, so resume can
// replay the suffix of accepted items past the newest checkpoint's offset
// and reconstruct the estimator byte-identically.
//
// Frame layout ("SHWL", little-endian, 48-byte header):
//
//   [ 0, 4)  magic "SHWL"
//   [ 4, 6)  u16 version (1)
//   [ 6, 8)  u16 kind: 0 = data, 1 = seq-table
//   [ 8,16)  u64 seq — per-log frame number, strictly increasing from 1
//   [16,24)  u64 start_offset — shard items accepted before this frame
//            (data); the segment's base offset (seq-table)
//   [24,32)  u64 client_id (0 = no client identity, never deduplicated)
//   [32,40)  u64 client_seq — the client's idempotence sequence number
//   [40,44)  u32 payload_len
//   [44,48)  u32 CRC-32 over header [0,44) chained into the payload
//
// Data payloads are the accepted keys as u64 LE; seq-table payloads are
// repeated (u64 client_id, u64 high_seq) pairs.  A payload is at most
// kMaxWalPayload bytes: appends refuse a larger frame before writing it.
//
// One copy per durable byte: `ShardWal::append` encodes the header on the
// stack, chains the CRC over the caller's keys where they lie (on a
// little-endian host a u64 array already is the payload), and writes the
// header and the keys to the segment with one writev on a raw fd, with no
// stdio buffer in between.  The keys may come as two runs — the ingest
// pipeline logs a sub-batch from the ring slots it staged it in, which wrap
// past the end of the slot array — and the frame is the same bytes either
// way.  The append observer receives the header and both runs as separate
// spans, so nothing concatenates them unless a replication subscriber
// needs one record.
//
// Segments: a log named `<dir>/shard-<s>.wal` is a sequence of files
// `<dir>/shard-<s>.<first frame seq, 20 digits>.wal`, so name order is log
// order, and seqs keep increasing across them.  Every segment opens with a
// seq-table frame carrying the whole idempotence table, anchored at the
// segment's base offset (a fresh log's first segment, whose table would
// be empty at offset 0, starts straight with data): each segment is a
// self-contained log, and the oldest surviving one still refuses every
// client seq a retired segment held.  Appends rotate to a new segment
// once the active one reaches `segment_bytes`; `retire` deletes whole
// sealed segments below the checkpoint low-water mark.  No file ever sits
// at the log's own name: `read_wal` rejects one, and a fresh log deletes it.
//
// Read side: `read_wal` is the one scan of the log, shared by resume (which
// replays as it scans), a restart's heal (which stops at its gap's end) and
// `she_tool verify`.  It reads one segment at a time into one u64 buffer;
// every frame starts 8-byte aligned (a 48-byte header, then whole words),
// so each data frame's keys are handed out where they lie, and memory
// follows the largest segment, not the log.
//
// Crash contract: appends go to the end of the active segment in order,
// so a crash at any instant leaves a valid frame prefix plus at most one
// torn tail (or an empty or torn-headed segment from a rotation).
// `read_wal` accepts exactly that shape — it stops at the first frame
// that fails validation and reports the bytes behind it, later segments
// included, for `ShardWal` to truncate when it opens — and anything else
// (mid-log corruption) also ends the log there, keeping the longest
// crash-consistent prefix.  A scan stopped early never reports a tail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.hpp"

namespace she {

/// Durability mode of the backlog log.
enum class WalMode {
  kOff,    ///< no log; accepted-but-undrained items are lost at a crash
  kAsync,  ///< append without fsync (survives kill -9, not power loss)
  kFsync,  ///< group-commit fdatasync bounded by `fsync_interval_bytes`
};

[[nodiscard]] WalMode wal_mode_from(std::string_view name);
[[nodiscard]] const char* to_string(WalMode m);

/// A torn, truncated, or corrupted log structure (reads), or a failed
/// append/fsync (writes).  Appends that throw leave the batch *unacked*:
/// the client replays it and the idempotence filter makes that exact.
/// Appends that fail because the *disk* is unhealthy (ENOSPC/EIO) throw
/// the sibling DiskFault (common/io.hpp) instead, which callers treat as
/// survivable: park the pipeline read-only, probe, recover.
class WalError : public SerializeError {
 public:
  using SerializeError::SerializeError;
};

inline constexpr char kWalMagic[4] = {'S', 'H', 'W', 'L'};
inline constexpr std::uint16_t kWalVersion = 1;
inline constexpr std::size_t kWalHeaderBytes = 48;
inline constexpr std::uint16_t kWalData = 0;
inline constexpr std::uint16_t kWalSeqTable = 1;
/// Active-segment size at which appends rotate to a new segment.
inline constexpr std::size_t kWalSegmentBytes = std::size_t{4} << 20;
/// Largest payload a frame may carry.  The recovery scan treats a longer
/// length field as tail garbage (honoring a flipped length bit would try a
/// huge allocation), so appends refuse such a frame up front.
inline constexpr std::uint32_t kMaxWalPayload = 64u << 20;
/// Most keys one data frame (one shard's share of a push_bulk) can carry.
inline constexpr std::size_t kMaxWalKeys = kMaxWalPayload / 8;

/// One decoded frame; its payload borrows the bytes it was parsed from.
struct WalFrame {
  std::uint16_t kind = kWalData;
  std::uint64_t seq = 0;
  std::uint64_t start_offset = 0;
  std::uint64_t client_id = 0;
  std::uint64_t client_seq = 0;
  std::span<const char> payload;

  /// Items covered: data frames span [start_offset, end_offset()).
  [[nodiscard]] std::uint64_t end_offset() const {
    return start_offset + (kind == kWalData ? payload.size() / 8 : 0);
  }
};

/// Encode a frame (header + CRC + payload) ready for appending.
[[nodiscard]] std::vector<char> frame_wal(const WalFrame& f);

/// Validate and decode the frame at the front of `bytes` in place (the
/// recovery scan and the standby both check frames with it); returns its
/// encoded size, or 0 when the bytes are not a whole valid frame.
[[nodiscard]] std::size_t parse_wal_frame(std::span<const char> bytes,
                                          WalFrame& f);

/// Highest applied client sequence number per client id — the idempotence
/// filter that makes INSERT_BULK replay exactly-once per shard.  Client id
/// 0 means "no identity" and is never deduplicated.
class ClientSeqTable {
 public:
  /// Record (client_id, client_seq); returns false — a duplicate, the
  /// caller must skip the batch — when client_seq <= the recorded mark.
  bool record(std::uint64_t client_id, std::uint64_t client_seq) {
    if (client_id == 0) return true;
    std::lock_guard<std::mutex> lk(mu_);
    auto [it, inserted] = high_.try_emplace(client_id, client_seq);
    if (inserted) return true;
    if (client_seq <= it->second) return false;
    it->second = client_seq;
    return true;
  }

  [[nodiscard]] std::uint64_t high(std::uint64_t client_id) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = high_.find(client_id);
    return it == high_.end() ? 0 : it->second;
  }

  [[nodiscard]] std::map<std::uint64_t, std::uint64_t> snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return high_;
  }

  void restore(const std::map<std::uint64_t, std::uint64_t>& m) {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [id, seq] : m) {
      auto [it, inserted] = high_.try_emplace(id, seq);
      if (!inserted && it->second < seq) it->second = seq;
    }
  }

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::uint64_t> high_;
};

/// One segment file of the valid prefix.
struct WalSegment {
  std::string path;
  std::uint64_t end_offset = 0;  ///< shard items covered through it
  std::uint64_t bytes = 0;       ///< its valid prefix length
};

/// Result of scanning a log: the longest valid frame prefix.
struct WalScan {
  std::map<std::uint64_t, std::uint64_t> client_seqs;  ///< id → high seq
  std::uint64_t next_seq = 1;     ///< first unused frame seq
  std::uint64_t end_offset = 0;   ///< shard items covered by the log
  std::uint64_t valid_bytes = 0;  ///< prefix length that parsed
  std::uint64_t dropped_bytes = 0;  ///< torn/corrupt bytes behind it
  std::vector<WalSegment> segments;  ///< files holding the prefix, in order
};

/// The log a segment belongs to: "<dir>/shard-0.<20 digits>.wal" ->
/// "<dir>/shard-0.wal".  Any other path comes back unchanged.
[[nodiscard]] std::string wal_log_name(const std::string& file);

/// Handed each accepted data frame, in log order, and its keys where they
/// lie in the scan's buffer (both live only for the call); false stops
/// the scan.
using WalVisitor =
    std::function<bool(const WalFrame& f, std::span<const std::uint64_t> keys)>;

/// Scan the segments of the log named `path` (none → empty scan), visiting
/// each data frame.  Torn tails, the *expected* crash shape, are counted in
/// `she_wal_torn_tail_total` by a scan that reaches them, never thrown.  A
/// scan `visit` stopped covers only the prefix up to that frame: open no
/// ShardWal from it.  Throws WalError on filesystem read errors and when a
/// file exists at `path` itself.
[[nodiscard]] WalScan read_wal(const std::string& path,
                               const WalVisitor& visit = {});

/// Append handle for one shard's segmented log.  Thread-safe: producers
/// for the same shard serialize on an internal mutex (appends are batched
/// — one frame per push_bulk sub-batch — so the lock is cold).
class ShardWal {
 public:
  struct Options {
    WalMode mode = WalMode::kAsync;
    /// kFsync group-commit bound: unsynced bytes before the next append
    /// forces an fdatasync.  0 = every append syncs (strictest).
    std::size_t fsync_interval_bytes = 0;
    /// Active-segment size at which the next append rotates.
    std::size_t segment_bytes = kWalSegmentBytes;
    /// The shard this log belongs to: the key of the WAL fault points
    /// (common/fault_injection.hpp) armed for it.
    std::size_t shard = 0;
    /// Called after each data append that is as durable as the mode
    /// promises, with the log's new end offset and the frame's encoded
    /// bytes as three spans — the 48-byte header, then the payload as the
    /// caller's two runs of keys in place (`run2` empty for a one-run
    /// append) — still under the per-shard append lock: observers
    /// therefore see frames in exact log order.  The spans live only for
    /// the call; do not join the runs unless the bytes must outlive it.
    /// Replication tails the log through this; keep it cheap (hand the
    /// bytes to a queue, never block on a socket here).
    std::function<void(std::uint64_t end_offset, std::span<const char> header,
                       std::span<const char> run1, std::span<const char> run2)>
        observer;
  };

  /// Open the log named `path` for appending, continuing the last segment
  /// of `scan` (the caller's read_wal of `path`).  Every log file the scan
  /// did not keep is deleted first — the torn tail is truncated, later
  /// segments and any file at `path` itself go — so an empty scan starts a
  /// fresh log in a new segment.
  ShardWal(std::string path, Options opt, const WalScan& scan);
  ~ShardWal();
  ShardWal(const ShardWal&) = delete;
  ShardWal& operator=(const ShardWal&) = delete;

  /// Append one data frame for an accepted sub-batch; the frame's
  /// start_offset is assigned internally (the log's current end), which
  /// keeps offsets contiguous under concurrent producers.  Returns false
  /// — nothing written, caller must skip the batch — when (client_id,
  /// client_seq) is a known duplicate.  Throws WalError with nothing
  /// written when `keys` holds more than kMaxWalKeys, and WalError when
  /// the bytes cannot be made as durable as the mode promises; the frame
  /// may then be torn on disk, which resume tolerates and replay dedupes.
  /// A steady-state append (no rotation or repair) allocates nothing
  /// beyond what the observer does.
  bool append(std::span<const std::uint64_t> keys, std::uint64_t client_id,
              std::uint64_t client_seq) {
    return append(keys, {}, client_id, client_seq);
  }

  /// The same, for a frame whose keys are `head` followed by `tail`: the
  /// bytes on disk are those of a one-run append of the joined keys.
  bool append(std::span<const std::uint64_t> head,
              std::span<const std::uint64_t> tail, std::uint64_t client_id,
              std::uint64_t client_seq);

  /// Unlink the sealed segments wholly at or below `low_water` (the oldest
  /// *retained* checkpoint generation's offset — older generations may
  /// still be the resume base, so their replay suffix must survive),
  /// oldest first.  The active segment is never retired.
  void retire(std::uint64_t low_water);

  /// Force the durability the mode promises (checkpoint barrier / close).
  void flush();

  [[nodiscard]] ClientSeqTable& seq_table() { return seqs_; }

 private:
  void repair_locked();  ///< reopen the active segment, tail cut
  int sync_locked();     ///< fsync the active segment (and, once, its
                         ///< directory); 0 or the errno
  void rotate_locked();  ///< seal the active segment, start the next

  std::string path_;
  Options opt_;
  ClientSeqTable seqs_;
  std::mutex mu_;
  std::vector<WalSegment> sealed_;  ///< oldest first
  std::string active_;              ///< the segment appends go to
  bool named_ = false;              ///< active_'s directory entry synced
  int fd_ = -1;                     ///< the active segment, O_APPEND
  std::uint64_t next_seq_ = 1;
  std::uint64_t end_offset_ = 0;  ///< items covered by frames on disk
  std::uint64_t file_bytes_ = 0;  ///< active segment: whole frames' bytes
  std::uint64_t disk_bytes_ = 0;  ///< actual file size (>= file_bytes_
                                  ///< after a failed append left a tail)
  std::size_t unsynced_bytes_ = 0;
};

}  // namespace she
