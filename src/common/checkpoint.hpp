// Durable, CRC-framed checkpoint files.
//
// The estimators' save()/load() byte format is deliberately minimal — it
// trusts its input.  A checkpoint that survives process crashes cannot: a
// power cut mid-write leaves a truncated file, a disk error flips bits,
// and loading either into a live pipeline would silently corrupt hours of
// sliding-window state.  This module wraps any serialized payload in a
// self-verifying frame and writes it atomically:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic "SHCP"
//        4     4  frame version (u32, little-endian, always 1)
//        8     8  stream offset (items applied when the snapshot was taken)
//       16     8  payload length in bytes
//       24     4  CRC-32 (IEEE) of bytes [0, 24) chained with everything
//                 after the CRC field — a flipped bit anywhere in the frame
//                 (including the stream offset) fails the checksum
//       28     n  payload (estimator save() bytes)
//
// Readers reject anything that fails magic, version, length or CRC checks
// with a typed CheckpointError — never a crash, hang or silent load — and
// every such rejection is counted in the `she_checkpoint_corrupt_total`
// metric (obs::default_registry()).  Writers go through a temp file and an
// atomic rename, so a reader racing a writer observes either the old or
// the new complete frame, never a torn one.
//
// A writer never builds the frame as one buffer.  An estimator's image is
// mostly its cell pages verbatim, so a CheckpointFrame copies only the
// header and the payload's scalar fields, borrows every run of cells where
// it lies, and hands the whole frame to writev as one gather list.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/io.hpp"

namespace she {

/// Typed rejection for unusable checkpoint files: truncation, bad magic,
/// unknown version, length mismatch, CRC failure, or a missing file on a
/// path that was required to exist.
class CheckpointError : public SerializeError {
 public:
  using SerializeError::SerializeError;
};

inline constexpr char kCheckpointMagic[4] = {'S', 'H', 'C', 'P'};
inline constexpr std::uint32_t kCheckpointVersion = 1;
inline constexpr std::size_t kCheckpointHeaderBytes = 28;

/// A validated frame: its bytes as read and its ingest position, with the
/// payload a view into them, so a resume deserializes the bytes it read.
struct CheckpointData {
  std::uint64_t stream_offset = 0;
  std::vector<char> frame;  ///< the whole frame, header included

  [[nodiscard]] std::span<const char> payload() const {
    return std::span<const char>(frame).subspan(kCheckpointHeaderBytes);
  }
};

/// A frame being written: the header room and the payload's scalar fields
/// in `scratch`, its cell runs borrowed (see BinaryWriter::Run), so the
/// object saved must outlive the write.  seal_checkpoint lays the frame out
/// in `iov`, the list write_file_atomic takes.
struct CheckpointFrame {
  std::vector<char> scratch = std::vector<char>(kCheckpointHeaderBytes);
  std::vector<BinaryWriter::Run> runs;
  std::vector<iovec> iov;
  /// One entry of `iov` copied so that fault injection can corrupt it
  /// without writing to the borrowed cells (fault::maybe_corrupt_frame).
  std::vector<char> copied;

  /// A writer that serializes the payload behind the header room.
  [[nodiscard]] BinaryWriter writer() { return BinaryWriter(scratch, runs); }
};

/// Seal `frame`: write its header over the room, with the CRC chained over
/// the header prefix, the scalar bytes and the runs in frame order, and
/// lay the frame out in `frame.iov` (no empty entries).
void seal_checkpoint(CheckpointFrame& frame, std::uint64_t stream_offset);

/// Seal a contiguous frame in place: `frame` is kCheckpointHeaderBytes of
/// room followed by the payload, and the header is written over that
/// room.  `frame` must hold the room.
void seal_checkpoint(std::span<char> frame, std::uint64_t stream_offset);

/// Validate a frame in place and keep its bytes.  Throws CheckpointError
/// (and increments `she_checkpoint_corrupt_total`) on any structural or
/// checksum failure.
[[nodiscard]] CheckpointData parse_checkpoint(std::vector<char> frame);

/// Read and parse `path`; nullopt iff the file does not exist (a fresh
/// start, not an error).  A file that exists but fails validation throws
/// CheckpointError, like parse_checkpoint.
[[nodiscard]] std::optional<CheckpointData> try_read_checkpoint_file(
    const std::string& path);

/// Like try_read_checkpoint_file, but a missing file is also a
/// CheckpointError (it is not counted as corrupt).
[[nodiscard]] CheckpointData read_checkpoint_file(const std::string& path);

// ------------------------------------------------------- frame retention --
//
// A single overwrite-in-place file is one bad write away from losing all
// durability.  With `keep > 1` a writer retains the last `keep` frames as
//
//   <path>        newest
//   <path>.1      one generation older
//   ...
//   <path>.<keep-1>
//
// and a resuming reader walks newest -> oldest, loading the first frame
// that validates.  Corrupt frames are skipped (each rejection is counted
// in `she_checkpoint_corrupt_total`); only when every existing generation
// fails does the read throw.

/// The on-disk name of generation `gen` (0 = newest = `path` itself).
[[nodiscard]] std::string checkpoint_generation_path(const std::string& path,
                                                     std::size_t gen);

/// Shift the retained generations one step older, making room for a new
/// newest frame at `path`: <path>.(keep-2) -> <path>.(keep-1), ...,
/// <path> -> <path>.1.  The oldest generation falls off.  Missing
/// generations are skipped; with keep <= 1 this is a no-op (pure
/// overwrite-in-place).
void rotate_checkpoints(const std::string& path, std::size_t keep);

/// Read the newest valid frame among the `keep` retained generations.
/// Returns nullopt when no generation exists at all (a fresh start);
/// throws CheckpointError when generations exist but every one of them is
/// corrupt — resuming silently from nothing when frames were written would
/// masquerade as data loss.
[[nodiscard]] std::optional<CheckpointData> read_newest_checkpoint(
    const std::string& path, std::size_t keep);

}  // namespace she
