// Minimal binary (de)serialization substrate.
//
// Estimators support save()/load() so a long-lived monitor can checkpoint
// its sliding-window state (e.g. across process restarts) and resume with
// identical answers.  The format is little-endian fixed-width fields behind
// a per-type magic tag and version byte; readers throw DecodeError (a
// SerializeError) on truncation, tag mismatch or implausible lengths
// rather than returning garbage.  The server's wire protocol
// (server/protocol.hpp) uses the same fields, so one writer and one reader
// serve the disk and the wire.  A writer appends to a byte vector and a
// reader walks a byte span, so every length prefix is bounded against the
// exact bytes left: a corrupted prefix can never trigger a multi-gigabyte
// allocation before the truncation is discovered element by element.
// Runs of cells or words move as their in-memory bytes (the host is
// little-endian): one memcpy per run each way, or, for a checkpoint frame,
// no copy at all.
#pragma once

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <optional>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include <sys/uio.h>

namespace she {

/// Little-endian fixed-width fields: the byte order of every binary
/// format here (byteswapped on big-endian hosts).
template <typename T>
[[nodiscard]] T to_le(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    T out;
    auto* src = reinterpret_cast<const unsigned char*>(&v);
    auto* dst = reinterpret_cast<unsigned char*>(&out);
    for (std::size_t i = 0; i < sizeof(T); ++i) dst[i] = src[sizeof(T) - 1 - i];
    return out;
  }
  return v;
}

template <typename T>
void put_le(char* out, T v) {
  v = to_le(v);
  std::memcpy(out, &v, sizeof(T));
}

template <typename T>
[[nodiscard]] T get_le(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return to_le(v);
}

/// Typed rejection for every malformed-stream condition the binary readers
/// detect: short reads, tag mismatches, implausible or oversized length
/// prefixes.  Derives from std::runtime_error so pre-existing catch sites
/// keep working.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Every error a BinaryReader raises: the bytes it was given are short,
/// mis-tagged, implausibly sized or followed by trailing bytes.  The wire
/// protocol's ProtocolError is this type, so a server answers it as a bad
/// request; its siblings DiskFault, WalError and CheckpointError say the
/// server's own storage failed and are never the client's fault.
class DecodeError : public SerializeError {
 public:
  using SerializeError::SerializeError;
};

/// Run a config check (or a constructor that runs one) from inside a load
/// and return its result: the std::invalid_argument it throws on direct
/// construction becomes a SerializeError, so a decoder fails one way.
template <class Step>
decltype(auto) while_loading(Step&& step) {
  try {
    return step();
  } catch (const std::invalid_argument& e) {
    throw SerializeError(e.what());
  }
}

/// True when `err` (an errno) says the *disk* is unhealthy — out of space,
/// quota, media error, or mounted read-only — as opposed to a structural
/// problem with the bytes being written.
[[nodiscard]] inline bool is_disk_fault_errno(int err) noexcept {
  return err == ENOSPC || err == EIO || err == EROFS
#if defined(EDQUOT)
         || err == EDQUOT
#endif
      ;
}

/// A durable write (WAL append, checkpoint frame) failed because the disk
/// is unhealthy.  Unlike the structural SerializeError family this is a
/// *survivable, possibly transient* condition: the ingest runtime parks
/// the affected pipeline in degraded read-only mode and probes for
/// recovery instead of treating the write path as broken forever.
class DiskFault : public SerializeError {
 public:
  DiskFault(const std::string& msg, int err)
      : SerializeError(msg), errno_(err) {}
  [[nodiscard]] int error() const noexcept { return errno_; }

 private:
  int errno_;
};

/// Syscalls that change durable state (common/wal.cpp, common/checkpoint.cpp),
/// reported as they happen to the crash-point harness in
/// tests/test_crash_points.cpp.  kWrite is a write that reached the kernel
/// and carries its byte count; the other ops carry 0.
enum class DurableOp { kWrite, kSync, kCreate, kRename, kUnlink, kDirSync };

using DurableOpHook = void (*)(DurableOp op, const std::string& path,
                               std::uint64_t bytes);

/// Armed by fault::on_durable_op (common/fault_injection.hpp); null =
/// nothing observes.
inline std::atomic<DurableOpHook> durable_op_hook{nullptr};

inline void durable_op(DurableOp op, const std::string& path,
                       std::uint64_t bytes = 0) {
  if (const DurableOpHook h = durable_op_hook.load(std::memory_order_acquire))
    h(op, path, bytes);
}

/// fsync the directory holding `path`, making a create, rename or unlink
/// in it durable.  Returns 0, or the errno when the disk is unhealthy
/// (is_disk_fault_errno); a filesystem that cannot sync directories
/// counts as done.
int sync_parent_dir(const std::string& path);

/// Write all of iov[0, count), none of them empty, to `fd`, resuming
/// after short writes and EINTR.  False, with errno set, when a write
/// fails.
bool write_all(int fd, iovec* iov, int count);

/// Drop the first `n` bytes written from the gather list iov[0, count):
/// the entries done are skipped, and a partly written one is trimmed.
void advance_iov(iovec*& iov, int& count, std::size_t n);

/// Write the gather list `parts` (none of them empty) to `path` via
/// "<path>.tmp": create, write, fsync, rename, fsync the directory.  The
/// list may be longer than IOV_MAX; it is written in chunks, and the
/// entries are advanced as they are written.  Throws DiskFault when the
/// errno says the disk is unhealthy (survivable: degrade and retry later),
/// std::runtime_error otherwise.
void write_file_atomic(const std::string& path, std::span<iovec> parts);

/// write_file_atomic of one contiguous buffer.
void write_file_atomic(const std::string& path, std::span<const char> bytes);

/// Read the file at `path` into `buf` (T is char or std::uint64_t), resized
/// to cover it, with one read sized by its length; a buffer that must grow
/// is freed first.  Returns the bytes read, or nullopt with errno saying
/// why (ENOENT: no such file); each caller raises its own error type.
template <class T>
[[nodiscard]] std::optional<std::size_t> read_file(const std::string& path,
                                                   std::vector<T>& buf);

// Cell runs are written and read as their in-memory bytes.
static_assert(std::endian::native == std::endian::little,
              "binary formats store runs of cells as host bytes");

/// Appends fields to a caller-owned byte vector (never clears it).  A
/// gather writer (a checkpoint frame, common/checkpoint.hpp) appends the
/// scalar fields the same way but records each run of cells as a borrowed
/// Run instead of copying it, so the object saved must outlive the write
/// of the frame.
class BinaryWriter {
 public:
  /// A borrowed run of cells, to be written after the first `at` bytes of
  /// the writer's vector.
  struct Run {
    std::size_t at;
    const char* data;
    std::size_t size;
  };

  explicit BinaryWriter(std::vector<char>& out) : out_(out) {}
  BinaryWriter(std::vector<char>& out, std::vector<Run>& runs)
      : out_(out), runs_(&runs) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) {
    v = to_le(v);
    raw(&v, 4);
  }
  void u64(std::uint64_t v) {
    v = to_le(v);
    raw(&v, 8);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// 4-byte section tag, e.g. "SHBF".
  void tag(const char (&t)[5]) { raw(t, 4); }

  /// A string: u32 length, then its bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  /// A run of cells or words, stored as their bytes: appended with one
  /// memcpy, or borrowed by a gather writer.
  template <class T>
    requires std::is_integral_v<T>
  void cells(std::span<const T> run) {
    if (run.empty()) return;
    const auto* p = reinterpret_cast<const char*>(run.data());
    if (runs_ == nullptr)
      raw(p, run.size_bytes());
    else
      runs_->push_back({out_.size(), p, run.size_bytes()});
  }

  void u64_vector(const std::vector<std::uint64_t>& v);

 private:
  void raw(const void* p, std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    std::memcpy(out_.data() + at, p, n);
  }
  std::vector<char>& out_;
  std::vector<Run>* runs_ = nullptr;  ///< set for a gather writer
};

/// Reads fields from a borrowed byte span, which must outlive the reader.
/// Every error it raises is a DecodeError.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const char> bytes) : bytes_(bytes) {}
  /// A reader that may also rewrite the bytes in place (u64s_in_place).
  explicit BinaryReader(std::vector<char>& bytes)
      : bytes_(bytes), mutable_(bytes.data()) {}
  /// No reader over a temporary buffer: it would dangle.
  template <class Buffer>
    requires(!std::is_lvalue_reference_v<Buffer> &&
             !std::ranges::borrowed_range<Buffer>)
  explicit BinaryReader(Buffer&&) = delete;

  std::uint8_t u8() { return static_cast<std::uint8_t>(*take(1)); }
  std::uint32_t u32() { return get_le<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return get_le<std::uint64_t>(take(8)); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// A string: u32 length (bounded by the bytes left), then its bytes.
  std::string str() {
    const std::uint32_t n = u32();
    return std::string(take(n), n);
  }

  /// Next byte without consuming it.
  [[nodiscard]] std::uint8_t peek_u8() const {
    if (remaining() < 1) throw DecodeError("BinaryReader: nothing to peek");
    return static_cast<std::uint8_t>(bytes_[pos_]);
  }

  /// Read and verify a 4-byte section tag; throws on mismatch.
  void expect_tag(const char (&t)[5]);

  std::vector<std::uint64_t> u64_vector();

  /// Fill `run` from the stream's next run of cells or words: one bounds
  /// check and one memcpy.
  template <class T>
    requires std::is_integral_v<T>
  void cells(std::span<T> run) {
    if (!run.empty())
      std::memcpy(run.data(), take(run.size_bytes()), run.size_bytes());
  }

  /// Consume `n` little-endian u64s and return them as host-order words
  /// decoded inside the bytes themselves: they move down to the nearest
  /// 8-byte boundary, over fields already read, and are byte-swapped in
  /// place on a big-endian host.  The span lives as long as the bytes.
  /// Throws DecodeError when fewer than 8n bytes remain, and
  /// std::logic_error on a reader built over a read-only span.
  std::span<const std::uint64_t> u64s_in_place(std::uint32_t n);

  /// Throw DecodeError unless `bytes` more bytes can still be read.  A
  /// decoder calls this before it sizes anything from a shape field.
  void expect_remaining(std::uint64_t bytes);

  /// A well-formed request is consumed exactly: throw DecodeError on
  /// trailing bytes.
  void expect_done() const {
    if (remaining() != 0)
      throw DecodeError("trailing bytes after request body");
  }

  /// Bytes not yet read.
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  /// The next `n` bytes, consumed; throws DecodeError past the end.
  const char* take(std::size_t n) {
    if (n > remaining())
      throw DecodeError("BinaryReader: unexpected end of stream");
    const char* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  /// Reject a vector length prefix that is absurd in absolute terms or
  /// larger than the bytes left.
  void check_length(std::uint64_t n, std::size_t elem_bytes);

  std::span<const char> bytes_;
  char* mutable_ = nullptr;  ///< bytes_.data() when the bytes may be rewritten
  std::size_t pos_ = 0;
};

}  // namespace she
