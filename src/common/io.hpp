// Minimal binary (de)serialization substrate.
//
// Estimators support save()/load() so a long-lived monitor can checkpoint
// its sliding-window state (e.g. across process restarts) and resume with
// identical answers.  The format is little-endian fixed-width fields behind
// a per-type magic tag and version byte; readers throw SerializeError on
// truncation, tag mismatch or implausible lengths rather than returning
// garbage.  Length prefixes are additionally bounded against the remaining
// stream size (when the stream is seekable), so a corrupted prefix can
// never trigger a multi-gigabyte allocation before the truncation is
// discovered element by element.
#pragma once

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

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
/// (after fflush) and carries its byte count; the other ops carry 0.
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

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os) : os_(os) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);

  /// 4-byte section tag, e.g. "SHBF".
  void tag(const char (&t)[5]) { raw(t, 4); }

  void u64_vector(const std::vector<std::uint64_t>& v);

 private:
  void raw(const void* p, std::size_t n);
  std::ostream& os_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& is) : is_(is) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();

  /// Read and verify a 4-byte section tag; throws on mismatch.
  void expect_tag(const char (&t)[5]);

  /// Read a 4-byte section tag and return it, for formats that dispatch on
  /// the tag (e.g. a container accepting several versions of its layout).
  [[nodiscard]] std::string read_tag();

  std::vector<std::uint64_t> u64_vector();

  /// Throw SerializeError unless `bytes` more bytes can still be read.  A
  /// decoder calls this before it sizes anything from a shape field (an
  /// unseekable stream gets only the absolute cap: 2^35 bytes, the largest
  /// u64_vector).
  void expect_remaining(std::uint64_t bytes);

 private:
  void raw(void* p, std::size_t n);

  /// Bytes left before end-of-stream, or nullopt when the stream is not
  /// seekable (then only the absolute plausibility cap applies).
  std::optional<std::uint64_t> remaining_bytes();

  /// Reject a vector length prefix that is absurd in absolute terms or
  /// provably larger than the remaining stream.
  void check_length(std::uint64_t n, std::size_t elem_bytes);

  std::istream& is_;
};

}  // namespace she
