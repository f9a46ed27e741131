#include "common/io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstring>
#include <filesystem>

namespace she {

int sync_parent_dir(const std::string& path) {
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_CLOEXEC);
  const int err = fd < 0 || ::fsync(fd) != 0 ? errno : 0;
  if (fd >= 0) ::close(fd);
  if (err == 0) durable_op(DurableOp::kDirSync, dir.string());
  return is_disk_fault_errno(err) ? err : 0;
}

bool write_all(int fd, iovec* iov, int count) {
  while (count > 0) {
    const ssize_t w = ::writev(fd, iov, count);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      if (w == 0) errno = EIO;
      return false;
    }
    advance_iov(iov, count, static_cast<std::size_t>(w));
  }
  return true;
}

void advance_iov(iovec*& iov, int& count, std::size_t n) {
  for (; count > 0; ++iov, --count) {
    if (n < iov->iov_len) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + n;
      iov->iov_len -= n;
      return;
    }
    n -= iov->iov_len;
  }
}

void write_file_atomic(const std::string& path, std::span<iovec> parts) {
  const std::string tmp = path + ".tmp";
  // ENOSPC/EIO from any step is a *disk* fault, not a caller bug: report
  // it as the typed DiskFault so the ingest runtime can park the pipeline
  // in degraded read-only mode instead of crashing the worker.
  const auto fail = [&tmp](const std::string& what, int err) -> void {
    ::unlink(tmp.c_str());
    const std::string msg = "checkpoint: " + what + " " + tmp +
                            (err != 0 ? std::string(": ") + std::strerror(err)
                                      : std::string());
    if (is_disk_fault_errno(err)) throw DiskFault(msg, err);
    throw std::runtime_error(msg);
  };
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) fail("cannot open", errno);
  durable_op(DurableOp::kCreate, tmp);
  std::uint64_t bytes = 0;
  for (const iovec& v : parts) bytes += v.iov_len;
  bool ok = true;
  for (std::size_t i = 0; ok && i < parts.size(); i += IOV_MAX)
    ok = write_all(fd, parts.data() + i,
                   static_cast<int>(std::min<std::size_t>(IOV_MAX,
                                                          parts.size() - i)));
  if (ok) durable_op(DurableOp::kWrite, tmp, bytes);
  // Frame durability, not just atomicity: reach the disk before the
  // rename makes the new frame visible.
  ok = ok && ::fsync(fd) == 0;
  if (ok) durable_op(DurableOp::kSync, tmp);
  const int err = ok ? 0 : errno;
  if (::close(fd) != 0 && ok) fail("short write to", errno);
  if (!ok) fail("short write to", err);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) fail("cannot rename", ec.value());
  durable_op(DurableOp::kRename, path);
  // Make the rename itself durable: the caller may next delete the log
  // segments this frame covers, and after a power cut that unlink must
  // not survive without the rename.
  if (const int err = sync_parent_dir(path))
    fail("cannot sync the directory of", err);
}

void write_file_atomic(const std::string& path, std::span<const char> bytes) {
  iovec iov{const_cast<char*>(bytes.data()), bytes.size()};
  write_file_atomic(path, std::span<iovec>(&iov, bytes.empty() ? 0 : 1));
}

template <class T>
std::optional<std::size_t> read_file(const std::string& path,
                                     std::vector<T>& buf) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  ssize_t r = ::fstat(fd, &st);
  const auto size = static_cast<std::size_t>(r == 0 ? st.st_size : 0);
  if (size > buf.capacity() * sizeof(T)) std::vector<T>().swap(buf);
  buf.resize((size + sizeof(T) - 1) / sizeof(T));
  std::size_t n = 0;
  while (r >= 0 && n < size) {
    r = ::read(fd, reinterpret_cast<char*>(buf.data()) + n, size - n);
    if (r == 0) break;  // EOF: the file shrank since fstat
    if (r > 0) n += static_cast<std::size_t>(r);
    if (r < 0 && errno == EINTR) r = 0;
  }
  buf.resize((n + sizeof(T) - 1) / sizeof(T));
  const int err = errno;
  ::close(fd);
  errno = err;
  if (r < 0) return std::nullopt;
  return n;
}

template std::optional<std::size_t> read_file(const std::string&,
                                              std::vector<char>&);
template std::optional<std::size_t> read_file(const std::string&,
                                              std::vector<std::uint64_t>&);

void BinaryWriter::u64_vector(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  cells(std::span<const std::uint64_t>(v));
}

void BinaryReader::check_length(std::uint64_t n, std::size_t elem_bytes) {
  if (n > (std::uint64_t{1} << 32))
    throw DecodeError("BinaryReader: implausible vector length");
  if (n > remaining() / elem_bytes)
    throw DecodeError("BinaryReader: vector length " + std::to_string(n) +
                         " exceeds the " + std::to_string(remaining()) +
                         " bytes remaining in the stream");
}

void BinaryReader::expect_remaining(std::uint64_t bytes) {
  if (bytes > (std::uint64_t{1} << 35))
    throw DecodeError("BinaryReader: implausible size of " +
                         std::to_string(bytes) + " bytes");
  if (bytes > remaining())
    throw DecodeError("BinaryReader: " + std::to_string(bytes) +
                         " bytes declared, " + std::to_string(remaining()) +
                         " remaining in the stream");
}

void BinaryReader::expect_tag(const char (&t)[5]) {
  if (std::memcmp(take(4), t, 4) != 0)
    throw DecodeError(std::string("BinaryReader: expected tag '") + t +
                         "', stream holds something else");
}

std::span<const std::uint64_t> BinaryReader::u64s_in_place(std::uint32_t n) {
  const std::size_t at = pos_;
  const char* const src = take(std::size_t{n} * 8);
  if (mutable_ == nullptr)
    throw std::logic_error("u64s_in_place: the bytes are read-only");
  // The bytes are a std::vector<char>, whose storage operator new aligns
  // for any fundamental type, so rounding the offset down aligns the words.
  static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= alignof(std::uint64_t));
  char* const dst = mutable_ + (at & ~std::size_t{7});
  // memmove implicitly creates the u64 objects in the bytes and returns a
  // pointer to them, so reading the words through it is defined.
  auto* const words =
      static_cast<std::uint64_t*>(std::memmove(dst, src, std::size_t{n} * 8));
  if constexpr (std::endian::native != std::endian::little) {
    for (std::uint32_t i = 0; i < n; ++i) words[i] = to_le(words[i]);
  }
  return {words, n};
}

std::vector<std::uint64_t> BinaryReader::u64_vector() {
  std::uint64_t n = u64();
  check_length(n, 8);
  std::vector<std::uint64_t> v(n);
  cells(std::span<std::uint64_t>(v));
  return v;
}

}  // namespace she
