#include "common/io.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace she {

int sync_parent_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  const int err = fd < 0 || ::fsync(fd) != 0 ? errno : 0;
  if (fd >= 0) ::close(fd);
  if (err == 0) durable_op(DurableOp::kDirSync, dir.string());
  return is_disk_fault_errno(err) ? err : 0;
#else
  (void)path;
  return 0;
#endif
}

std::optional<std::vector<char>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::vector<char> bytes(ec ? 0 : size);
  // Fewer bytes when the file shrank since its size was taken.
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
  const bool failed = ec || std::ferror(f);
  std::fclose(f);
  if (!failed) return bytes;
  errno = ec ? ec.value() : EIO;
  return std::nullopt;
}

void BinaryWriter::u64_vector(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  for (std::uint64_t x : v) u64(x);
}

void BinaryReader::check_length(std::uint64_t n, std::size_t elem_bytes) {
  if (n > (std::uint64_t{1} << 32))
    throw SerializeError("BinaryReader: implausible vector length");
  if (n > remaining() / elem_bytes)
    throw SerializeError("BinaryReader: vector length " + std::to_string(n) +
                         " exceeds the " + std::to_string(remaining()) +
                         " bytes remaining in the stream");
}

void BinaryReader::expect_remaining(std::uint64_t bytes) {
  if (bytes > (std::uint64_t{1} << 35))
    throw SerializeError("BinaryReader: implausible size of " +
                         std::to_string(bytes) + " bytes");
  if (bytes > remaining())
    throw SerializeError("BinaryReader: " + std::to_string(bytes) +
                         " bytes declared, " + std::to_string(remaining()) +
                         " remaining in the stream");
}

void BinaryReader::expect_tag(const char (&t)[5]) {
  if (std::memcmp(take(4), t, 4) != 0)
    throw SerializeError(std::string("BinaryReader: expected tag '") + t +
                         "', stream holds something else");
}

std::vector<std::uint64_t> BinaryReader::u64_vector() {
  std::uint64_t n = u64();
  check_length(n, 8);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = u64();
  return v;
}

}  // namespace she
