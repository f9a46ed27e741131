#include "common/io.hpp"

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

void BinaryWriter::raw(const void* p, std::size_t n) {
  os_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  if (!os_) throw SerializeError("BinaryWriter: write failed");
}

void BinaryWriter::u32(std::uint32_t v) {
  v = to_le(v);
  raw(&v, 4);
}

void BinaryWriter::u64(std::uint64_t v) {
  v = to_le(v);
  raw(&v, 8);
}

void BinaryWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  u64(bits);
}

void BinaryWriter::u64_vector(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  for (std::uint64_t x : v) u64(x);
}

void BinaryReader::raw(void* p, std::size_t n) {
  is_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is_.gcount()) != n)
    throw SerializeError("BinaryReader: unexpected end of stream");
}

std::optional<std::uint64_t> BinaryReader::remaining_bytes() {
  const std::streampos pos = is_.tellg();
  if (pos == std::streampos(-1)) {
    is_.clear();
    return std::nullopt;
  }
  is_.seekg(0, std::ios::end);
  const std::streampos end = is_.tellg();
  is_.seekg(pos);
  if (end == std::streampos(-1) || end < pos || !is_) {
    is_.clear();
    is_.seekg(pos);
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(end - pos);
}

void BinaryReader::check_length(std::uint64_t n, std::size_t elem_bytes) {
  if (n > (std::uint64_t{1} << 32))
    throw SerializeError("BinaryReader: implausible vector length");
  if (const auto rem = remaining_bytes(); rem && n > *rem / elem_bytes)
    throw SerializeError("BinaryReader: vector length " + std::to_string(n) +
                         " exceeds the " + std::to_string(*rem) +
                         " bytes remaining in the stream");
}

void BinaryReader::expect_remaining(std::uint64_t bytes) {
  if (bytes > (std::uint64_t{1} << 35))
    throw SerializeError("BinaryReader: implausible size of " +
                         std::to_string(bytes) + " bytes");
  if (const auto rem = remaining_bytes(); rem && bytes > *rem)
    throw SerializeError("BinaryReader: " + std::to_string(bytes) +
                         " bytes declared, " + std::to_string(*rem) +
                         " remaining in the stream");
}

std::uint8_t BinaryReader::u8() {
  std::uint8_t v;
  raw(&v, 1);
  return v;
}

std::uint32_t BinaryReader::u32() {
  std::uint32_t v;
  raw(&v, 4);
  return to_le(v);
}

std::uint64_t BinaryReader::u64() {
  std::uint64_t v;
  raw(&v, 8);
  return to_le(v);
}

double BinaryReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

void BinaryReader::expect_tag(const char (&t)[5]) {
  char got[4];
  raw(got, 4);
  if (std::memcmp(got, t, 4) != 0)
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
