#include "common/checkpoint.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/crc32.hpp"
#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace she {

namespace {

/// Corrupt-checkpoint rejections, kept in the process-wide registry so
/// they surface in every Prometheus/JSON dump regardless of which
/// pipeline (or tool) hit them.  Incremented unconditionally — rejections
/// are rare and always worth counting, so the obs::enabled() gate does
/// not apply.
obs::Counter& corrupt_counter() {
  return obs::default_registry().counter(
      "she_checkpoint_corrupt_total",
      "checkpoint frames rejected as truncated or corrupted");
}

[[noreturn]] void reject(const std::string& why) {
  corrupt_counter().inc();
  throw CheckpointError("checkpoint rejected: " + why);
}

}  // namespace

std::vector<char> frame_checkpoint(std::uint64_t stream_offset,
                                   std::span<const char> payload) {
  std::vector<char> out(kCheckpointHeaderBytes + payload.size());
  std::copy(payload.begin(), payload.end(),
            out.begin() + kCheckpointHeaderBytes);
  seal_checkpoint(out, stream_offset);
  return out;
}

void seal_checkpoint(std::span<char> frame, std::uint64_t stream_offset) {
  char* h = frame.data();
  const std::span<const char> payload = frame.subspan(kCheckpointHeaderBytes);
  std::memcpy(h, kCheckpointMagic, 4);
  put_le<std::uint32_t>(h + 4, kCheckpointVersion);
  put_le<std::uint64_t>(h + 8, stream_offset);
  put_le<std::uint64_t>(h + 16, payload.size());
  // The CRC covers the header prefix too, chained into everything after
  // the CRC field, so a bit flip in the stream offset is as loud as one
  // in the payload.
  put_le<std::uint32_t>(h + 24,
                        crc32(payload.data(), payload.size(), crc32(h, 24)));
}

CheckpointData parse_checkpoint(const char* data, std::size_t n) {
  if (n < kCheckpointHeaderBytes)
    reject("truncated header (" + std::to_string(n) + " of " +
           std::to_string(kCheckpointHeaderBytes) + " bytes)");
  if (std::memcmp(data, kCheckpointMagic, 4) != 0)
    reject("bad magic (not a checkpoint file)");
  const auto version = get_le<std::uint32_t>(data + 4);
  if (version != kCheckpointVersion)
    reject("unsupported frame version " + std::to_string(version));
  CheckpointData out;
  out.stream_offset = get_le<std::uint64_t>(data + 8);
  const auto payload_len = get_le<std::uint64_t>(data + 16);
  const auto expected_crc = get_le<std::uint32_t>(data + 24);
  if (payload_len != n - kCheckpointHeaderBytes)
    reject("payload length " + std::to_string(payload_len) +
           " does not match the " +
           std::to_string(n - kCheckpointHeaderBytes) +
           " bytes present (truncated or trailing garbage)");
  const char* payload = data + kCheckpointHeaderBytes;
  std::uint32_t actual_crc = crc32(data, 24);
  actual_crc = crc32(data + kCheckpointHeaderBytes, n - kCheckpointHeaderBytes,
                     actual_crc);
  if (actual_crc != expected_crc)
    reject("CRC mismatch (corrupted header or payload)");
  out.payload.assign(payload, payload + payload_len);
  return out;
}

void write_file_atomic(const std::string& path, std::span<const char> bytes) {
  const std::string tmp = path + ".tmp";
  // ENOSPC/EIO from any step is a *disk* fault, not a caller bug: report
  // it as the typed DiskFault so the ingest runtime can park the pipeline
  // in degraded read-only mode instead of crashing the worker.
  const auto fail = [&tmp](const std::string& what, int err) -> void {
    std::remove(tmp.c_str());
    const std::string msg = "checkpoint: " + what + " " + tmp +
                            (err != 0 ? std::string(": ") + std::strerror(err)
                                      : std::string());
    if (is_disk_fault_errno(err)) throw DiskFault(msg, err);
    throw std::runtime_error(msg);
  };
  errno = 0;
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) fail("cannot open", errno);
  durable_op(DurableOp::kCreate, tmp);
  errno = 0;
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = ok && std::fflush(f) == 0;
  if (ok) durable_op(DurableOp::kWrite, tmp, bytes.size());
#if defined(__unix__) || defined(__APPLE__)
  // Frame durability, not just atomicity: reach the disk before the
  // rename makes the new frame visible.
  ok = ok && ::fsync(fileno(f)) == 0;
  if (ok) durable_op(DurableOp::kSync, tmp);
#endif
  int err = ok ? 0 : errno;
  if (std::fclose(f) != 0 && ok) {
    ok = false;
    err = errno;
  }
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

std::optional<CheckpointData> try_read_checkpoint_file(
    const std::string& path) {
  const std::optional<std::vector<char>> bytes = read_file(path);
  if (!bytes) {
    if (errno == ENOENT) return std::nullopt;
    throw CheckpointError("checkpoint: cannot read " + path + ": " +
                          std::strerror(errno));
  }
  return parse_checkpoint(bytes->data(), bytes->size());
}

CheckpointData read_checkpoint_file(const std::string& path) {
  auto data = try_read_checkpoint_file(path);
  if (!data)
    throw CheckpointError("checkpoint: no such file: " + path);
  return std::move(*data);
}

std::string checkpoint_generation_path(const std::string& path,
                                       std::size_t gen) {
  return gen == 0 ? path : path + "." + std::to_string(gen);
}

void rotate_checkpoints(const std::string& path, std::size_t keep) {
  if (keep <= 1) return;
  // Oldest first so each rename lands on a vacated (or expired) slot.
  for (std::size_t gen = keep - 1; gen > 0; --gen) {
    const std::string from = checkpoint_generation_path(path, gen - 1);
    const std::string to = checkpoint_generation_path(path, gen);
    std::error_code ec;
    std::filesystem::rename(from, to, ec);  // missing generations are fine
    if (!ec) durable_op(DurableOp::kRename, to);
  }
}

std::optional<CheckpointData> read_newest_checkpoint(const std::string& path,
                                                     std::size_t keep) {
  bool any_exists = false;
  std::string first_error;
  for (std::size_t gen = 0; gen < std::max<std::size_t>(keep, 1); ++gen) {
    const std::string p = checkpoint_generation_path(path, gen);
    try {
      auto data = try_read_checkpoint_file(p);
      if (data) return data;  // newest valid generation wins
    } catch (const CheckpointError& e) {
      any_exists = true;  // present but unusable; fall back to older
      if (first_error.empty()) first_error = e.what();
    }
  }
  if (any_exists)
    throw CheckpointError("checkpoint: every retained generation of " + path +
                          " is corrupt (newest: " + first_error + ")");
  return std::nullopt;
}

}  // namespace she
