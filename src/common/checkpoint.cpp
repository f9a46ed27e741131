#include "common/checkpoint.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/crc32.hpp"
#include "obs/metrics.hpp"

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

/// Write a frame header for `payload_len` payload bytes at `h`, all but its
/// CRC field, and return the CRC of the header prefix the CRC chains from.
std::uint32_t put_header(char* h, std::uint64_t stream_offset,
                         std::uint64_t payload_len) {
  std::memcpy(h, kCheckpointMagic, 4);
  put_le<std::uint32_t>(h + 4, kCheckpointVersion);
  put_le<std::uint64_t>(h + 8, stream_offset);
  put_le<std::uint64_t>(h + 16, payload_len);
  // The CRC covers the header prefix too, chained into everything after
  // the CRC field, so a bit flip in the stream offset is as loud as one
  // in the payload.
  return crc32(h, 24);
}

}  // namespace

void seal_checkpoint(CheckpointFrame& frame, std::uint64_t stream_offset) {
  char* const h = frame.scratch.data();
  std::vector<iovec>& iov = frame.iov;
  // The header, each run, and the scalar bytes before each run and after
  // the last, where there are any.
  std::size_t entries = 1 + frame.runs.size();
  std::size_t from = kCheckpointHeaderBytes;
  for (const BinaryWriter::Run& r : frame.runs) {
    entries += r.at != from;
    from = r.at;
  }
  entries += frame.scratch.size() != from;
  iov.clear();
  iov.reserve(entries);
  const auto add = [&iov](const char* p, std::size_t n) {
    if (n != 0) iov.push_back({const_cast<char*>(p), n});
  };
  add(h, kCheckpointHeaderBytes);
  from = kCheckpointHeaderBytes;
  std::uint64_t payload_len = frame.scratch.size() - kCheckpointHeaderBytes;
  for (const BinaryWriter::Run& r : frame.runs) {
    add(h + from, r.at - from);
    add(r.data, r.size);
    from = r.at;
    payload_len += r.size;
  }
  add(h + from, frame.scratch.size() - from);
  std::uint32_t crc = put_header(h, stream_offset, payload_len);
  for (std::size_t i = 1; i < iov.size(); ++i)
    crc = crc32(iov[i].iov_base, iov[i].iov_len, crc);
  put_le<std::uint32_t>(h + 24, crc);
}

void seal_checkpoint(std::span<char> frame, std::uint64_t stream_offset) {
  const std::span<const char> payload = frame.subspan(kCheckpointHeaderBytes);
  const std::uint32_t head =
      put_header(frame.data(), stream_offset, payload.size());
  put_le<std::uint32_t>(frame.data() + 24,
                        crc32(payload.data(), payload.size(), head));
}

CheckpointData parse_checkpoint(std::vector<char> frame) {
  const std::size_t n = frame.size();
  const char* const data = frame.data();
  if (n < kCheckpointHeaderBytes)
    reject("truncated header (" + std::to_string(n) + " of " +
           std::to_string(kCheckpointHeaderBytes) + " bytes)");
  if (std::memcmp(data, kCheckpointMagic, 4) != 0)
    reject("bad magic (not a checkpoint file)");
  const auto version = get_le<std::uint32_t>(data + 4);
  if (version != kCheckpointVersion)
    reject("unsupported frame version " + std::to_string(version));
  const auto payload_len = get_le<std::uint64_t>(data + 16);
  if (payload_len != n - kCheckpointHeaderBytes)
    reject("payload length " + std::to_string(payload_len) +
           " does not match the " +
           std::to_string(n - kCheckpointHeaderBytes) +
           " bytes present (truncated or trailing garbage)");
  if (crc32(data + kCheckpointHeaderBytes, n - kCheckpointHeaderBytes,
            crc32(data, 24)) != get_le<std::uint32_t>(data + 24))
    reject("CRC mismatch (corrupted header or payload)");
  return {get_le<std::uint64_t>(data + 8), std::move(frame)};
}

std::optional<CheckpointData> try_read_checkpoint_file(
    const std::string& path) {
  std::vector<char> bytes;
  if (!read_file(path, bytes)) {
    if (errno == ENOENT) return std::nullopt;
    throw CheckpointError("checkpoint: cannot read " + path + ": " +
                          std::strerror(errno));
  }
  return parse_checkpoint(std::move(bytes));
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
