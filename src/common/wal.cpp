#include "common/wal.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "common/crc32.hpp"
#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace she {

namespace {

template <typename T>
T to_le(T v) {
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
T get_le(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return to_le(v);
}

/// A frame claiming more payload than this is treated as tail garbage: no
/// real sub-batch approaches it (the wire protocol caps frames at 16 MiB)
/// and honoring a flipped length bit would try a huge allocation.
constexpr std::uint32_t kMaxWalPayload = 64u << 20;

obs::Counter& torn_counter() {
  return obs::default_registry().counter(
      "she_wal_torn_tail_total",
      "WAL tails truncated as torn or corrupt during recovery scans");
}

/// Validate the frame starting at data[at]; fills `f`'s header fields (not
/// its payload) and returns the total encoded size, or 0 when the bytes
/// are not a valid frame (torn tail — the scan stops there).
std::size_t check_frame(const char* data, std::size_t n, std::size_t at,
                        WalFrame& f) {
  if (n - at < kWalHeaderBytes) return 0;
  const char* h = data + at;
  if (std::memcmp(h, kWalMagic, 4) != 0) return 0;
  if (get_le<std::uint16_t>(h + 4) != kWalVersion) return 0;
  const auto kind = get_le<std::uint16_t>(h + 6);
  if (kind != kWalData && kind != kWalSeqTable) return 0;
  const auto payload_len = get_le<std::uint32_t>(h + 40);
  if (payload_len > kMaxWalPayload) return 0;
  if (n - at - kWalHeaderBytes < payload_len) return 0;
  const char* payload = h + kWalHeaderBytes;
  std::uint32_t crc = crc32(h, 44);
  crc = crc32(payload, payload_len, crc);
  if (crc != get_le<std::uint32_t>(h + 44)) return 0;
  if (payload_len % 16 != 0 && kind == kWalSeqTable) return 0;
  if (payload_len % 8 != 0 && kind == kWalData) return 0;
  f.kind = kind;
  f.seq = get_le<std::uint64_t>(h + 8);
  f.start_offset = get_le<std::uint64_t>(h + 16);
  f.client_id = get_le<std::uint64_t>(h + 24);
  f.client_seq = get_le<std::uint64_t>(h + 32);
  return kWalHeaderBytes + payload_len;
}

/// check_frame() plus a copy of the payload into `f`.
std::size_t parse_frame(const char* data, std::size_t n, std::size_t at,
                        WalFrame& f) {
  const std::size_t sz = check_frame(data, n, at, f);
  if (sz == 0) return 0;
  const char* payload = data + at + kWalHeaderBytes;
  f.payload.assign(payload, payload + (sz - kWalHeaderBytes));
  return sz;
}

/// Store the CRC of an encoded frame whose header [0, 44) and payload are
/// already in place.
void seal_frame(char* frame, std::size_t payload_len) {
  std::uint32_t crc = crc32(frame, 44);
  crc = crc32(frame + kWalHeaderBytes, payload_len, crc);
  put_le<std::uint32_t>(frame + 44, crc);
}

}  // namespace

std::size_t parse_wal_frame(std::span<const char> bytes, WalFrame& f) {
  return parse_frame(bytes.data(), bytes.size(), 0, f);
}

WalMode wal_mode_from(std::string_view name) {
  if (name == "off") return WalMode::kOff;
  if (name == "async") return WalMode::kAsync;
  if (name == "fsync") return WalMode::kFsync;
  throw std::invalid_argument("wal mode must be off|async|fsync, got '" +
                              std::string(name) + "'");
}

const char* to_string(WalMode m) {
  switch (m) {
    case WalMode::kOff: return "off";
    case WalMode::kAsync: return "async";
    case WalMode::kFsync: return "fsync";
  }
  return "?";
}

std::vector<std::uint64_t> WalFrame::keys() const {
  std::vector<std::uint64_t> out(payload.size() / 8);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = get_le<std::uint64_t>(payload.data() + 8 * i);
  return out;
}

std::vector<char> frame_wal(const WalFrame& f) {
  std::vector<char> out(kWalHeaderBytes + f.payload.size());
  std::memcpy(out.data(), kWalMagic, 4);
  put_le<std::uint16_t>(out.data() + 4, kWalVersion);
  put_le<std::uint16_t>(out.data() + 6, f.kind);
  put_le<std::uint64_t>(out.data() + 8, f.seq);
  put_le<std::uint64_t>(out.data() + 16, f.start_offset);
  put_le<std::uint64_t>(out.data() + 24, f.client_id);
  put_le<std::uint64_t>(out.data() + 32, f.client_seq);
  put_le<std::uint32_t>(out.data() + 40,
                        static_cast<std::uint32_t>(f.payload.size()));
  if (!f.payload.empty())
    std::memcpy(out.data() + kWalHeaderBytes, f.payload.data(),
                f.payload.size());
  seal_frame(out.data(), f.payload.size());
  return out;
}

WalScan read_wal(const std::string& path) {
  WalScan scan;
  std::ifstream is(path, std::ios::binary);
  if (!is) return scan;  // no log yet — fresh start
  std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  if (!is.good() && !is.eof())
    throw WalError("wal: read error on " + path);

  std::size_t at = 0;
  std::uint64_t last_seq = 0;
  while (at < bytes.size()) {
    WalFrame f;
    const std::size_t sz = parse_frame(bytes.data(), bytes.size(), at, f);
    if (sz == 0) break;  // torn tail (or mid-log corruption): stop here
    // Frame seqs are strictly increasing; a regression means the bytes
    // are not a continuation of this log.
    if (f.seq <= last_seq) break;
    last_seq = f.seq;
    if (f.kind == kWalSeqTable) {
      for (std::size_t p = 0; p + 16 <= f.payload.size(); p += 16) {
        const auto id = get_le<std::uint64_t>(f.payload.data() + p);
        const auto hi = get_le<std::uint64_t>(f.payload.data() + p + 8);
        auto [it, inserted] = scan.client_seqs.try_emplace(id, hi);
        if (!inserted && it->second < hi) it->second = hi;
      }
      scan.end_offset = std::max(scan.end_offset, f.start_offset);
    } else {
      // Data frames must continue the accepted-item sequence.
      if (f.start_offset < scan.end_offset) break;
      scan.end_offset = f.end_offset();
      if (f.client_id != 0) {
        auto [it, inserted] =
            scan.client_seqs.try_emplace(f.client_id, f.client_seq);
        if (!inserted && it->second < f.client_seq) it->second = f.client_seq;
      }
      scan.frames.push_back(std::move(f));
    }
    at += sz;
  }
  scan.next_seq = last_seq + 1;
  scan.valid_bytes = at;
  scan.dropped_bytes = bytes.size() - at;
  if (scan.dropped_bytes > 0) torn_counter().inc();
  return scan;
}

ShardWal::ShardWal(std::string path, Options opt, const WalScan& scan)
    : path_(std::move(path)), opt_(std::move(opt)) {
  seqs_.restore(scan.client_seqs);
  next_seq_ = scan.next_seq;
  end_offset_ = scan.end_offset;
  file_bytes_ = scan.valid_bytes;
  if (scan.dropped_bytes > 0) {
    // Cut the torn tail before appending: the next frame must start at
    // the end of the valid prefix or the log stops being a frame stream.
    std::error_code ec;
    std::filesystem::resize_file(path_, scan.valid_bytes, ec);
    if (ec)
      throw WalError("wal: cannot truncate torn tail of " + path_ + ": " +
                     ec.message());
  }
  reopen_locked(file_bytes_);
}

ShardWal::~ShardWal() {
  if (file_ != nullptr) {
    try {
      flush();
    } catch (...) {
      // Destructor: durability failures here surface on the next resume
      // as a torn tail, which replay tolerates.
    }
    std::fclose(file_);
  }
}

void ShardWal::reopen_locked(std::uint64_t file_bytes) {
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) throw WalError("wal: cannot open " + path_);
  file_bytes_ = file_bytes;
  disk_bytes_ = file_bytes;
  unsynced_bytes_ = 0;
}

void ShardWal::repair_locked() {
  // A failed append left bytes past the last accepted frame (torn-write
  // injection, or a frame whose mode-required fsync failed).  Cut them so
  // the log stays exactly "the accepted items, once each" — otherwise a
  // client retry would land *behind* stale bytes and replay would double
  // count.  (A real crash skips this, but then recovery's scan does the
  // same truncation before the process ever appends again.)
  std::fclose(file_);
  file_ = nullptr;
  std::error_code ec;
  std::filesystem::resize_file(path_, file_bytes_, ec);
  if (ec)
    throw WalError("wal: cannot truncate failed-append tail of " + path_ +
                   ": " + ec.message());
  reopen_locked(file_bytes_);
}

bool ShardWal::append(std::span<const std::uint64_t> keys,
                      std::uint64_t client_id, std::uint64_t client_seq) {
  std::lock_guard<std::mutex> lk(mu_);
  // Peek, don't record yet: the seq mark must only advance once the frame
  // is as durable as the mode promises, or a retry after a failed append
  // would be treated as a duplicate and the batch silently lost.
  if (client_id != 0 && client_seq <= seqs_.high(client_id)) return false;
  if (disk_bytes_ != file_bytes_) repair_locked();
  if (opt_.hooks.fail_errno) {
    if (const int err = opt_.hooks.fail_errno(next_seq_); err != 0)
      throw DiskFault("wal: injected disk fault on " + path_ + ": " +
                          std::strerror(err),
                      err);
  }

  WalFrame f;
  f.kind = kWalData;
  f.seq = next_seq_;
  f.start_offset = end_offset_;
  f.client_id = client_id;
  f.client_seq = client_seq;
  f.payload.resize(keys.size() * 8);
  for (std::size_t i = 0; i < keys.size(); ++i)
    put_le<std::uint64_t>(f.payload.data() + 8 * i, keys[i]);
  const std::vector<char> bytes = frame_wal(f);

  // Real write/flush failures: an unknown number of bytes may have
  // reached the file, so force a repair before the next append, and
  // surface a disk-unhealthy errno as the typed DiskFault.
  const auto fail_write = [this](const std::string& what) -> void {
    const int err = errno;
    disk_bytes_ = file_bytes_ + 1;  // unknown tail: repair before reuse
    const std::string msg =
        "wal: " + what + " " + path_ +
        (err != 0 ? std::string(": ") + std::strerror(err) : std::string());
    if (is_disk_fault_errno(err)) throw DiskFault(msg, err);
    throw WalError(msg);
  };
  std::size_t to_write = bytes.size();
  if (opt_.hooks.torn) to_write = std::min(to_write, opt_.hooks.torn(f.seq, bytes.size()));
  const bool torn = to_write < bytes.size();
  errno = 0;
  if (to_write > 0 &&
      std::fwrite(bytes.data(), 1, to_write, file_) != to_write)
    fail_write("short write to");
  if (std::fflush(file_) != 0) fail_write("flush failed on");
  if (torn) {
    // Injected crash mid-write: the prefix is on disk, the append fails.
    // The caller drops the batch unacked; the next append (or recovery
    // scan) truncates the tail and the client's replay re-delivers.
    disk_bytes_ = file_bytes_ + to_write;
    throw WalError("wal: injected torn write on " + path_ + " (frame " +
                   std::to_string(f.seq) + ", " + std::to_string(to_write) +
                   " of " + std::to_string(bytes.size()) + " bytes)");
  }

  if (opt_.mode == WalMode::kFsync) {
    const std::size_t pending = unsynced_bytes_ + bytes.size();
    if (pending > opt_.fsync_interval_bytes) {
      bool ok = true;
      int err = 0;
      if (opt_.hooks.fail_fsync && opt_.hooks.fail_fsync(f.seq)) {
        ok = false;
      }
#if defined(__unix__) || defined(__APPLE__)
      else {
        ok = ::fsync(fileno(file_)) == 0;
        if (!ok) err = errno;
      }
#endif
      if (!ok) {
        // The frame is written but its durability is unknown: cut it so
        // the retry re-appends cleanly instead of duplicating the keys.
        disk_bytes_ = file_bytes_ + bytes.size();
        repair_locked();
        const std::string msg = "wal: fsync failed on " + path_ +
                                " — batch durability unknown, not acking";
        if (is_disk_fault_errno(err)) throw DiskFault(msg, err);
        throw WalError(msg);
      }
      unsynced_bytes_ = 0;
    } else {
      unsynced_bytes_ = pending;
    }
  }
  file_bytes_ += bytes.size();
  disk_bytes_ = file_bytes_;
  next_seq_ = f.seq + 1;
  end_offset_ = f.end_offset();
  seqs_.record(client_id, client_seq);
  if (opt_.observer)
    opt_.observer(f, std::span<const char>(bytes.data(), bytes.size()));
  return true;
}

void ShardWal::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  if (file_ == nullptr) return;
  if (std::fflush(file_) != 0)
    throw WalError("wal: flush failed on " + path_);
#if defined(__unix__) || defined(__APPLE__)
  if (opt_.mode == WalMode::kFsync && unsynced_bytes_ > 0) {
    if (::fsync(fileno(file_)) != 0)
      throw WalError("wal: fsync failed on " + path_);
    unsynced_bytes_ = 0;
  }
#endif
}

void ShardWal::compact(std::uint64_t low_water) {
  std::lock_guard<std::mutex> lk(mu_);
  if (low_water <= base_offset_) return;
  // A rewrite costs a full-file pass; only pay it when everything can be
  // retired (the common steady state: checkpoint caught up with accepted)
  // or the backlog file has grown past the configured bound.
  const bool retire_all = low_water >= end_offset_;
  if (!retire_all && file_bytes_ < opt_.compact_min_bytes) return;

  if (std::fflush(file_) != 0)
    throw WalError("wal: flush failed on " + path_);

  // Rewrite into a tmp file, make the replacement as durable as the mode
  // promises, then rename over the log.  The pre-compaction file is only
  // replaced by the rename itself: any failure before that point keeps
  // the (longer, still valid) old log.
  //
  // The old log streams through one reused frame buffer under read_wal's
  // validity rules (stop at the first invalid frame, seq regression or
  // offset rewind), and each survivor is renumbered and written as it is
  // read, so the append lock never holds more than one frame in memory.
  const std::string tmp = path_ + ".tmp";
  std::uint64_t seq = 1;           // next frame number of the new log
  std::uint64_t written = 0;       // bytes of the new log
  std::uint64_t base = std::min(low_water, end_offset_);
  std::uint64_t new_end = base;    // items covered by the new log
  {
    std::FILE* out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr) throw WalError("wal: cannot open " + tmp);
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> in(
        std::fopen(path_.c_str(), "rb"), &std::fclose);
    const auto fail = [&out, &tmp](const std::string& msg) {
      std::fclose(out);
      std::error_code rm;
      std::filesystem::remove(tmp, rm);
      throw WalError(msg);
    };
    const auto put = [&](const char* bytes, std::size_t n) {
      if (std::fwrite(bytes, 1, n, out) != n)
        fail("wal: short write to " + tmp);
      written += n;
    };
    // The seq-table frame anchors the log's offset base and goes first.  A
    // surviving frame can straddle the low-water mark (it holds items both
    // below and above it); the anchor must not pass that frame's start or
    // the next scan's continuity check would reject it as a rewind.  Data
    // offsets never decrease, so the first survivor has the lowest start.
    bool anchored = false;
    const auto put_table = [&](std::uint64_t first_start) {
      base = std::min(base, first_start);
      new_end = base;
      WalFrame table;
      table.kind = kWalSeqTable;
      table.seq = seq++;
      table.start_offset = base;
      const auto snap = seqs_.snapshot();
      table.payload.resize(snap.size() * 16);
      std::size_t p = 0;
      for (const auto& [id, hi] : snap) {
        put_le<std::uint64_t>(table.payload.data() + p, id);
        put_le<std::uint64_t>(table.payload.data() + p + 8, hi);
        p += 16;
      }
      const std::vector<char> bytes = frame_wal(table);
      put(bytes.data(), bytes.size());
      anchored = true;
    };

    std::error_code size_ec;
    const std::uint64_t log_bytes =
        in ? std::filesystem::file_size(path_, size_ec) : 0;
    if (!in || size_ec) fail("wal: cannot read " + path_);
    std::uint64_t at = 0;        // bytes of the old log accepted so far
    std::uint64_t last_seq = 0;  // read_wal's continuity state
    std::uint64_t scan_end = 0;
    std::vector<char> buf(kWalHeaderBytes);
    WalFrame f;
    while (log_bytes - at >= kWalHeaderBytes) {
      if (std::fread(buf.data(), 1, kWalHeaderBytes, in.get()) !=
          kWalHeaderBytes)
        break;
      // Bound the read by the file before trusting a (possibly torn)
      // length field; check_frame applies every other rule.
      const auto payload_len = get_le<std::uint32_t>(buf.data() + 40);
      if (payload_len > log_bytes - at - kWalHeaderBytes) break;
      buf.resize(kWalHeaderBytes + payload_len);
      if (std::fread(buf.data() + kWalHeaderBytes, 1, payload_len, in.get()) !=
          payload_len)
        break;
      if (check_frame(buf.data(), buf.size(), 0, f) == 0) break;
      if (f.seq <= last_seq) break;
      if (f.kind == kWalData && f.start_offset < scan_end) break;  // rewind
      last_seq = f.seq;
      at += buf.size();
      if (f.kind == kWalSeqTable) {
        scan_end = std::max(scan_end, f.start_offset);
        continue;
      }
      scan_end = f.start_offset + payload_len / 8;
      if (scan_end <= low_water) continue;  // fully checkpointed
      if (!anchored) put_table(f.start_offset);
      put_le<std::uint64_t>(buf.data() + 8, seq++);
      seal_frame(buf.data(), payload_len);
      put(buf.data(), buf.size());
      new_end = scan_end;
    }
    if (std::ferror(in.get())) fail("wal: read error on " + path_);
    if (at < log_bytes) torn_counter().inc();  // as read_wal counts a tail
    if (!anchored) put_table(base);
    if (std::fflush(out) != 0) fail("wal: flush failed on " + tmp);
#if defined(__unix__) || defined(__APPLE__)
    // In kFsync mode the surviving frames were already made durable in
    // the old log; the replacement must be durable *before* it takes the
    // log's name, or a power loss shortly after the rename could surface
    // an empty or partial rewrite where fsync'd frames used to be.
    if (opt_.mode == WalMode::kFsync && ::fsync(fileno(out)) != 0)
      fail("wal: fsync failed on " + tmp);
#endif
    if (std::fclose(out) != 0) {
      std::error_code rm;
      std::filesystem::remove(tmp, rm);
      throw WalError("wal: close failed on " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw WalError("wal: cannot rename " + tmp + " to " + path_);
  }
#if defined(__unix__) || defined(__APPLE__)
  if (opt_.mode == WalMode::kFsync) {
    // Persist the rename.  Best-effort: if the directory update is lost
    // to a power cut, the pre-compaction file reappears whole — longer,
    // but a valid log covering the same accepted suffix.
    const std::filesystem::path dir =
        std::filesystem::path(path_).parent_path();
    const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
    if (dfd >= 0) {
      (void)::fsync(dfd);
      ::close(dfd);
    }
  }
#endif
  base_offset_ = base;
  next_seq_ = seq;
  end_offset_ = std::max(end_offset_, new_end);
  reopen_locked(written);
}

}  // namespace she
