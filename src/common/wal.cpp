#include "common/wal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/crc32.hpp"
#include "common/fault_injection.hpp"
#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace she {

namespace {

/// A frame claiming more payload than this is treated as tail garbage: no
/// real sub-batch approaches it (the wire protocol caps frames at 16 MiB)
/// and honoring a flipped length bit would try a huge allocation.
constexpr std::uint32_t kMaxWalPayload = 64u << 20;

obs::Counter& torn_counter() {
  return obs::default_registry().counter(
      "she_wal_torn_tail_total",
      "WAL tails truncated as torn or corrupt during recovery scans");
}

/// Validate and decode the frame starting at data[at]; returns its total
/// encoded size, or 0 when the bytes are not a valid frame (torn tail —
/// the scan stops there).
std::size_t parse_frame(const char* data, std::size_t n, std::size_t at,
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
  f.payload.assign(payload, payload + payload_len);
  return kWalHeaderBytes + payload_len;
}

constexpr std::size_t kSeqDigits = 20;  // zero-padded: name order = seq order

/// Segment `seq` of the log named `path`: "<dir>/shard-0.wal" ->
/// "<dir>/shard-0.<seq, 20 digits>.wal".
std::string segment_path(const std::string& path, std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof name, ".%0*llu.wal", static_cast<int>(kSeqDigits),
                static_cast<unsigned long long>(seq));
  return path.substr(0, path.size() - (path.ends_with(".wal") ? 4 : 0)) + name;
}

/// The files of the log named `path` in log order: the legacy single file
/// `path`, then its segments by name (= by first seq).
std::vector<std::string> log_files(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path p(path);
  // A segment's name is segment 0's with other digits at `at`.
  const std::string zero = segment_path(p.filename().string(), 0);
  const std::size_t at = zero.size() - kSeqDigits - 4;
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(p.has_parent_path() ? p.parent_path() : ".", ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() != zero.size() || name.compare(0, at, zero, 0, at) != 0 ||
        name.find_first_not_of("0123456789", at) != at + kSeqDigits ||
        !name.ends_with(".wal"))
      continue;
    std::string file = segment_path(path, 0);
    file.replace(file.size() - kSeqDigits - 4, kSeqDigits, name, at, kSeqDigits);
    out.push_back(std::move(file));
  }
  std::sort(out.begin(), out.end());
  if (fs::is_regular_file(p, ec)) out.insert(out.begin(), path);
  return out;
}

void remove_log_file(const std::string& file) {
  std::error_code ec;
  if (std::filesystem::remove(file, ec)) durable_op(DurableOp::kUnlink, file);
  if (ec) throw WalError("wal: cannot remove " + file + ": " + ec.message());
}

/// A failed write, flush, fsync or create: DiskFault when the errno says
/// the disk is unhealthy, WalError otherwise.
[[noreturn]] void throw_io(const std::string& what, const std::string& file,
                           int err) {
  const std::string msg =
      "wal: " + what + " " + file +
      (err != 0 ? std::string(": ") + std::strerror(err) : std::string());
  if (is_disk_fault_errno(err)) throw DiskFault(msg, err);
  throw WalError(msg);
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
  std::uint32_t crc = crc32(out.data(), 44);
  crc = crc32(out.data() + kWalHeaderBytes, f.payload.size(), crc);
  put_le<std::uint32_t>(out.data() + 44, crc);
  return out;
}

WalScan read_wal(const std::string& path) {
  WalScan scan;
  const auto note_seq = [&scan](std::uint64_t id, std::uint64_t seq) {
    std::uint64_t& high = scan.client_seqs[id];
    high = std::max(high, seq);
  };
  std::uint64_t last_seq = 0;
  bool stopped = false;  // an invalid frame ended the log
  for (const std::string& file : log_files(path)) {
    if (stopped) {  // behind the end of the log: all of it is dropped
      std::error_code ec;
      const std::uintmax_t size = std::filesystem::file_size(file, ec);
      scan.dropped_bytes += ec ? 0 : size;
      continue;
    }
    std::ifstream is(file, std::ios::binary);
    if (!is) throw WalError("wal: cannot open " + file);
    std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    if (!is.good() && !is.eof())
      throw WalError("wal: read error on " + file);

    std::size_t at = 0;
    while (at < bytes.size()) {
      WalFrame f;
      const std::size_t sz = parse_frame(bytes.data(), bytes.size(), at, f);
      if (sz == 0) break;  // torn tail (or mid-log corruption): stop here
      // Frame seqs are strictly increasing; a regression means the bytes
      // are not a continuation of this log.
      if (f.seq <= last_seq) break;
      last_seq = f.seq;
      if (f.kind == kWalSeqTable) {
        for (std::size_t p = 0; p + 16 <= f.payload.size(); p += 16)
          note_seq(get_le<std::uint64_t>(f.payload.data() + p),
                   get_le<std::uint64_t>(f.payload.data() + p + 8));
        scan.end_offset = std::max(scan.end_offset, f.start_offset);
      } else {
        // Data frames must continue the accepted-item sequence.
        if (f.start_offset < scan.end_offset) break;
        scan.end_offset = f.end_offset();
        if (f.client_id != 0) note_seq(f.client_id, f.client_seq);
        scan.frames.push_back(std::move(f));
      }
      at += sz;
    }
    // An empty or torn-headed segment (a crash mid-rotation) carries
    // nothing and ends the log like any other invalid frame.
    if (at > 0) scan.segments.push_back({file, scan.end_offset, at});
    scan.valid_bytes += at;
    scan.dropped_bytes += bytes.size() - at;
    stopped = at == 0 || at < bytes.size();
  }
  scan.next_seq = last_seq + 1;
  if (scan.dropped_bytes > 0) torn_counter().inc();
  return scan;
}

ShardWal::ShardWal(std::string path, Options opt, const WalScan& scan)
    : path_(std::move(path)), opt_(std::move(opt)), sealed_(scan.segments) {
  seqs_.restore(scan.client_seqs);
  next_seq_ = scan.next_seq;
  end_offset_ = scan.end_offset;
  // Delete what the scan did not keep before appending: segments behind
  // the first invalid frame, an empty or torn-headed segment a crash left
  // mid-rotation, or — for an empty scan — an earlier life's whole log.
  for (const std::string& file : log_files(path_))
    if (std::none_of(sealed_.begin(), sealed_.end(),
                     [&](const WalSegment& s) { return s.path == file; }))
      remove_log_file(file);
  if (sealed_.empty()) {
    rotate_locked();
  } else {
    // Continue the last segment with its torn tail cut: the next frame
    // must start at the end of the valid prefix or the log stops being a
    // frame stream.
    active_ = sealed_.back().path;
    file_bytes_ = sealed_.back().bytes;
    disk_bytes_ = file_bytes_ + (scan.dropped_bytes > 0 ? 1 : 0);
    sealed_.pop_back();
    repair_locked();
  }
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

void ShardWal::repair_locked() {
  // Reopen the active segment for appending, first cutting any bytes past
  // the last accepted frame: a torn tail found at open, or one a failed
  // append left (torn-write injection, or a frame whose mode-required
  // fsync failed).  Otherwise a client retry would land *behind* stale
  // bytes and replay would double count.
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
  std::error_code ec;
  if (disk_bytes_ != file_bytes_)
    std::filesystem::resize_file(active_, file_bytes_, ec);
  if (ec)
    throw WalError("wal: cannot truncate the tail of " + active_ + ": " +
                   ec.message());
  file_ = std::fopen(active_.c_str(), "ab");
  if (file_ == nullptr) throw WalError("wal: cannot open " + active_);
  durable_op(DurableOp::kCreate, active_);
  disk_bytes_ = file_bytes_;
  unsynced_bytes_ = 0;
}

int ShardWal::sync_locked() {
#if defined(__unix__) || defined(__APPLE__)
  if (::fsync(fileno(file_)) != 0) return errno != 0 ? errno : EIO;
  durable_op(DurableOp::kSync, active_);
  // A new segment's name is durable only once its directory is synced:
  // done with the segment's first fsync, before any frame in it counts as
  // durable.
  if (!named_) {
    if (const int err = sync_parent_dir(active_)) return err;
    named_ = true;
  }
#endif
  unsynced_bytes_ = 0;
  return 0;
}

void ShardWal::rotate_locked() {
  // Seal: group commit may still hold unsynced frames in the active
  // segment, and later fsyncs cover only the new one.
  if (file_ != nullptr && opt_.mode == WalMode::kFsync && unsynced_bytes_ > 0)
    if (const int err = sync_locked()) throw_io("fsync failed on", active_, err);
  // The new segment opens with the whole idempotence table, anchored at
  // its base offset, so it is a self-contained log.  Only a fresh log's
  // first segment, whose table would be empty at offset 0, starts
  // straight with data.
  WalFrame table;
  table.kind = kWalSeqTable;
  table.seq = next_seq_;
  table.start_offset = end_offset_;
  for (const auto& [id, hi] : seqs_.snapshot())
    for (const std::uint64_t v : {id, hi}) {
      table.payload.resize(table.payload.size() + 8);
      put_le<std::uint64_t>(table.payload.data() + table.payload.size() - 8, v);
    }
  const bool headed = end_offset_ > 0 || !table.payload.empty();
  const std::vector<char> bytes = headed ? frame_wal(table) : std::vector<char>{};
  const std::string next = segment_path(path_, table.seq);
  errno = 0;
  std::FILE* f = std::fopen(next.c_str(), "wb");
  if (f == nullptr) throw_io("cannot create", next, errno);
  durable_op(DurableOp::kCreate, next);
  if (headed) {
    if (std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size() ||
        std::fflush(f) != 0) {
      // Drop the half-started segment; the old one stays active.
      const int err = errno;
      std::fclose(f);
      std::error_code ec;
      std::filesystem::remove(next, ec);
      throw_io("cannot start segment", next, err);
    }
    durable_op(DurableOp::kWrite, next, bytes.size());
  }
  if (file_ != nullptr) {
    std::fclose(file_);
    sealed_.push_back({active_, end_offset_, file_bytes_});
  }
  file_ = f;
  active_ = next;
  named_ = false;
  next_seq_ = table.seq + (headed ? 1 : 0);
  file_bytes_ = disk_bytes_ = bytes.size();
  unsynced_bytes_ = bytes.size();  // the table rides the first fsync
}

bool ShardWal::append(std::span<const std::uint64_t> keys,
                      std::uint64_t client_id, std::uint64_t client_seq) {
  std::lock_guard<std::mutex> lk(mu_);
  // Peek, don't record yet: the seq mark must only advance once the frame
  // is as durable as the mode promises, or a retry after a failed append
  // would be treated as a duplicate and the batch silently lost.
  if (client_id != 0 && client_seq <= seqs_.high(client_id)) return false;
  if (disk_bytes_ != file_bytes_) repair_locked();
  if (const int err = fault::maybe_disk_errno(opt_.shard, next_seq_))
    throw_io("injected disk fault on", active_, err);
  if (file_bytes_ >= opt_.segment_bytes) rotate_locked();

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
  const auto fail_write = [this](const char* what) {
    disk_bytes_ = file_bytes_ + 1;  // unknown tail: repair before reuse
    throw_io(what, active_, errno);
  };
  const std::size_t to_write =
      fault::maybe_torn_wal(opt_.shard, f.seq, bytes.size(), kWalHeaderBytes);
  errno = 0;
  if (to_write > 0 &&
      std::fwrite(bytes.data(), 1, to_write, file_) != to_write)
    fail_write("short write to");
  if (std::fflush(file_) != 0) fail_write("flush failed on");
  durable_op(DurableOp::kWrite, active_, to_write);
  if (to_write < bytes.size()) {
    // Injected crash mid-write: the prefix is on disk, the append fails.
    // The caller drops the batch unacked; the next append (or recovery
    // scan) truncates the tail and the client's replay re-delivers.
    disk_bytes_ = file_bytes_ + to_write;
    throw WalError("wal: injected torn write on " + active_ + " (frame " +
                   std::to_string(f.seq) + ", " + std::to_string(to_write) +
                   " of " + std::to_string(bytes.size()) + " bytes)");
  }
  if (opt_.mode == WalMode::kFsync &&
      (unsynced_bytes_ += bytes.size()) > opt_.fsync_interval_bytes) {
    const bool injected = fault::maybe_fail_fsync(opt_.shard, f.seq);
    if (const int err = injected ? -1 : sync_locked()) {
      // The frame is written but its durability is unknown: cut it so
      // the retry re-appends cleanly instead of duplicating the keys.
      disk_bytes_ = file_bytes_ + bytes.size();
      repair_locked();
      throw_io("fsync failed (batch durability unknown, not acking) on",
               active_, std::max(err, 0));
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

void ShardWal::retire(std::uint64_t low_water) {
  std::lock_guard<std::mutex> lk(mu_);
  while (!sealed_.empty() && sealed_.front().end_offset <= low_water) {
    remove_log_file(sealed_.front().path);
    sealed_.erase(sealed_.begin());
  }
}

void ShardWal::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  if (file_ == nullptr) return;
  if (std::fflush(file_) != 0) throw_io("flush failed on", active_, errno);
  if (opt_.mode == WalMode::kFsync && unsynced_bytes_ > 0)
    if (const int err = sync_locked()) throw_io("fsync failed on", active_, err);
}

}  // namespace she
