#include "common/wal.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/crc32.hpp"
#include "common/fault_injection.hpp"
#include "obs/metrics.hpp"

namespace she {

// Appends write the caller's keys as they lie, and the scan hands them out.
static_assert(std::endian::native == std::endian::little,
              "a WAL data payload is its keys' u64 LE bytes");

namespace {

obs::Counter& torn_counter() {
  return obs::default_registry().counter(
      "she_wal_torn_tail_total",
      "WAL tails truncated as torn or corrupt during recovery scans");
}

/// Encode the header of the frame `f` whose payload is `head` followed by
/// `tail` (f.payload is not read) into h[0, kWalHeaderBytes), its CRC
/// chained over both runs.
void encode_header(char* h, const WalFrame& f, std::span<const char> head,
                   std::span<const char> tail = {}) {
  std::memcpy(h, kWalMagic, 4);
  put_le<std::uint16_t>(h + 4, kWalVersion);
  put_le<std::uint16_t>(h + 6, f.kind);
  put_le<std::uint64_t>(h + 8, f.seq);
  put_le<std::uint64_t>(h + 16, f.start_offset);
  put_le<std::uint64_t>(h + 24, f.client_id);
  put_le<std::uint64_t>(h + 32, f.client_seq);
  put_le<std::uint32_t>(h + 40,
                        static_cast<std::uint32_t>(head.size() + tail.size()));
  put_le<std::uint32_t>(
      h + 44, crc32(tail.data(), tail.size(),
                    crc32(head.data(), head.size(), crc32(h, 44))));
}

/// Open a segment for appending; -1 with errno set on failure.
int open_segment(const std::string& file, int flags) {
  return ::open(file.c_str(), flags | O_WRONLY | O_APPEND | O_CLOEXEC, 0666);
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

/// The segments of the log named `path` in log order: by name (= by
/// first seq).
std::vector<std::string> log_files(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path p(path);
  const std::string base = p.filename().string();
  const std::string log = wal_log_name(segment_path(base, 0));
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(p.has_parent_path() ? p.parent_path() : ".", ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name != log && wal_log_name(name) == log)
      out.push_back(path.substr(0, path.size() - base.size()) + name);
  }
  std::sort(out.begin(), out.end());
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

std::string wal_log_name(const std::string& file) {
  if (!file.ends_with(".wal") || file.size() < 4 + kSeqDigits + 1) return file;
  const std::size_t end = file.size() - 4;
  const std::size_t dot = end - kSeqDigits - 1;
  if (file[dot] != '.' ||
      file.find_first_not_of("0123456789", dot + 1) != end)
    return file;
  return file.substr(0, dot) + ".wal";
}

std::size_t parse_wal_frame(std::span<const char> bytes, WalFrame& f) {
  if (bytes.size() < kWalHeaderBytes) return 0;
  const char* h = bytes.data();
  if (std::memcmp(h, kWalMagic, 4) != 0) return 0;
  if (get_le<std::uint16_t>(h + 4) != kWalVersion) return 0;
  const auto kind = get_le<std::uint16_t>(h + 6);
  if (kind != kWalData && kind != kWalSeqTable) return 0;
  const auto payload_len = get_le<std::uint32_t>(h + 40);
  if (payload_len > kMaxWalPayload) return 0;
  if (bytes.size() - kWalHeaderBytes < payload_len) return 0;
  const std::span<const char> payload =
      bytes.subspan(kWalHeaderBytes, payload_len);
  if (crc32(payload.data(), payload_len, crc32(h, 44)) !=
      get_le<std::uint32_t>(h + 44))
    return 0;
  if (payload_len % 16 != 0 && kind == kWalSeqTable) return 0;
  if (payload_len % 8 != 0 && kind == kWalData) return 0;
  f.kind = kind;
  f.seq = get_le<std::uint64_t>(h + 8);
  f.start_offset = get_le<std::uint64_t>(h + 16);
  f.client_id = get_le<std::uint64_t>(h + 24);
  f.client_seq = get_le<std::uint64_t>(h + 32);
  f.payload = payload;
  return kWalHeaderBytes + payload_len;
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

std::vector<char> frame_wal(const WalFrame& f) {
  std::vector<char> out(kWalHeaderBytes + f.payload.size());
  std::copy(f.payload.begin(), f.payload.end(), out.begin() + kWalHeaderBytes);
  encode_header(out.data(), f, f.payload);
  return out;
}

WalScan read_wal(const std::string& path, const WalVisitor& visit) {
  // A file at the log's own name is no segment; reading past it would
  // skip whatever acked items it holds.
  std::error_code ec;
  if (std::filesystem::exists(path, ec))
    throw WalError("wal: " + path +
                   " sits at the log's own name and is not a segment; move "
                   "it away to resume");
  WalScan scan;
  const auto note_seq = [&scan](std::uint64_t id, std::uint64_t seq) {
    std::uint64_t& high = scan.client_seqs[id];
    high = std::max(high, seq);
  };
  std::vector<std::uint64_t> words;  // one segment; frames are word-aligned
  std::uint64_t last_seq = 0;
  bool stopped = false;  // an invalid frame ended the log
  bool more = true;      // the visitor wants more frames
  for (const std::string& file : log_files(path)) {
    if (stopped) {  // behind the end of the log: all of it is dropped
      std::error_code ec;
      const std::uintmax_t size = std::filesystem::file_size(file, ec);
      scan.dropped_bytes += ec ? 0 : size;
      continue;
    }
    const std::optional<std::size_t> read = read_file(file, words);
    if (!read)
      throw WalError("wal: cannot read " + file + ": " + std::strerror(errno));
    const std::span<const char> bytes(
        reinterpret_cast<const char*>(words.data()), *read);

    std::size_t at = 0;
    while (at < bytes.size() && more) {
      WalFrame f;
      const std::size_t sz = parse_wal_frame(bytes.subspan(at), f);
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
        const auto keys = std::span<const std::uint64_t>(words).subspan(
            (at + kWalHeaderBytes) / 8, f.payload.size() / 8);
        if (visit) more = visit(f, keys);
      }
      at += sz;
    }
    // An empty or torn-headed segment (a crash mid-rotation) carries
    // nothing and ends the log like any other invalid frame.
    if (at > 0) scan.segments.push_back({file, scan.end_offset, at});
    scan.valid_bytes += at;
    if (!more) break;
    scan.dropped_bytes += bytes.size() - at;
    stopped = at == 0 || at < bytes.size();
  }
  scan.next_seq = last_seq + 1;
  if (more && scan.dropped_bytes > 0) torn_counter().inc();
  return scan;
}

ShardWal::ShardWal(std::string path, Options opt, const WalScan& scan)
    : path_(std::move(path)), opt_(std::move(opt)), sealed_(scan.segments) {
  seqs_.restore(scan.client_seqs);
  next_seq_ = scan.next_seq;
  end_offset_ = scan.end_offset;
  // Delete what the scan did not keep before appending: segments behind
  // the first invalid frame, an empty or torn-headed segment a crash left
  // mid-rotation, or — for an empty scan — an earlier life's whole log,
  // including a file at the log's own name.
  for (const std::string& file : log_files(path_))
    if (std::none_of(sealed_.begin(), sealed_.end(),
                     [&](const WalSegment& s) { return s.path == file; }))
      remove_log_file(file);
  remove_log_file(path_);
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
  if (fd_ >= 0) {
    try {
      flush();
    } catch (...) {
      // Destructor: durability failures here surface on the next resume
      // as a torn tail, which replay tolerates.
    }
    ::close(fd_);
  }
}

void ShardWal::repair_locked() {
  // Reopen the active segment for appending, first cutting any bytes past
  // the last accepted frame: a torn tail found at open, or one a failed
  // append left (torn-write injection, or a frame whose mode-required
  // fsync failed).  Otherwise a client retry would land *behind* stale
  // bytes and replay would double count.
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  std::error_code ec;
  if (disk_bytes_ != file_bytes_)
    std::filesystem::resize_file(active_, file_bytes_, ec);
  if (ec)
    throw WalError("wal: cannot truncate the tail of " + active_ + ": " +
                   ec.message());
  fd_ = open_segment(active_, O_CREAT);
  if (fd_ < 0) throw WalError("wal: cannot open " + active_);
  durable_op(DurableOp::kCreate, active_);
  disk_bytes_ = file_bytes_;
  unsynced_bytes_ = 0;
}

int ShardWal::sync_locked() {
  if (::fsync(fd_) != 0) return errno != 0 ? errno : EIO;
  durable_op(DurableOp::kSync, active_);
  // A new segment's name is durable only once its directory is synced:
  // done with the segment's first fsync, before any frame in it counts as
  // durable.
  if (!named_) {
    if (const int err = sync_parent_dir(active_)) return err;
    named_ = true;
  }
  unsynced_bytes_ = 0;
  return 0;
}

void ShardWal::rotate_locked() {
  // Seal: group commit may still hold unsynced frames in the active
  // segment, and later fsyncs cover only the new one.
  if (fd_ >= 0 && opt_.mode == WalMode::kFsync && unsynced_bytes_ > 0)
    if (const int err = sync_locked()) throw_io("fsync failed on", active_, err);
  // The new segment opens with the whole idempotence table, anchored at
  // its base offset, so it is a self-contained log.  Only a fresh log's
  // first segment, whose table would be empty at offset 0, starts
  // straight with data.
  std::vector<char> pairs;
  BinaryWriter w(pairs);
  for (const auto& [id, hi] : seqs_.snapshot()) {
    w.u64(id);
    w.u64(hi);
  }
  WalFrame table;
  table.kind = kWalSeqTable;
  table.seq = next_seq_;
  table.start_offset = end_offset_;
  table.payload = pairs;
  const bool headed = end_offset_ > 0 || !table.payload.empty();
  std::vector<char> bytes = headed ? frame_wal(table) : std::vector<char>{};
  const std::string next = segment_path(path_, table.seq);
  errno = 0;
  const int fd = open_segment(next, O_CREAT | O_TRUNC);
  if (fd < 0) throw_io("cannot create", next, errno);
  durable_op(DurableOp::kCreate, next);
  if (headed) {
    iovec iov{bytes.data(), bytes.size()};
    if (!write_all(fd, &iov, 1)) {
      // Drop the half-started segment; the old one stays active.
      const int err = errno;
      ::close(fd);
      std::error_code ec;
      std::filesystem::remove(next, ec);
      throw_io("cannot start segment", next, err);
    }
    durable_op(DurableOp::kWrite, next, bytes.size());
  }
  if (fd_ >= 0) {
    ::close(fd_);
    sealed_.push_back({active_, end_offset_, file_bytes_});
  }
  fd_ = fd;
  active_ = next;
  named_ = false;
  next_seq_ = table.seq + (headed ? 1 : 0);
  file_bytes_ = disk_bytes_ = bytes.size();
  unsynced_bytes_ = bytes.size();  // the table rides the first fsync
}

bool ShardWal::append(std::span<const std::uint64_t> head,
                      std::span<const std::uint64_t> tail,
                      std::uint64_t client_id, std::uint64_t client_seq) {
  const std::size_t nkeys = head.size() + tail.size();
  // The recovery scan would cut such a frame, and every frame behind it,
  // as a torn tail: refuse it before anything is written or acked.
  if (nkeys > kMaxWalKeys)
    throw WalError("wal: a frame of " + std::to_string(nkeys) +
                   " keys exceeds the " + std::to_string(kMaxWalKeys) +
                   "-key bound on one append");
  const auto bytes_of = [](std::span<const std::uint64_t> keys) {
    return std::span<const char>(reinterpret_cast<const char*>(keys.data()),
                                 keys.size() * 8);
  };
  const std::span<const char> run1 = bytes_of(head);
  const std::span<const char> run2 = bytes_of(tail);
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
  char header[kWalHeaderBytes];
  encode_header(header, f, run1, run2);
  const std::size_t frame_bytes = kWalHeaderBytes + nkeys * 8;

  // One writev: the header, then the payload's one or two runs, cut short
  // when the fault harness injects a torn write.
  const std::size_t to_write =
      fault::maybe_torn_wal(opt_.shard, f.seq, frame_bytes, kWalHeaderBytes);
  iovec iov[3];
  int parts = 0;
  std::size_t left = to_write;
  for (const std::span<const char> part :
       {std::span<const char>(header, kWalHeaderBytes), run1, run2}) {
    const std::size_t len = std::min(left, part.size());
    if (len == 0) continue;
    iov[parts++] = {const_cast<char*>(part.data()), len};
    left -= len;
  }
  errno = 0;
  if (!write_all(fd_, iov, parts)) {
    // An unknown number of bytes may have reached the file: repair before
    // the next append, and surface a disk-unhealthy errno as DiskFault.
    disk_bytes_ = file_bytes_ + 1;
    throw_io("write failed on", active_, errno);
  }
  durable_op(DurableOp::kWrite, active_, to_write);
  if (to_write < frame_bytes) {
    // Injected crash mid-write: the prefix is on disk, the append fails.
    // The caller drops the batch unacked; the next append (or recovery
    // scan) truncates the tail and the client's replay re-delivers.
    disk_bytes_ = file_bytes_ + to_write;
    throw WalError("wal: injected torn write on " + active_ + " (frame " +
                   std::to_string(f.seq) + ", " + std::to_string(to_write) +
                   " of " + std::to_string(frame_bytes) + " bytes)");
  }
  if (opt_.mode == WalMode::kFsync &&
      (unsynced_bytes_ += frame_bytes) > opt_.fsync_interval_bytes) {
    const bool injected = fault::maybe_fail_fsync(opt_.shard, f.seq);
    if (const int err = injected ? -1 : sync_locked()) {
      // The frame is written but its durability is unknown: cut it so
      // the retry re-appends cleanly instead of duplicating the keys.
      disk_bytes_ = file_bytes_ + frame_bytes;
      repair_locked();
      throw_io("fsync failed (batch durability unknown, not acking) on",
               active_, std::max(err, 0));
    }
  }
  file_bytes_ += frame_bytes;
  disk_bytes_ = file_bytes_;
  next_seq_ = f.seq + 1;
  end_offset_ = f.start_offset + nkeys;
  seqs_.record(client_id, client_seq);
  if (opt_.observer) opt_.observer(end_offset_, header, run1, run2);
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
  if (fd_ < 0) return;
  if (opt_.mode == WalMode::kFsync && unsynced_bytes_ > 0)
    if (const int err = sync_locked()) throw_io("fsync failed on", active_, err);
}

}  // namespace she
