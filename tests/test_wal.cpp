// Write-ahead backlog log tests: frame codec, crash-shape recovery scans
// (torn tails, mid-log corruption, sequence regressions), the per-client
// idempotence table, the ShardWal append/dedup/rotate/retire/repair cycle
// over segment files, the bytes and the frame bound of the one-copy
// append (from one run of keys or two), a count of the heap allocations
// a steady-state append and a WAL-on push_bulk make (none, from a
// sub-batch's first push on), and the peak heap of a recovery scan (one
// segment's worth, however long the log).  The batched point queries
// share the allocation count here: a frequency or membership batch makes
// none.  So do checkpoint writes: a shard worker's checkpoint allocates
// its gather list, never the estimator's image.  A StreamMonitor copy (a
// published view) allocates as many blocks whatever its heavy-hitter
// table's size.
// This binary carries the ctest label `tsan` (see tests/CMakeLists.txt):
// producers for one shard serialize appends on the ShardWal mutex, and
// that surface must stay clean under ThreadSanitizer.
#include "common/wal.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <new>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "obs/metrics.hpp"
#include "runtime/ingest_pipeline.hpp"
#include "she/she.hpp"
#include <gtest/gtest.h>

// Heap allocations (and frees) made by threads that set `g_count_news`,
// the bytes they allocate and the live bytes they hold (malloc's usable
// size of each block); every other thread (pipeline workers, the test
// runner) allocates uncounted.
namespace {
thread_local bool g_count_news = false;
thread_local std::size_t g_news = 0;
thread_local std::size_t g_frees = 0;
thread_local std::ptrdiff_t g_live = 0;
thread_local std::ptrdiff_t g_peak = 0;
thread_local std::size_t g_new_bytes = 0;

void counted_free(void* p) noexcept {
  if (g_count_news && p != nullptr) {
    ++g_frees;
    g_live -= static_cast<std::ptrdiff_t>(malloc_usable_size(p));
  }
  std::free(p);
}

void* counted_new(std::size_t n, std::size_t align) {
  n = n == 0 ? 1 : n;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  if (g_count_news) {
    ++g_news;
    g_new_bytes += malloc_usable_size(p);
    g_live += static_cast<std::ptrdiff_t>(malloc_usable_size(p));
    g_peak = std::max(g_peak, g_live);
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_new(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace she {
namespace {

/// Heap allocations `body` makes on this thread.
template <class Body>
std::size_t news_during(Body&& body) {
  g_news = 0;
  g_frees = 0;
  g_count_news = true;
  body();
  g_count_news = false;
  return g_news;
}

/// Heap blocks `body` allocates on this thread and does not free.
template <class Body>
std::ptrdiff_t kept_during(Body&& body) {
  const std::size_t news = news_during(body);
  return static_cast<std::ptrdiff_t>(news) - static_cast<std::ptrdiff_t>(g_frees);
}

/// The most heap bytes `body` held at once on this thread, above what it
/// started with.
template <class Body>
std::size_t peak_heap_during(Body&& body) {
  g_live = 0;
  g_peak = 0;
  (void)news_during(body);
  return static_cast<std::size_t>(g_peak);
}

std::string temp_dir(const char* name) {
  auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::uint64_t torn_count() {
  return obs::default_registry()
      .counter("she_wal_torn_tail_total",
               "WAL tails truncated as torn or corrupt during recovery scans")
      .value();
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, std::span<const char> bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The first segment of the log `<dir>/shard-0.wal`: where a fresh log's
/// frames (seq 1 on) start.
std::string first_segment(const std::string& dir) {
  return dir + "/shard-0.00000000000000000001.wal";
}

/// A data frame carrying `keys`, which it borrows (a u64 array already is
/// the LE payload).
WalFrame data_frame(std::uint64_t seq, std::uint64_t start,
                    std::span<const std::uint64_t> keys,
                    std::uint64_t client_id = 0, std::uint64_t client_seq = 0) {
  WalFrame f;
  f.kind = kWalData;
  f.seq = seq;
  f.start_offset = start;
  f.client_id = client_id;
  f.client_seq = client_seq;
  f.payload = {reinterpret_cast<const char*>(keys.data()), keys.size() * 8};
  return f;
}

/// A data frame a scan visited, copied out for assertions.
struct Logged {
  std::uint64_t seq = 0;
  std::uint64_t start_offset = 0;
  std::vector<std::uint64_t> keys;
  [[nodiscard]] std::uint64_t end_offset() const {
    return start_offset + keys.size();
  }
};

/// A scan of a log plus every data frame it visited, in order.
struct Scan : WalScan {
  std::vector<Logged> frames;
};

Scan scan_log(const std::string& path) {
  Scan out;
  static_cast<WalScan&>(out) =
      read_wal(path, [&out](const WalFrame& f,
                            std::span<const std::uint64_t> keys) {
        out.frames.push_back(
            {f.seq, f.start_offset, {keys.begin(), keys.end()}});
        return true;
      });
  return out;
}

TEST(WalMode, NamesRoundTrip) {
  EXPECT_EQ(wal_mode_from("off"), WalMode::kOff);
  EXPECT_EQ(wal_mode_from("async"), WalMode::kAsync);
  EXPECT_EQ(wal_mode_from("fsync"), WalMode::kFsync);
  EXPECT_STREQ(to_string(WalMode::kAsync), "async");
  EXPECT_THROW((void)wal_mode_from("sync"), std::invalid_argument);
  EXPECT_THROW((void)wal_mode_from(""), std::invalid_argument);
}

TEST(WalFrame, CodecRoundTripThroughFile) {
  const std::string dir = temp_dir("wal_codec");
  const std::string path = dir + "/shard-0.wal";
  const std::uint64_t k1[] = {1, 2, 3};
  const std::uint64_t k2[] = {0xFFFFFFFFFFFFFFFFull, 42};
  const auto f1 = frame_wal(data_frame(1, 0, k1, 77, 9));
  const auto f2 = frame_wal(data_frame(2, 3, k2, 77, 10));
  std::vector<char> all(f1);
  all.insert(all.end(), f2.begin(), f2.end());
  write_file(first_segment(dir), all);

  const Scan scan = scan_log(path);
  ASSERT_EQ(scan.frames.size(), 2u);
  EXPECT_EQ(scan.frames[0].keys, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(scan.frames[1].keys,
            (std::vector<std::uint64_t>{0xFFFFFFFFFFFFFFFFull, 42}));
  EXPECT_EQ(scan.frames[0].start_offset, 0u);
  EXPECT_EQ(scan.frames[1].start_offset, 3u);
  EXPECT_EQ(scan.end_offset, 5u);
  EXPECT_EQ(scan.next_seq, 3u);
  EXPECT_EQ(scan.valid_bytes, all.size());
  EXPECT_EQ(scan.dropped_bytes, 0u);
  ASSERT_EQ(scan.client_seqs.count(77), 1u);
  EXPECT_EQ(scan.client_seqs.at(77), 10u);
  std::filesystem::remove_all(dir);
}

TEST(WalRead, MissingFileIsEmptyScan) {
  const Scan scan = scan_log("/nonexistent/definitely/not/here.wal");
  EXPECT_TRUE(scan.frames.empty());
  EXPECT_EQ(scan.next_seq, 1u);
  EXPECT_EQ(scan.end_offset, 0u);
}

TEST(WalRead, TornTailAtEveryTruncationLength) {
  const std::string dir = temp_dir("wal_torn");
  const std::string path = dir + "/shard-0.wal";
  const std::uint64_t k1[] = {10, 11};
  const std::uint64_t k2[] = {12, 13, 14};
  const auto f1 = frame_wal(data_frame(1, 0, k1));
  const auto f2 = frame_wal(data_frame(2, 2, k2));
  std::vector<char> all(f1);
  all.insert(all.end(), f2.begin(), f2.end());

  for (std::size_t n = 0; n < all.size(); n += 7) {
    write_file(first_segment(dir), std::span<const char>(all.data(), n));
    const std::uint64_t before = torn_count();
    const Scan scan = scan_log(path);
    // Whole frames before the cut survive; the torn tail is reported for
    // truncation and counted exactly when bytes were dropped.
    const std::size_t whole = n >= all.size() ? 2 : (n >= f1.size() ? 1 : 0);
    EXPECT_EQ(scan.frames.size(), whole) << "cut at " << n;
    EXPECT_EQ(scan.valid_bytes, whole == 1 ? f1.size() : 0u) << "cut at " << n;
    EXPECT_EQ(scan.dropped_bytes, n - scan.valid_bytes) << "cut at " << n;
    EXPECT_EQ(torn_count(), before + (scan.dropped_bytes > 0 ? 1 : 0));
  }
  std::filesystem::remove_all(dir);
}

TEST(WalRead, MidLogCorruptionKeepsPrefix) {
  const std::string dir = temp_dir("wal_midcorrupt");
  const std::string path = dir + "/shard-0.wal";
  const std::uint64_t k1[] = {1};
  const std::uint64_t k2[] = {2};
  const auto f1 = frame_wal(data_frame(1, 0, k1));
  const auto f2 = frame_wal(data_frame(2, 1, k2));
  std::vector<char> all(f1);
  all.insert(all.end(), f2.begin(), f2.end());
  // One flipped bit anywhere in the second frame kills it and everything
  // behind it, but the first frame's prefix is kept.
  for (std::size_t pos : {std::size_t{0}, std::size_t{9}, f2.size() - 1}) {
    auto bad = all;
    bad[f1.size() + pos] = static_cast<char>(
        static_cast<unsigned char>(bad[f1.size() + pos]) ^ 0x40);
    write_file(first_segment(dir), bad);
    const Scan scan = scan_log(path);
    ASSERT_EQ(scan.frames.size(), 1u) << "flip at " << pos;
    EXPECT_EQ(scan.valid_bytes, f1.size());
    EXPECT_EQ(scan.dropped_bytes, f2.size());
  }
  std::filesystem::remove_all(dir);
}

TEST(WalRead, SeqRegressionAndOffsetGapStopTheScan) {
  const std::string dir = temp_dir("wal_seqreg");
  const std::string path = dir + "/shard-0.wal";
  const std::uint64_t k[] = {5};

  // Frame seq repeats: the second frame is not a continuation of this log
  // (e.g. bytes of an older generation left behind) and must be dropped.
  auto all = frame_wal(data_frame(3, 0, k));
  const auto dup = frame_wal(data_frame(3, 1, k));
  all.insert(all.end(), dup.begin(), dup.end());
  write_file(first_segment(dir), all);
  Scan scan = scan_log(path);
  EXPECT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.dropped_bytes, dup.size());

  // A data frame that rewinds the accepted-item offset is equally bogus.
  all = frame_wal(data_frame(1, 0, std::span<const std::uint64_t>(k, 1)));
  const auto rewind = frame_wal(data_frame(2, 0, k));
  all.insert(all.end(), rewind.begin(), rewind.end());
  write_file(first_segment(dir), all);
  scan = scan_log(path);
  EXPECT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.end_offset, 1u);
  std::filesystem::remove_all(dir);
}

TEST(WalRead, AVisitorThatStopsEndsTheScanAtItsFrame) {
  // A heal stops once it has what it needs: the scan then describes the
  // prefix up to that frame and counts no torn tail behind it.
  const std::string dir = temp_dir("wal_scan_stop");
  const std::string path = dir + "/shard-0.wal";
  const std::uint64_t k1[] = {1, 2};
  const std::uint64_t k2[] = {3};
  auto all = frame_wal(data_frame(1, 0, k1, 5, 1));
  const auto f2 = frame_wal(data_frame(2, 2, k2, 5, 2));
  all.insert(all.end(), f2.begin(), f2.end());
  all.insert(all.end(), {'t', 'o', 'r', 'n'});
  write_file(first_segment(dir), all);

  const std::uint64_t before = torn_count();
  std::size_t visits = 0;
  const WalScan stopped =
      read_wal(path, [&](const WalFrame& f, std::span<const std::uint64_t> ks) {
        ++visits;
        EXPECT_EQ(f.start_offset, 0u);
        EXPECT_EQ(std::vector<std::uint64_t>(ks.begin(), ks.end()),
                  (std::vector<std::uint64_t>{1, 2}));
        return false;
      });
  EXPECT_EQ(visits, 1u);
  EXPECT_EQ(stopped.end_offset, 2u);
  EXPECT_EQ(stopped.next_seq, 2u);
  EXPECT_EQ(stopped.valid_bytes, all.size() - f2.size() - 4);
  EXPECT_EQ(stopped.dropped_bytes, 0u);
  EXPECT_EQ(torn_count(), before);
  // The same log scanned to its end reports and counts the tail.
  const Scan whole = scan_log(path);
  EXPECT_EQ(whole.frames.size(), 2u);
  EXPECT_EQ(whole.dropped_bytes, 4u);
  EXPECT_EQ(torn_count(), before + 1);
  std::filesystem::remove_all(dir);
}

TEST(ClientSeqTable, RecordHighSnapshotRestore) {
  ClientSeqTable t;
  EXPECT_TRUE(t.record(7, 1));
  EXPECT_TRUE(t.record(7, 2));
  EXPECT_FALSE(t.record(7, 2));  // replay
  EXPECT_FALSE(t.record(7, 1));  // older replay
  EXPECT_TRUE(t.record(8, 10));
  EXPECT_TRUE(t.record(0, 5));  // id 0 = no identity, never deduplicated
  EXPECT_TRUE(t.record(0, 5));
  EXPECT_EQ(t.high(7), 2u);
  EXPECT_EQ(t.high(9), 0u);

  ClientSeqTable other;
  other.restore(t.snapshot());
  EXPECT_FALSE(other.record(7, 2));
  EXPECT_TRUE(other.record(7, 3));
  // restore() merges by max, never regresses.
  other.restore({{7, 1}});
  EXPECT_EQ(other.high(7), 3u);
}

TEST(ShardWal, AppendScanRoundTripAndDedup) {
  const std::string dir = temp_dir("wal_append");
  const std::string path = dir + "/shard-0.wal";
  const std::uint64_t b1[] = {1, 2, 3};
  const std::uint64_t b2[] = {4, 5};
  {
    ShardWal wal(path, {}, WalScan{});
    EXPECT_TRUE(wal.append(b1, 42, 1));
    EXPECT_TRUE(wal.append(b2, 42, 2));
    EXPECT_FALSE(wal.append(b2, 42, 2));  // lost-ack replay: skip, re-ack
    EXPECT_FALSE(wal.append(b1, 42, 1));
    EXPECT_TRUE(wal.append(b1, 0, 0));  // no identity: always accepted
  }
  const Scan scan = scan_log(path);
  ASSERT_EQ(scan.frames.size(), 3u);
  EXPECT_EQ(scan.end_offset, 8u);
  EXPECT_EQ(scan.frames[1].start_offset, 3u);
  EXPECT_EQ(scan.client_seqs.at(42), 2u);

  // Reopen from the scan: dedup state and offsets continue seamlessly.
  ShardWal wal(path, {}, scan);
  EXPECT_FALSE(wal.append(b2, 42, 2));
  EXPECT_TRUE(wal.append(b2, 42, 3));
  const Scan again = scan_log(path);
  ASSERT_EQ(again.frames.size(), 4u);
  EXPECT_EQ(again.frames[3].start_offset, 8u);
  EXPECT_EQ(again.end_offset, 10u);
  std::filesystem::remove_all(dir);
}

TEST(ShardWal, OpenTruncatesTornTail) {
  const std::string dir = temp_dir("wal_open_torn");
  const std::string path = dir + "/shard-0.wal";
  const std::uint64_t keys[] = {9, 8, 7};
  auto all = frame_wal(data_frame(1, 0, keys));
  const std::size_t whole = all.size();
  all.insert(all.end(), {'g', 'a', 'r', 'b', 'a', 'g', 'e'});
  write_file(first_segment(dir), all);

  const Scan scan = scan_log(path);
  EXPECT_EQ(scan.dropped_bytes, 7u);
  {
    ShardWal wal(path, {}, scan);
    const std::uint64_t more[] = {6};
    EXPECT_TRUE(wal.append(more, 0, 0));
  }
  // The garbage is gone and the appended frame sits right behind the
  // valid prefix: the whole file parses with nothing dropped.
  const Scan after = scan_log(path);
  EXPECT_EQ(after.dropped_bytes, 0u);
  ASSERT_EQ(after.frames.size(), 2u);
  EXPECT_EQ(after.frames[1].start_offset, 3u);
  EXPECT_GT(file_bytes(first_segment(dir)).size(), whole);
  std::filesystem::remove_all(dir);
}

/// The log's files in name (= log) order, as bare file names.
std::vector<std::string> log_names(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().extension() == ".wal") out.push_back(e.path().filename());
  std::sort(out.begin(), out.end());
  return out;
}

/// The first frame of a file (kind kWalData with seq 0 if none parses).
WalFrame head_frame(const std::string& path) {
  const auto bytes = file_bytes(path);
  WalFrame f;
  if (parse_wal_frame(bytes, f) == 0) f = WalFrame{};
  f.payload = {};  // it borrowed `bytes`
  return f;
}

/// Appends 3-key frames under client 11 (seqs 1..n) until the log spans
/// at least `segments` files; returns the frame count.
std::uint64_t fill_segments(ShardWal& wal, const std::string& dir,
                            std::size_t segments) {
  std::uint64_t n = 0;
  while (log_names(dir).size() < segments) {
    const std::uint64_t keys[] = {3 * n, 3 * n + 1, 3 * n + 2};
    EXPECT_TRUE(wal.append(keys, 11, n + 1));
    ++n;
  }
  return n;
}

ShardWal::Options small_segments() {
  ShardWal::Options opt;
  opt.segment_bytes = 256;  // a table frame plus two or three data frames
  return opt;
}

TEST(WalRead, PeakHeapFollowsTheLargestSegmentNotTheLog) {
  // The scan reads one segment at a time into one buffer and hands each
  // frame's keys out where they lie, so a long log costs no more memory
  // than its largest segment.
  const std::string dir = temp_dir("wal_scan_heap");
  const std::string path = dir + "/shard-0.wal";
  ShardWal::Options opt;
  opt.segment_bytes = 64 << 10;
  std::vector<std::uint64_t> keys(1000);
  std::uint64_t items = 0;
  {
    ShardWal wal(path, opt, WalScan{});
    while (log_names(dir).size() < 64) {
      for (std::uint64_t& k : keys) k = items++;
      ASSERT_TRUE(wal.append(keys, 0, 0));
    }
  }
  std::uintmax_t largest = 0;
  std::uintmax_t total = 0;
  for (const std::string& name : log_names(dir)) {
    const std::uintmax_t size = std::filesystem::file_size(dir + "/" + name);
    largest = std::max(largest, size);
    total += size;
  }
  ASSERT_GE(total, 32 * largest);
  EXPECT_LE(peak_heap_during([&] {
              const WalScan scan = read_wal(path);
              EXPECT_EQ(scan.end_offset, items);
            }),
            2 * largest)
      << "a " << total << "-byte log in segments of at most " << largest;
  std::uint64_t visited = 0;
  std::uint64_t sum = 0;
  EXPECT_LE(peak_heap_during([&] {
              (void)read_wal(path, [&](const WalFrame&,
                                       std::span<const std::uint64_t> ks) {
                visited += ks.size();
                for (const std::uint64_t k : ks) sum += k;
                return true;
              });
            }),
            2 * largest);
  EXPECT_EQ(visited, items);
  EXPECT_EQ(sum, items * (items - 1) / 2);
  std::filesystem::remove_all(dir);
}

TEST(ShardWal, RotatesAtSegmentBytesEachSegmentHeadedByItsTable) {
  const std::string dir = temp_dir("wal_rotate");
  const std::string path = dir + "/shard-0.wal";
  const ShardWal::Options opt = small_segments();
  std::uint64_t frames = 0;
  {
    ShardWal wal(path, opt, WalScan{});
    const std::uint64_t other[] = {99};
    ASSERT_TRUE(wal.append(other, 12, 5));
    frames = 1 + fill_segments(wal, dir, 4);
  }
  const Scan scan = scan_log(path);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  ASSERT_EQ(scan.frames.size(), frames);
  EXPECT_EQ(scan.end_offset, 1 + 3 * (frames - 1));
  const std::vector<std::string> names = log_names(dir);
  ASSERT_EQ(scan.segments.size(), names.size());
  std::uint64_t base = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    SCOPED_TRACE(names[i]);
    const std::string file = dir + "/" + names[i];
    EXPECT_EQ(scan.segments[i].path, file);
    // shard-0.<20-digit seq of its first frame>.wal
    ASSERT_EQ(names[i].size(), std::string("shard-0.").size() + 24);
    const WalFrame head = head_frame(file);
    // A fresh log's first segment would carry an empty table at offset 0,
    // so it starts with data; every later one opens with its table.
    EXPECT_EQ(head.kind, i == 0 ? kWalData : kWalSeqTable);
    EXPECT_EQ(head.seq, std::stoull(names[i].substr(8, 20)));
    EXPECT_EQ(head.start_offset, base);  // anchored at the segment's base
    if (i + 1 < names.size()) {  // sealed: rotated once it passed the bound
      EXPECT_GE(file_bytes(file).size(), opt.segment_bytes);
    }
    base = scan.segments[i].end_offset;
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardWal, RetireUnlinksOnlySealedSegmentsAtOrBelowTheLowWater) {
  const std::string dir = temp_dir("wal_retire");
  const std::string path = dir + "/shard-0.wal";
  ShardWal wal(path, small_segments(), WalScan{});
  (void)fill_segments(wal, dir, 4);
  const Scan scan = scan_log(path);
  const std::vector<std::string> names = log_names(dir);
  ASSERT_EQ(scan.segments.size(), 4u);
  const auto suffix = [&](std::size_t from) {
    return std::vector<std::string>(names.begin() + from, names.end());
  };

  // One item short of segment 0's end: nothing is wholly checkpointed.
  wal.retire(scan.segments[0].end_offset - 1);
  EXPECT_EQ(log_names(dir), names);
  // Exactly at its end: segment 0 goes, and only it.
  wal.retire(scan.segments[0].end_offset);
  EXPECT_EQ(log_names(dir), suffix(1));
  // Past segment 1 but inside segment 2: segment 1 goes, oldest first.
  wal.retire(scan.segments[1].end_offset + 1);
  EXPECT_EQ(log_names(dir), suffix(2));
  // Everything checkpointed: every sealed segment goes, never the active.
  wal.retire(scan.end_offset + 1000);
  EXPECT_EQ(log_names(dir), suffix(3));
  // Appends continue in the active segment at the same offset.
  const std::uint64_t more[] = {7};
  ASSERT_TRUE(wal.append(more, 0, 0));
  const Scan after = scan_log(path);
  ASSERT_FALSE(after.frames.empty());
  EXPECT_EQ(after.frames.back().start_offset, scan.end_offset);
  EXPECT_EQ(after.end_offset, scan.end_offset + 1);
  std::filesystem::remove_all(dir);
}

TEST(ShardWal, RetiredClientSeqIsStillRefusedAfterResume) {
  const std::string dir = temp_dir("wal_retire_dedup");
  const std::string path = dir + "/shard-0.wal";
  const std::uint64_t b1[] = {1, 2};
  const std::uint64_t b2[] = {3};
  {
    ShardWal wal(path, small_segments(), WalScan{});
    ASSERT_TRUE(wal.append(b1, 21, 1));  // lives only in segment 0
    (void)fill_segments(wal, dir, 3);
    wal.retire(read_wal(path).end_offset);
    ASSERT_EQ(log_names(dir).size(), 1u);
  }
  const Scan scan = scan_log(path);
  EXPECT_EQ(scan.client_seqs.at(21), 1u);  // via the active segment's table
  ShardWal wal(path, small_segments(), scan);
  EXPECT_FALSE(wal.append(b1, 21, 1));  // lost-ack replay: still refused
  EXPECT_TRUE(wal.append(b2, 21, 2));
  std::filesystem::remove_all(dir);
}

TEST(ShardWal, InvalidFrameInAMiddleSegmentTruncatesTheLogThere) {
  const std::string dir = temp_dir("wal_mid_segment");
  const std::string path = dir + "/shard-0.wal";
  {
    ShardWal wal(path, small_segments(), WalScan{});
    (void)fill_segments(wal, dir, 4);
  }
  const std::vector<std::string> names = log_names(dir);
  const Scan whole = scan_log(path);
  ASSERT_EQ(whole.segments.size(), 4u);

  // Flip the last byte of segment 1: its last frame fails its CRC, so the
  // log ends just before it and segments 2 and 3 are behind the end.
  const std::string mid = dir + "/" + names[1];
  auto bytes = file_bytes(mid);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);
  write_file(mid, bytes);
  const std::uint64_t torn_before = torn_count();
  const Scan scan = scan_log(path);
  EXPECT_EQ(torn_count(), torn_before + 1);
  ASSERT_EQ(scan.segments.size(), 2u);
  EXPECT_LT(scan.segments[1].bytes, bytes.size());
  EXPECT_EQ(scan.dropped_bytes,
            bytes.size() - scan.segments[1].bytes +
                file_bytes(dir + "/" + names[2]).size() +
                file_bytes(dir + "/" + names[3]).size());
  EXPECT_LT(scan.end_offset, whole.segments[1].end_offset);

  // Opening cuts segment 1 back to its valid prefix, deletes the later
  // segments, and appends continue right behind the prefix.
  {
    ShardWal wal(path, small_segments(), scan);
    EXPECT_EQ(log_names(dir),
              std::vector<std::string>(names.begin(), names.begin() + 2));
    const std::uint64_t more[] = {500};
    ASSERT_TRUE(wal.append(more, 0, 0));
  }
  const Scan after = scan_log(path);
  EXPECT_EQ(after.dropped_bytes, 0u);
  ASSERT_EQ(after.frames.size(), scan.frames.size() + 1);
  EXPECT_EQ(after.frames.back().start_offset, scan.end_offset);
  std::filesystem::remove_all(dir);
}

TEST(ShardWal, EmptyOrTornHeadedLastSegmentIsRemovedAndPreviousReopened) {
  const std::string dir = temp_dir("wal_rotation_crash");
  const std::string path = dir + "/shard-0.wal";
  {
    ShardWal wal(path, small_segments(), WalScan{});
    (void)fill_segments(wal, dir, 2);
  }
  const std::vector<std::string> names = log_names(dir);
  const Scan good = scan_log(path);
  const std::string last = dir + "/" + names.back();
  const std::size_t last_size = file_bytes(last).size();

  // A crash during rotation leaves the next segment empty (created, table
  // not yet written) or with a torn table frame.
  char next_name[64];
  std::snprintf(next_name, sizeof next_name, "/shard-0.%020llu.wal",
                static_cast<unsigned long long>(good.next_seq));
  WalFrame table;
  table.kind = kWalSeqTable;
  table.seq = good.next_seq;
  table.start_offset = good.end_offset;
  auto torn_table = frame_wal(table);
  torn_table.resize(torn_table.size() / 2);
  for (const std::vector<char>& head : {std::vector<char>{}, torn_table}) {
    SCOPED_TRACE(head.empty() ? "empty" : "torn-headed");
    write_file(dir + next_name, head);
    const Scan scan = scan_log(path);
    EXPECT_EQ(scan.segments.size(), names.size());
    EXPECT_EQ(scan.frames.size(), good.frames.size());
    EXPECT_EQ(scan.dropped_bytes, head.size());
    {
      ShardWal wal(path, small_segments(), scan);
      EXPECT_EQ(log_names(dir), names);  // the crashed segment is gone
      const std::uint64_t more[] = {1000};
      ASSERT_TRUE(wal.append(more, 0, 0));
    }
    // The append went to the reopened previous segment.
    EXPECT_GT(file_bytes(last).size(), last_size);
    const Scan after = scan_log(path);
    EXPECT_EQ(after.dropped_bytes, 0u);
    EXPECT_EQ(after.frames.back().start_offset, good.end_offset);
    auto restored = file_bytes(last);
    restored.resize(last_size);
    write_file(last, restored);
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardWal, FileAtTheLogsOwnNameIsRefusedOrDeletedWhenFresh) {
  const std::string dir = temp_dir("wal_own_name");
  const std::string path = dir + "/shard-0.wal";
  // A log from before segments: one file at the log's own name.
  const std::uint64_t k1[] = {40, 41};
  write_file(path, frame_wal(data_frame(1, 0, k1, 31, 10)));
  try {
    (void)read_wal(path);
    ADD_FAILURE() << "read " << path << " as a log";
  } catch (const WalError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  // A fresh log deletes it like any stale segment and starts over.
  {
    ShardWal wal(path, {}, WalScan{});
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(wal.append(k1, 31, 10));
  }
  const Scan scan = scan_log(path);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.segments[0].path, first_segment(dir));
  std::filesystem::remove_all(dir);
}

TEST(ShardWal, FsyncModeGroupCommitAndConcurrentAppends) {
  const std::string dir = temp_dir("wal_fsync");
  const std::string path = dir + "/shard-0.wal";
  ShardWal::Options opt;
  opt.mode = WalMode::kFsync;
  opt.fsync_interval_bytes = 1 << 20;  // group commit: flush() settles it
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  {
    ShardWal wal(path, opt, WalScan{});
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::uint64_t key = static_cast<std::uint64_t>(t) * 1000 + i;
          ASSERT_TRUE(wal.append(std::span<const std::uint64_t>(&key, 1),
                                 static_cast<std::uint64_t>(t) + 1,
                                 static_cast<std::uint64_t>(i) + 1));
        }
      });
    }
    for (auto& t : ts) t.join();
    wal.flush();
  }
  const Scan scan = scan_log(path);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  EXPECT_EQ(scan.frames.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(scan.end_offset, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Offsets are contiguous under concurrent producers: every frame starts
  // where the previous one ended.
  std::uint64_t at = 0;
  for (const Logged& f : scan.frames) {
    EXPECT_EQ(f.start_offset, at);
    at = f.end_offset();
  }
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(scan.client_seqs.at(static_cast<std::uint64_t>(t) + 1),
              static_cast<std::uint64_t>(kPerThread));
  std::filesystem::remove_all(dir);
}

/// The keys the n-th batch of the byte-identity tests carries: 1 to 5
/// keys with every byte position distinct.
std::vector<std::uint64_t> batch_of(std::uint64_t n) {
  std::vector<std::uint64_t> b(n % 5 + 1);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = 0x0123456789abcdefull * (n + 1) + i;
  return b;
}

/// Append `keys` as two runs, cut after its first `cut` keys (one run
/// when `cut` covers them all).
bool append_cut(ShardWal& wal, std::span<const std::uint64_t> keys,
                std::size_t cut, std::uint64_t client_id,
                std::uint64_t client_seq) {
  cut = std::min(cut, keys.size());
  return wal.append(keys.first(cut), keys.subspan(cut), client_id, client_seq);
}

/// An injected torn write: the fault spec, where the torn frame's keys
/// are cut into two runs, and the bytes of it left on disk.
struct TornCase {
  const char* spec;
  std::size_t cut;
  std::size_t dropped;
};

/// Appends batches, each cut into runs after `cut_of(n, size)` keys,
/// across segment rotation, a torn tail repaired at open and the injected
/// torn writes of `torn`; then every data frame on disk must be frame_wal
/// of the frame carrying that batch's keys joined.
template <class CutOf>
void expect_appends_equal_frame_wal(const char* name, CutOf cut_of,
                                    const std::vector<TornCase>& torn) {
  const std::string dir = temp_dir(name);
  const std::string path = dir + "/shard-0.wal";
  constexpr std::uint64_t kClient = 11;
  // batches[i] is what the i-th data frame must carry, under client seq i+1.
  std::vector<std::vector<std::uint64_t>> batches;
  std::uint64_t items = 0;
  const auto append = [&](ShardWal& wal) {
    const std::uint64_t n = batches.size();
    batches.push_back(batch_of(n));
    const std::vector<std::uint64_t>& keys = batches.back();
    ASSERT_TRUE(append_cut(wal, keys, cut_of(n, keys.size()), kClient, n + 1));
    items += keys.size();
  };
  {
    ShardWal wal(path, small_segments(), WalScan{});
    while (log_names(dir).size() < 3 && !::testing::Test::HasFatalFailure())
      append(wal);
  }
  // A torn tail found at open is cut before the next append.
  {
    std::ofstream(dir + "/" + log_names(dir).back(),
                  std::ios::binary | std::ios::app)
        << "torn";
    ShardWal wal(path, small_segments(), read_wal(path));
    append(wal);
  }
  // Injected torn writes: the append throws, the log ends at the previous
  // frame, and the retry (repaired first) lands right behind it.
  for (const TornCase& t : torn) {
    SCOPED_TRACE(testing::Message() << t.spec << " cut " << t.cut);
    ShardWal wal(path, small_segments(), read_wal(path));
    const std::vector<std::uint64_t> next(5, 0xfeedfacecafebeefull);
    fault::injector().arm(fault::parse_spec(t.spec));
    EXPECT_THROW(
        (void)append_cut(wal, next, t.cut, kClient, batches.size() + 1),
        WalError);
    fault::injector().clear();
    const Scan scan = scan_log(path);
    EXPECT_EQ(scan.frames.size(), batches.size());
    EXPECT_EQ(scan.end_offset, items);
    EXPECT_EQ(scan.dropped_bytes, t.dropped);
    append(wal);
  }
  // Every data frame on disk is frame_wal of the frame it should be.
  std::size_t i = 0;
  std::uint64_t start = 0;
  std::uint64_t seq = 0;
  for (const std::string& file : log_names(dir)) {
    const std::vector<char> bytes = file_bytes(dir + "/" + file);
    std::size_t at = 0;
    while (at < bytes.size()) {
      WalFrame f;
      const std::size_t sz = parse_wal_frame(
          std::span<const char>(bytes).subspan(at), f);
      ASSERT_GT(sz, 0u) << file << " at " << at;
      EXPECT_EQ(f.seq, ++seq);
      if (f.kind == kWalData) {
        ASSERT_LT(i, batches.size());
        const std::vector<char> want =
            frame_wal(data_frame(f.seq, start, batches[i], kClient, i + 1));
        EXPECT_TRUE(std::equal(want.begin(), want.end(), bytes.begin() + at,
                               bytes.begin() + at + sz))
            << "data frame " << i;
        start += batches[i].size();
        ++i;
      }
      at += sz;
    }
  }
  EXPECT_EQ(i, batches.size());
  EXPECT_EQ(read_wal(path).dropped_bytes, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ShardWal, AppendBytesEqualFrameWalAcrossRotationRepairAndTornWrites) {
  // One run per frame; torn writes inside the header and inside the
  // payload of a 5-key frame.
  expect_appends_equal_frame_wal(
      "wal_bytes", [](std::uint64_t, std::size_t size) { return size; },
      {{"wal-torn", 5, kWalHeaderBytes / 2},
       {"wal-partial", 5, kWalHeaderBytes + 20}});
}

TEST(ShardWal, TwoRunAppendBytesEqualFrameWalOfTheJoinedKeys) {
  // Frames cut into two runs at every position (an empty first or second
  // run included), as a sub-batch staged across the ring's wrap is; the
  // torn writes of a 5-key frame cut inside the header, inside run 1 (24
  // bytes, 20 written) and inside run 2 (16 bytes, then 4 of run 2).
  expect_appends_equal_frame_wal(
      "wal_bytes_two_runs",
      [](std::uint64_t n, std::size_t size) { return n % (size + 1); },
      {{"wal-torn", 2, kWalHeaderBytes / 2},
       {"wal-partial", 3, kWalHeaderBytes + 20},
       {"wal-partial", 2, kWalHeaderBytes + 20}});
}

TEST(ShardWal, AppendRefusesAFrameAboveThePayloadBoundWritingNothing) {
  // The scan cuts a frame longer than kMaxWalPayload, and every frame
  // behind it, as a torn tail: an append that acked one would lose it.
  const std::string dir = temp_dir("wal_bound");
  const std::string path = dir + "/shard-0.wal";
  const std::vector<std::uint64_t> small(10, 7);
  {
    ShardWal wal(path, {}, WalScan{});
    ASSERT_TRUE(wal.append(small, 0, 0));
    {
      const std::vector<std::uint64_t> huge(kMaxWalKeys + 1, 9);
      EXPECT_THROW((void)wal.append(huge, 21, 1), WalError);
    }
    EXPECT_EQ(file_bytes(first_segment(dir)).size(),
              kWalHeaderBytes + small.size() * 8);
    EXPECT_TRUE(wal.append(small, 21, 1));  // seq 1 was never recorded
  }
  const Scan scan = scan_log(path);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  EXPECT_EQ(scan.frames.size(), 2u);
  EXPECT_EQ(scan.end_offset, 20u);
  std::filesystem::remove_all(dir);
}

TEST(ShardWal, SteadyStateAppendAllocatesNothing) {
  const std::string dir = temp_dir("wal_noalloc");
  ShardWal wal(dir + "/shard-0.wal", {}, WalScan{});
  const std::vector<std::uint64_t> keys = batch_of(4);
  // The first append opens the stream's buffer and the client's entry.
  ASSERT_TRUE(wal.append(keys, 5, 1));
  std::uint64_t seq = 1;
  EXPECT_EQ(news_during([&] {
              for (int i = 0; i < 64; ++i)
                ASSERT_TRUE(wal.append(keys, i % 2 == 0 ? 0 : 5, ++seq));
            }),
            0u);
  std::filesystem::remove_all(dir);
}

TEST(BatchQueries, FrequencyAndContainsBatchAllocateNothing) {
  // A point-query batch stages its probes on the stack: HeavyHitters
  // refreshes its candidates through frequency_batch every 64 items, on
  // the shard worker, and readers share one published view.
  SheConfig cfg;
  cfg.window = 1 << 14;
  cfg.cells = 1 << 16;
  cfg.group_cells = 64;
  SheCountMin cm(cfg, 8);
  SheBloomFilter bf(cfg, 8);
  std::vector<std::uint64_t> keys(1000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i * 0x9E3779B9ull;
  cm.insert_batch(keys);
  bf.insert_batch(keys);
  std::vector<std::uint64_t> counts(keys.size());
  std::vector<std::uint8_t> present(keys.size());
  EXPECT_EQ(news_during([&] {
              cm.frequency_batch(keys, counts);
              bf.contains_batch(keys, present);
            }),
            0u);
  for (std::size_t i = 0; i < keys.size(); i += 97) {
    EXPECT_EQ(counts[i], cm.frequency(keys[i]));
    EXPECT_NE(present[i], 0);
  }
}

TEST(MonitorCopy, AllocatesTheSameBlocksAtEveryHeavyHitterTableSize) {
  // A published view is a copy of the shard's StreamMonitor.  The
  // candidate table is two flat vectors, so the copy allocates as many
  // blocks with 1024 filled slots as with 64.
  const auto copy_news = [](std::size_t slots) {
    MonitorConfig cfg;
    cfg.window = 1 << 15;
    cfg.memory_bytes = 512 << 10;
    cfg.heavy_hitter_slots = slots;
    StreamMonitor mon(cfg);
    std::vector<std::uint64_t> keys(4 * slots);
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i * 0x9E3779B9ull;
    mon.insert_batch(keys);
    EXPECT_EQ(mon.heavy_hitters()->candidate_count(), slots);
    { const StreamMonitor warm = mon; }  // pool frames for the copy
    return news_during([&] { const StreamMonitor copy = mon; });
  };
  const std::size_t narrow = copy_news(64);
  EXPECT_EQ(copy_news(1024), narrow);
}

runtime::PipelineOptions wal_pipeline(const std::string& dir) {
  runtime::PipelineOptions opt;
  opt.shards = 2;
  opt.queue_capacity = 4096;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = std::uint64_t{1} << 40;
  opt.wal_mode = WalMode::kAsync;
  return opt;
}

SheBloomFilter small_filter(std::size_t) {
  SheConfig cfg;
  cfg.window = 1 << 12;
  cfg.cells = 1 << 12;
  cfg.group_cells = 64;
  return SheBloomFilter(cfg, 4);
}

TEST(WalPipeline, PushBulkOfARepeatedFrameSizeAllocatesNothing) {
  const std::string dir = temp_dir("wal_push_noalloc");
  runtime::IngestPipeline<SheBloomFilter> pipe(wal_pipeline(dir),
                                               small_filter);
  pipe.start();
  std::vector<std::uint64_t> keys(1024);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i * 7919;
  // Warm up: the routing buffer reaches this frame size; the client gets
  // its entries.
  std::uint64_t seq = 0;
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(pipe.push_bulk(0, keys, 3, ++seq), keys.size());
  EXPECT_EQ(news_during([&] {
              for (int i = 0; i < 32; ++i)
                ASSERT_EQ(pipe.push_bulk(0, keys, 3, ++seq), keys.size());
            }),
            0u);
  pipe.close();
  std::filesystem::remove_all(dir);
}

TEST(WalPipeline, FirstPushBulkOfASubBatchThatFitsTheRingAllocatesNothing) {
  // Each lane stages its sub-batch in the ring slots admission reserved
  // — and, with the WAL on, logs it from there — so even the first push
  // of a frame size, and every larger one after it, wrapped across the
  // ring's end or not, allocates nothing, with the WAL on or off.  With
  // two shards the (thread-local) routing buffer is warmed first through
  // a pipeline that is never started.
  for (const WalMode wal : {WalMode::kAsync, WalMode::kOff}) {
    for (const std::size_t shards : {1u, 2u}) {
      SCOPED_TRACE(testing::Message() << "wal " << static_cast<int>(wal)
                                      << " shards " << shards);
      const std::string dir = temp_dir("wal_first_push_noalloc");
      runtime::PipelineOptions opt = wal_pipeline(dir);
      opt.shards = shards;
      opt.wal_mode = wal;
      std::vector<std::uint64_t> keys(4096);
      for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i * 7919;
      if (shards > 1) {
        runtime::PipelineOptions off;
        off.shards = shards;
        off.queue_capacity = keys.size();
        runtime::IngestPipeline<SheBloomFilter> warm(off, small_filter);
        ASSERT_EQ(warm.push_bulk(0, keys), keys.size());
      }
      runtime::IngestPipeline<SheBloomFilter> pipe(opt, small_filter);
      pipe.start();
      for (const std::size_t n : {100u, 1000u, 3000u, 4096u}) {
        SCOPED_TRACE(n);
        const std::span<const std::uint64_t> frame(keys.data(), n);
        EXPECT_EQ(
            news_during([&] { ASSERT_EQ(pipe.push_bulk(0, frame), n); }),
            0u);
      }
      pipe.close();
      EXPECT_EQ(pipe.metrics_registry().sum("she_pipeline_inserted_total"),
                100u + 1000u + 3000u + 4096u);
      std::filesystem::remove_all(dir);
    }
  }
}

/// Counts, across every copy, the keys the pipeline's workers apply.
struct CountingEstimator {
  static inline std::atomic<std::uint64_t> applied{0};
  std::uint64_t n = 0;
  void insert(std::uint64_t) {
    ++n;
    applied.fetch_add(1, std::memory_order_relaxed);
  }
  void save(BinaryWriter& w) const { w.u64(n); }
  static CountingEstimator load(BinaryReader& r) {
    CountingEstimator e;
    e.n = r.u64();
    return e;
  }
};

TEST(WalPipeline, SubBatchLargerThanTheRingIsLoggedWholeFirstAndKeepsNoBuffer) {
  // Admission reserves only the ring's capacity for a larger sub-batch,
  // so it is gathered into a buffer of its own, logged as one frame, and
  // only then enqueued behind the live drain.  The buffer is gone when
  // the call returns.
  const std::string dir = temp_dir("wal_oversize");
  constexpr std::size_t kKeys = 1000;
  std::uint64_t logged_end = 0;
  std::uint64_t applied_at_log = ~std::uint64_t{0};
  std::size_t run2_bytes = ~std::size_t{0};
  runtime::PipelineOptions opt = wal_pipeline(dir);
  opt.shards = 1;
  opt.queue_capacity = 64;
  opt.wal_observer = [&](std::size_t, std::uint64_t end_offset,
                         std::span<const char>, std::span<const char>,
                         std::span<const char> run2) {
    logged_end = end_offset;
    applied_at_log = CountingEstimator::applied.load();
    run2_bytes = run2.size();
  };
  CountingEstimator::applied = 0;
  std::vector<std::uint64_t> keys(kKeys);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i * 31;
  {
    runtime::IngestPipeline<CountingEstimator> pipe(
        opt, [](std::size_t) { return CountingEstimator{}; });
    pipe.start();
    EXPECT_EQ(kept_during([&] { ASSERT_EQ(pipe.push_bulk(0, keys), kKeys); }),
              0);
    EXPECT_EQ(logged_end, kKeys);  // one frame, the whole sub-batch
    EXPECT_EQ(applied_at_log, 0u);
    EXPECT_EQ(run2_bytes, 0u);
    pipe.close();
    EXPECT_EQ(pipe.snapshot(0).n, kKeys);
  }
  const Scan scan = scan_log(dir + "/shard-0.wal");
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].keys, keys);
  std::filesystem::remove_all(dir);
}

TEST(WalPipeline, PushBulkRefusesAShardShareAboveTheFrameBoundAcceptingNothing) {
  // Shard 0 commits first, so a check inside the lanes would accept its
  // share before shard 1's append refused the rest of the call.
  const std::string dir = temp_dir("wal_push_bound");
  {
    runtime::IngestPipeline<SheBloomFilter> pipe(wal_pipeline(dir),
                                                 small_filter);
    pipe.start();
    std::vector<std::uint64_t> keys;
    keys.reserve(kMaxWalKeys + 11);
    std::size_t to_shard0 = 0;
    for (std::uint64_t k = 0; keys.size() < kMaxWalKeys + 11; ++k)
      if (pipe.shard_of(k) == 1 || to_shard0 < 10) {
        to_shard0 += pipe.shard_of(k) == 0 ? 1 : 0;
        keys.push_back(k);
      }
    EXPECT_THROW((void)pipe.push_bulk(0, keys, 9, 1), WalError);
    keys.clear();
    keys.shrink_to_fit();
    pipe.close();
    EXPECT_EQ(pipe.metrics_registry().sum("she_pipeline_produced_total"), 0u);
  }
  for (const char* log : {"/shard-0.wal", "/shard-1.wal"}) {
    const Scan scan = scan_log(dir + log);
    EXPECT_EQ(scan.end_offset, 0u) << log;
    EXPECT_TRUE(scan.frames.empty()) << log;
  }
  std::filesystem::remove_all(dir);
}

TEST(WalPipeline, OneShardPushBulkRefusesAnOversizeCallBeforeGatheringIt) {
  // With one shard the whole call is one lane's sub-batch.  That route used
  // to skip the frame-bound check: it waited for ring space and gathered
  // all kMaxWalKeys + 1 keys (64 MiB) before the append refused them.
  const std::string dir = temp_dir("wal_one_shard_bound");
  runtime::PipelineOptions opt = wal_pipeline(dir);
  opt.shards = 1;
  runtime::IngestPipeline<SheBloomFilter> pipe(opt, small_filter);
  pipe.start();
  std::vector<std::uint64_t> first(100);
  for (std::size_t i = 0; i < first.size(); ++i) first[i] = i * 7919;
  ASSERT_EQ(pipe.push_bulk(0, first), first.size());
  const std::vector<char> log_before = file_bytes(first_segment(dir));
  ASSERT_FALSE(log_before.empty());
  std::vector<std::uint64_t> keys(kMaxWalKeys + 1, 7);
  EXPECT_LT(peak_heap_during([&] {
              EXPECT_THROW((void)pipe.push_bulk(0, keys, 9, 1), WalError);
            }),
            std::size_t{1} << 20);
  keys.clear();
  keys.shrink_to_fit();
  EXPECT_EQ(file_bytes(first_segment(dir)), log_before);
  pipe.close();
  EXPECT_EQ(pipe.metrics_registry().sum("she_pipeline_produced_total"),
            first.size());
  EXPECT_EQ(pipe.metrics_registry().sum("she_pipeline_inserted_total"),
            first.size());
  const Scan scan = scan_log(dir + "/shard-0.wal");
  EXPECT_EQ(scan.end_offset, first.size());
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].keys, first);
  std::filesystem::remove_all(dir);
}

// A shard worker counts its own allocations while a test watches: each
// estimator copy (one per publish) restarts the count, and the directory
// sync that ends the checkpoint after it publishes the bytes allocated.
std::atomic<bool> g_watch_checkpoint{false};
std::atomic<std::size_t> g_checkpoint_bytes{0};

struct WatchedMonitor {
  StreamMonitor mon;
  explicit WatchedMonitor(StreamMonitor m) : mon(std::move(m)) {}
  WatchedMonitor(const WatchedMonitor& o) : mon(o.mon) {
    if (g_watch_checkpoint.load()) {
      g_new_bytes = 0;
      g_count_news = true;
    }
  }
  WatchedMonitor(WatchedMonitor&&) = default;
  void insert_batch(std::span<const std::uint64_t> keys) {
    mon.insert_batch(keys);
  }
  void save(BinaryWriter& w) const { mon.save(w); }
  static WatchedMonitor load(BinaryReader& r) {
    return WatchedMonitor(StreamMonitor::load(r));
  }
};

void publish_at_dir_sync(DurableOp op, const std::string&, std::uint64_t) {
  if (op == DurableOp::kDirSync && g_count_news) {
    g_count_news = false;
    g_checkpoint_bytes.store(g_new_bytes);
  }
}

TEST(CheckpointWrite, FirstAndSteadyStateCheckpointsAllocateUnder16KiB) {
  // One shard of the e2e bench spec (512 KiB of cells, a ~464 KiB image):
  // the frame borrows the view's cell pages, so a checkpoint allocates
  // only its header, scalar fields and gather list, never the image.  The
  // count runs from the publish's estimator copy to the checkpoint's
  // directory sync, on the worker thread.
  const std::string dir = temp_dir("ckpt_alloc");
  runtime::PipelineOptions opt;
  opt.shards = 1;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = std::uint64_t{1} << 40;  // SAVEs only
  MonitorConfig mc;
  mc.window = 32768;
  mc.memory_bytes = 512u << 10;
  runtime::IngestPipeline<WatchedMonitor> pipe(
      opt, [&](std::size_t) { return WatchedMonitor(StreamMonitor(mc)); });
  fault::on_durable_op(&publish_at_dir_sync);
  pipe.start();
  std::vector<std::uint64_t> keys(20'000);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);  // the first checkpoint, then steady state
    for (std::size_t i = 0; i < keys.size(); ++i)
      keys[i] = (round * keys.size() + i) * 2654435761u % 50'000;
    ASSERT_EQ(pipe.push_bulk(0, keys), keys.size());
    ASSERT_TRUE(pipe.sync(false));
    g_checkpoint_bytes = ~std::size_t{0};
    g_watch_checkpoint = true;
    ASSERT_TRUE(pipe.sync(true));
    g_watch_checkpoint = false;
    EXPECT_LT(g_checkpoint_bytes.load(), std::size_t{16} << 10);
  }
  fault::on_durable_op(nullptr);
  pipe.close();
  EXPECT_EQ(pipe.metrics_registry().sum("she_pipeline_checkpoints_total"), 4u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace she
