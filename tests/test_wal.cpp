// Write-ahead backlog log tests: frame codec, crash-shape recovery scans
// (torn tails, mid-log corruption, sequence regressions), the per-client
// idempotence table, and the ShardWal append/dedup/compact/repair cycle.
// This binary carries the ctest label `tsan` (see tests/CMakeLists.txt):
// producers for one shard serialize appends on the ShardWal mutex, and
// that surface must stay clean under ThreadSanitizer.
#include "common/wal.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include <gtest/gtest.h>

namespace she {
namespace {

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

WalFrame data_frame(std::uint64_t seq, std::uint64_t start,
                    std::span<const std::uint64_t> keys,
                    std::uint64_t client_id = 0, std::uint64_t client_seq = 0) {
  WalFrame f;
  f.kind = kWalData;
  f.seq = seq;
  f.start_offset = start;
  f.client_id = client_id;
  f.client_seq = client_seq;
  f.payload.resize(keys.size() * 8);
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (int b = 0; b < 8; ++b)
      f.payload[8 * i + b] = static_cast<char>((keys[i] >> (8 * b)) & 0xff);
  return f;
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
  write_file(path, all);

  const WalScan scan = read_wal(path);
  ASSERT_EQ(scan.frames.size(), 2u);
  EXPECT_EQ(scan.frames[0].keys(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(scan.frames[1].keys(),
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
  const WalScan scan = read_wal("/nonexistent/definitely/not/here.wal");
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
    write_file(path, std::span<const char>(all.data(), n));
    const std::uint64_t before = torn_count();
    const WalScan scan = read_wal(path);
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
    write_file(path, bad);
    const WalScan scan = read_wal(path);
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
  write_file(path, all);
  WalScan scan = read_wal(path);
  EXPECT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.dropped_bytes, dup.size());

  // A data frame that rewinds the accepted-item offset is equally bogus.
  all = frame_wal(data_frame(1, 0, std::span<const std::uint64_t>(k, 1)));
  const auto rewind = frame_wal(data_frame(2, 0, k));
  all.insert(all.end(), rewind.begin(), rewind.end());
  write_file(path, all);
  scan = read_wal(path);
  EXPECT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.end_offset, 1u);
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
  const WalScan scan = read_wal(path);
  ASSERT_EQ(scan.frames.size(), 3u);
  EXPECT_EQ(scan.end_offset, 8u);
  EXPECT_EQ(scan.frames[1].start_offset, 3u);
  EXPECT_EQ(scan.client_seqs.at(42), 2u);

  // Reopen from the scan: dedup state and offsets continue seamlessly.
  ShardWal wal(path, {}, scan);
  EXPECT_FALSE(wal.append(b2, 42, 2));
  EXPECT_TRUE(wal.append(b2, 42, 3));
  const WalScan again = read_wal(path);
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
  write_file(path, all);

  const WalScan scan = read_wal(path);
  EXPECT_EQ(scan.dropped_bytes, 7u);
  {
    ShardWal wal(path, {}, scan);
    const std::uint64_t more[] = {6};
    EXPECT_TRUE(wal.append(more, 0, 0));
  }
  // The garbage is gone and the appended frame sits right behind the
  // valid prefix: the whole file parses with nothing dropped.
  const WalScan after = read_wal(path);
  EXPECT_EQ(after.dropped_bytes, 0u);
  ASSERT_EQ(after.frames.size(), 2u);
  EXPECT_EQ(after.frames[1].start_offset, 3u);
  EXPECT_GT(file_bytes(path).size(), whole);
  std::filesystem::remove_all(dir);
}

TEST(ShardWal, CompactRetiresCheckpointedFramesKeepsSeqTable) {
  const std::string dir = temp_dir("wal_compact");
  const std::string path = dir + "/shard-0.wal";
  ShardWal::Options opt;
  opt.compact_min_bytes = 0;  // compact unconditionally for the test
  {
    ShardWal wal(path, opt, WalScan{});
    const std::uint64_t b1[] = {1, 2, 3};
    const std::uint64_t b2[] = {4, 5};
    const std::uint64_t b3[] = {6};
    ASSERT_TRUE(wal.append(b1, 11, 1));
    ASSERT_TRUE(wal.append(b2, 11, 2));
    ASSERT_TRUE(wal.append(b3, 12, 1));

    // Checkpoint reached offset 4: the first frame (items [0,3)) retires,
    // the straddling and later frames survive.
    wal.compact(4);
    WalScan scan = read_wal(path);
    ASSERT_EQ(scan.frames.size(), 2u);
    EXPECT_EQ(scan.frames[0].start_offset, 3u);
    EXPECT_EQ(scan.end_offset, 6u);
    EXPECT_EQ(scan.client_seqs.at(11), 2u);  // via the seq-table frame
    EXPECT_EQ(scan.client_seqs.at(12), 1u);

    // Checkpoint caught up: everything retires, dedup state persists.
    wal.compact(6);
    scan = read_wal(path);
    EXPECT_TRUE(scan.frames.empty());
    EXPECT_EQ(scan.end_offset, 6u);
    EXPECT_EQ(scan.client_seqs.at(11), 2u);

    // Appends continue at the preserved offset; replays still dedup.
    const std::uint64_t b4[] = {7, 8};
    EXPECT_FALSE(wal.append(b4, 11, 2));
    EXPECT_TRUE(wal.append(b4, 11, 3));
  }
  const WalScan scan = read_wal(path);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].start_offset, 6u);
  EXPECT_EQ(scan.end_offset, 8u);

  // A resumed ShardWal over the compacted log still refuses old seqs.
  ShardWal wal(path, opt, scan);
  const std::uint64_t b5[] = {9};
  EXPECT_FALSE(wal.append(b5, 11, 3));
  EXPECT_TRUE(wal.append(b5, 11, 4));
  std::filesystem::remove_all(dir);
}

TEST(ShardWal, CompactCrashShapesNeverLoseTheOldLog) {
  // Compaction rewrites into "<path>.tmp" and renames over the log, so a
  // crash at any instant leaves either the old log (crash before the
  // rename — possibly with a stale tmp beside it) or the new one (crash
  // after).  Both shapes must recover to the same replay suffix and
  // dedup state.
  const std::string dir = temp_dir("wal_compact_crash");
  const std::string path = dir + "/shard-0.wal";
  ShardWal::Options opt;
  opt.compact_min_bytes = 0;
  const std::uint64_t b1[] = {1, 2, 3};
  const std::uint64_t b2[] = {4, 5};
  const std::uint64_t b3[] = {6, 7};
  {
    ShardWal wal(path, opt, WalScan{});
    ASSERT_TRUE(wal.append(b1, 21, 1));
    ASSERT_TRUE(wal.append(b2, 21, 2));
    ASSERT_TRUE(wal.append(b3, 22, 1));
  }

  // Crash shape 1: a previous compaction died mid-rewrite, leaving a
  // partial tmp file.  Recovery reads only the log; the next compaction
  // truncates and replaces the leftover.
  const std::string tmp = path + ".tmp";
  write_file(tmp, std::vector<char>{'h', 'a', 'l', 'f'});
  WalScan scan = read_wal(path);
  ASSERT_EQ(scan.frames.size(), 3u);
  {
    ShardWal wal(path, opt, scan);
    wal.compact(5);  // retires b1 and b2; b3 survives
  }
  EXPECT_FALSE(std::filesystem::exists(tmp)) << "tmp renamed over the log";
  scan = read_wal(path);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].start_offset, 5u);
  EXPECT_EQ(scan.end_offset, 7u);
  EXPECT_EQ(scan.client_seqs.at(21), 2u);  // dedup state via the seq table
  EXPECT_EQ(scan.client_seqs.at(22), 1u);

  // Crash shape 2: power cut right before the rename — the old (longer)
  // log is still in place next to a *complete* tmp rewrite.  The tmp is
  // dead weight: recovery scans the log, and appends continue on it.
  const auto old_log = file_bytes(path);
  write_file(tmp, old_log);  // any complete file: it must be ignored
  scan = read_wal(path);
  {
    ShardWal wal(path, opt, scan);
    EXPECT_FALSE(wal.append(b2, 21, 2));  // replay still dedups
    const std::uint64_t b4[] = {8};
    EXPECT_TRUE(wal.append(b4, 21, 3));
  }
  scan = read_wal(path);
  ASSERT_EQ(scan.frames.size(), 2u);
  EXPECT_EQ(scan.frames[1].start_offset, 7u);
  EXPECT_EQ(scan.end_offset, 8u);

  // Crash shape 3: torn tail *behind* a compacted log (the crash hit a
  // later append).  The recovery scan keeps the seq-table + frames and
  // drops only the tail; a fresh compact still works on the result.
  auto bytes = file_bytes(path);
  bytes.insert(bytes.end(), {'t', 'o', 'r', 'n'});
  write_file(path, bytes);
  scan = read_wal(path);
  EXPECT_EQ(scan.dropped_bytes, 4u);
  {
    ShardWal wal(path, opt, scan);
    wal.compact(8);  // everything retires
  }
  scan = read_wal(path);
  EXPECT_TRUE(scan.frames.empty());
  EXPECT_EQ(scan.end_offset, 8u);
  EXPECT_EQ(scan.client_seqs.at(21), 3u);
  std::filesystem::remove_all(dir);
}

/// The read-everything compaction the streaming rewrite must reproduce byte
/// for byte: scan the whole log, anchor the seq table at the lowest
/// surviving start, then re-frame every survivor with a fresh seq.
std::vector<char> reference_compaction(
    const std::string& path, std::uint64_t low_water, std::uint64_t end_offset,
    const std::map<std::uint64_t, std::uint64_t>& seqs) {
  const WalScan scan = read_wal(path);
  std::uint64_t base = std::min(low_water, end_offset);
  for (const WalFrame& f : scan.frames)
    if (f.end_offset() > low_water) base = std::min(base, f.start_offset);
  std::uint64_t seq = 1;
  WalFrame table;
  table.kind = kWalSeqTable;
  table.seq = seq++;
  table.start_offset = base;
  for (const auto& [id, hi] : seqs)
    for (const std::uint64_t v : {id, hi})
      for (int b = 0; b < 8; ++b)
        table.payload.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  std::vector<char> out = frame_wal(table);
  for (const WalFrame& f : scan.frames) {
    if (f.end_offset() <= low_water) continue;
    WalFrame keep = f;
    keep.seq = seq++;
    const auto bytes = frame_wal(keep);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

TEST(ShardWal, StreamingCompactMatchesReadEverythingRewrite) {
  const std::string dir = temp_dir("wal_compact_diff");
  const std::string path = dir + "/shard-0.wal";
  ShardWal::Options opt;
  opt.compact_min_bytes = 0;
  struct Case {
    const char* name;
    std::uint64_t low_water;
    bool seq_table_head;  // log already compacted once (starts with a table)
    int tail;             // 0 none, 1 half a frame, 2 whole frame, bad CRC
  };
  // Data frames cover items [0,3) [3,5) [5,6) [6,10) [10,12).
  const Case cases[] = {
      {"survivors only", 5, false, 0},
      {"none survive", 12, false, 0},
      {"straddling frame", 4, false, 0},
      {"torn tail", 4, false, 1},
      {"corrupt tail, none survive", 20, false, 2},
      {"behind a seq table", 7, true, 0},
      {"torn tail behind a seq table", 11, true, 1},
  };
  const std::uint64_t b1[] = {1, 2, 3};
  const std::uint64_t b2[] = {4, 5};
  const std::uint64_t b3[] = {6};
  const std::uint64_t b4[] = {7, 8, 9, 10};
  const std::uint64_t b5[] = {11, 12};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::filesystem::remove(path);
    ShardWal wal(path, opt, WalScan{});
    ASSERT_TRUE(wal.append(b1, 31, 1));
    ASSERT_TRUE(wal.append(b2, 32, 1));
    if (c.seq_table_head) wal.compact(3);
    ASSERT_TRUE(wal.append(b3, 31, 2));
    ASSERT_TRUE(wal.append(b4, 0, 0));
    ASSERT_TRUE(wal.append(b5, 33, 7));
    const WalScan before = read_wal(path);
    ASSERT_EQ(before.end_offset, 12u);
    if (c.tail != 0) {
      auto junk = frame_wal(data_frame(before.next_seq, 12, b2));
      if (c.tail == 1) junk.resize(junk.size() / 2);
      if (c.tail == 2) junk.back() = static_cast<char>(junk.back() ^ 1);
      std::ofstream(path, std::ios::binary | std::ios::app)
          .write(junk.data(), static_cast<std::streamsize>(junk.size()));
    }
    const std::vector<char> want =
        reference_compaction(path, c.low_water, 12, before.client_seqs);

    const std::uint64_t torn_before = torn_count();
    wal.compact(c.low_water);
    EXPECT_EQ(file_bytes(path), want);
    EXPECT_EQ(torn_count(), torn_before + (c.tail != 0 ? 1 : 0));

    // Appends continue where the rewritten log ends, exactly as after a
    // re-scan of it: next seq, offset and file size.
    const std::string want_path = dir + "/want.wal";
    write_file(want_path, want);
    const WalScan rescan = read_wal(want_path);
    const std::uint64_t b6[] = {13};
    ASSERT_TRUE(wal.append(b6, 33, 8));
    auto grown = want;
    const auto next = frame_wal(data_frame(rescan.next_seq, 12, b6, 33, 8));
    grown.insert(grown.end(), next.begin(), next.end());
    EXPECT_EQ(file_bytes(path), grown);
  }
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
  const WalScan scan = read_wal(path);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  EXPECT_EQ(scan.frames.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(scan.end_offset, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Offsets are contiguous under concurrent producers: every frame starts
  // where the previous one ended.
  std::uint64_t at = 0;
  for (const WalFrame& f : scan.frames) {
    EXPECT_EQ(f.start_offset, at);
    at = f.end_offset();
  }
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(scan.client_seqs.at(static_cast<std::uint64_t>(t) + 1),
              static_cast<std::uint64_t>(kPerThread));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace she
