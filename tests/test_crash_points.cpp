// Crash-point harness in the style of ALICE (Pillai et al., "All File
// Systems Are Not Created Equal", OSDI '14).  A dry run records every
// syscall that changes durable state while a scripted single-shard ingest
// runs with the WAL on: writes that reach the kernel, fsyncs, file
// creates, renames, unlinks and directory fsyncs (common/io.hpp's
// DurableOp, armed through fault::on_durable_op).  Then a forked
// child re-runs the workload and dies right after op i, for every i — and,
// for every write, another child leaves only the first half of that write
// on disk.  After each death the parent resumes the directory and checks
// that
//
//   * the resume offset is the acked prefix, or the acked prefix plus the
//     one batch that was in flight at the crash;
//   * the resumed state is byte-identical to a reference estimator fed
//     exactly that prefix;
//   * re-pushing the rest of the stream under the same client identities
//     converges on the full-stream reference bytes, in memory and after
//     one more resume of the directory.
//
// Every write is whole-or-torn at process death; power-loss reordering of
// unsynced writes is out of scope.  Not labeled tsan: fork() under
// ThreadSanitizer is unsupported.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.hpp"
#include "common/io.hpp"
#include "runtime/ingest_pipeline.hpp"
#include "runtime/snapshot.hpp"
#include "she/she.hpp"

namespace she::runtime {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kBatchKeys = std::size_t{1} << 17;  // 1 MiB frames
constexpr std::size_t kBatches = 13;                      // 13 MiB of log
constexpr std::uint64_t kCheckpointEvery = std::uint64_t{1} << 18;
constexpr std::uint64_t kClient = 7;

struct Op {
  DurableOp kind;
  std::string path;
  std::uint64_t bytes;
};

// The hook is a plain function pointer, so its state lives here.  Workers
// and producers both report ops; the mutex keeps the count exact.
std::mutex g_mu;
std::vector<Op>* g_record = nullptr;  // dry run: the op sequence
long g_crash_at = -1;                 // child: die right after this op
bool g_tear = false;                  // child: ... leaving half a write
long g_seen = 0;

void on_op(DurableOp kind, const std::string& path, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(g_mu);
  if (g_record != nullptr) g_record->push_back({kind, path, bytes});
  if (g_seen++ != g_crash_at) return;
  if (g_tear && kind == DurableOp::kWrite) {
    // The write just appended `bytes` at the end of `path`: keep half.
    std::error_code ec;
    const std::uint64_t size = fs::file_size(path, ec);
    if (!ec) fs::resize_file(path, size - bytes + bytes / 2, ec);
  }
  ::_exit(0);
}

std::span<const std::uint64_t> batch(const std::vector<std::uint64_t>& keys,
                                     std::size_t b) {
  return {keys.data() + b * kBatchKeys, kBatchKeys};
}

std::vector<std::uint64_t> stream_keys() {
  std::vector<std::uint64_t> keys(kBatches * kBatchKeys);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (auto& k : keys) {
    x += 0x9E3779B97F4A7C15ULL;
    k = (x ^ (x >> 29)) % 200'000;  // repeats, so the window state moves
  }
  return keys;
}

SheBloomFilter make_filter(std::size_t) {
  SheConfig cfg;
  cfg.window = 1 << 15;
  cfg.cells = 1 << 14;
  cfg.group_cells = 64;
  cfg.alpha = 3.0;
  return SheBloomFilter(cfg, 8);
}

std::string bytes_of(const SheBloomFilter& f) {
  std::vector<char> image;
  serialize_to(image, f);
  return {image.begin(), image.end()};
}

PipelineOptions options(const std::string& dir, WalMode mode, bool resume) {
  PipelineOptions opt;
  opt.shards = 1;
  opt.queue_capacity = kBatchKeys;
  opt.publish_interval = 16384;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = kCheckpointEvery;
  opt.wal_mode = mode;
  opt.resume = resume;
  return opt;
}

/// The scripted workload: a fresh pipeline over a directory holding a
/// stale log from an earlier life, every batch pushed under the client
/// identity (kClient, batch + 1), the acked-batch count written to
/// `report_fd` after each push returns, a drain barrier after each push
/// (so checkpoints land between appends and the op order is repeatable),
/// then close.
void run_workload(const std::string& dir, WalMode mode,
                  const std::vector<std::uint64_t>& keys, int report_fd) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir + "/shard-0.wal") << "stale log from an earlier life";
  IngestPipeline<SheBloomFilter> pipe(options(dir, mode, false), make_filter);
  pipe.start();
  for (std::size_t b = 0; b < kBatches; ++b) {
    if (pipe.push_bulk(0, batch(keys, b), kClient, b + 1) != kBatchKeys)
      throw std::runtime_error("batch not accepted");
    const std::uint32_t acked = static_cast<std::uint32_t>(b + 1);
    if (report_fd >= 0 && ::write(report_fd, &acked, sizeof acked) < 0)
      throw std::runtime_error("report pipe closed");
    (void)pipe.sync(false);
  }
  pipe.close();
}

/// Run the workload in a child that dies right after op `crash_at`
/// (tearing it when `tear`); returns the batches the child saw acked.
std::uint32_t crash_child(const std::string& dir, WalMode mode,
                          const std::vector<std::uint64_t>& keys,
                          long crash_at, bool tear) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    g_record = nullptr;
    g_seen = 0;
    g_crash_at = crash_at;
    g_tear = tear;
    fault::on_durable_op(on_op);
    try {
      run_workload(dir, mode, keys, fds[1]);
    } catch (...) {
      ::_exit(3);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::uint32_t acked = 0, v = 0;
  while (::read(fds[0], &v, sizeof v) == static_cast<ssize_t>(sizeof v))
    acked = v;
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "crash child for op " << crash_at << " died abnormally (status "
      << status << ")";
  return acked;
}

/// Resume the crashed directory and run the three checks; `refs[b]` is
/// the reference image after b batches.
void verify_resume(const std::string& dir, WalMode mode,
                   const std::vector<std::uint64_t>& keys,
                   const std::vector<std::string>& refs, std::uint32_t acked,
                   const std::string& what) {
  SCOPED_TRACE(what + ", acked " + std::to_string(acked) + " batches");
  IngestPipeline<SheBloomFilter> pipe(options(dir, mode, true), make_filter);
  const std::uint64_t off = pipe.resume_offset(0);
  const std::uint64_t lo = std::uint64_t{acked} * kBatchKeys;
  ASSERT_TRUE(off == lo || (off == lo + kBatchKeys && acked < kBatches))
      << "resume offset " << off << " is neither the acked prefix " << lo
      << " nor it plus the in-flight batch";
  EXPECT_EQ(bytes_of(pipe.snapshot(0)), refs[off / kBatchKeys])
      << "resumed state differs from the reference fed " << off << " keys";
  pipe.start();
  for (std::size_t b = acked; b < kBatches; ++b)
    ASSERT_EQ(pipe.push_bulk(0, batch(keys, b), kClient, b + 1), kBatchKeys);
  pipe.close();
  EXPECT_EQ(bytes_of(pipe.snapshot(0)), refs[kBatches])
      << "re-pushing the rest did not converge on the full stream";
  // And the directory agrees: one more resume finds the whole stream.
  IngestPipeline<SheBloomFilter> again(options(dir, mode, true), make_filter);
  EXPECT_EQ(again.resume_offset(0), std::uint64_t{kBatches} * kBatchKeys);
  EXPECT_EQ(bytes_of(again.snapshot(0)), refs[kBatches])
      << "the directory left behind does not resume to the full stream";
}

const char* kind_name(DurableOp k) {
  switch (k) {
    case DurableOp::kWrite: return "write";
    case DurableOp::kSync: return "fsync";
    case DurableOp::kCreate: return "create";
    case DurableOp::kRename: return "rename";
    case DurableOp::kUnlink: return "unlink";
    case DurableOp::kDirSync: return "dir-fsync";
  }
  return "?";
}

bool is_log(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".wal") == 0;
}

void crash_every_op(WalMode mode, const char* tag) {
  // tmpfs when there is one: process death keeps the page cache, so the
  // crash semantics are the same on any filesystem, and a disk's journal
  // commit on every checkpoint fsync would stretch the hundreds of runs
  // below into minutes.  The pid keeps concurrent build trees apart.
  const fs::path root =
      fs::is_directory("/dev/shm") ? fs::path("/dev/shm")
                                   : fs::path(::testing::TempDir());
  const std::string dir = (root / ("she_crash_points_" + std::string(tag) +
                                   "_" + std::to_string(::getpid())))
                              .string();
  struct RemoveDir {  // however the test ends; forked children _exit first
    const std::string& dir;
    ~RemoveDir() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } remove_dir{dir};
  const std::vector<std::uint64_t> keys = stream_keys();
  std::vector<std::string> refs;
  {
    SheBloomFilter ref = make_filter(0);
    refs.push_back(bytes_of(ref));
    for (std::size_t b = 0; b < kBatches; ++b) {
      ref.insert_batch(batch(keys, b));
      refs.push_back(bytes_of(ref));
    }
  }

  // Dry run: the op sequence every crash below indexes into.
  std::vector<Op> ops;
  {
    std::lock_guard<std::mutex> lk(g_mu);
    g_record = &ops;
    g_seen = 0;
    g_crash_at = -1;
  }
  fault::on_durable_op(on_op);
  run_workload(dir, mode, keys, -1);
  fault::on_durable_op(nullptr);
  g_record = nullptr;

  std::set<DurableOp> kinds;
  std::uint64_t log_bytes = 0;
  std::size_t writes = 0;
  for (const Op& op : ops) {
    kinds.insert(op.kind);
    if (op.kind == DurableOp::kWrite) {
      ++writes;
      if (is_log(op.path)) log_bytes += op.bytes;
    }
  }
  std::printf("[ crash points ] wal=%s: N = %zu ops (%zu writes), %.1f MiB "
              "of log\n",
              tag, ops.size(), writes, static_cast<double>(log_bytes) / (1 << 20));
  std::fflush(stdout);
  EXPECT_GE(log_bytes, std::uint64_t{12} << 20);
  // A write path that bypasses the hook shows up as a missing kind.  Only
  // kFsync promises durability across power loss, so only it must fsync
  // directories.
  std::vector<DurableOp> need = {DurableOp::kWrite, DurableOp::kSync,
                                 DurableOp::kCreate, DurableOp::kRename,
                                 DurableOp::kUnlink};
  if (mode == WalMode::kFsync) need.push_back(DurableOp::kDirSync);
  for (const DurableOp k : need)
    EXPECT_TRUE(kinds.count(k)) << "no " << kind_name(k) << " op recorded";

  // A log file deleted after a checkpoint took its name must wait for the
  // directory fsync that makes that rename durable; otherwise a power cut
  // could keep the unlink and lose the rename.
  bool renamed = false, rename_durable = false;
  for (const Op& op : ops) {
    if (op.kind == DurableOp::kRename &&
        op.path.find(".ckpt") != std::string::npos) {
      renamed = true;
      rename_durable = false;
    } else if (op.kind == DurableOp::kDirSync) {
      rename_durable = true;
    } else if (op.kind == DurableOp::kUnlink && renamed && is_log(op.path)) {
      EXPECT_TRUE(rename_durable)
          << "unlinked " << op.path << " before the checkpoint rename was "
          << "made durable";
    }
  }

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::string what = std::string("crash after op ") +
                             std::to_string(i) + " (" +
                             kind_name(ops[i].kind) + " " + ops[i].path + ")";
    const std::uint32_t acked =
        crash_child(dir, mode, keys, static_cast<long>(i), false);
    verify_resume(dir, mode, keys, refs, acked, what);
    if (ops[i].kind != DurableOp::kWrite) continue;
    const std::uint32_t torn_acked =
        crash_child(dir, mode, keys, static_cast<long>(i), true);
    verify_resume(dir, mode, keys, refs, torn_acked, "torn " + what);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

TEST(CrashPoints, AsyncWalResumesTheAckedPrefixAfterEveryOp) {
  crash_every_op(WalMode::kAsync, "async");
}

TEST(CrashPoints, FsyncWalResumesTheAckedPrefixAfterEveryOp) {
  crash_every_op(WalMode::kFsync, "fsync");
}

}  // namespace
}  // namespace she::runtime
