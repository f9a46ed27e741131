// CLI tests: argument parsing and every she_tool subcommand, driven
// in-process through run_cli.
#include "commands.hpp"

#include <cstdio>

#include "common/checkpoint.hpp"
#include "common/wal.hpp"
#include "runtime/snapshot.hpp"
#include "she/monitor.hpp"
#include "stream/trace.hpp"
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace she::tools {
namespace {

// ------------------------------- ArgMap ------------------------------------

TEST(ArgMap, ParsesFlagsAndValues) {
  auto args = ArgMap::parse({"--window", "1024", "--verbose", "--name", "x"});
  EXPECT_EQ(args.get_u64("window", 0), 1024u);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("name", ""), "x");
  EXPECT_FALSE(args.has("missing"));
}

TEST(ArgMap, PositionalRejected) {
  EXPECT_THROW(ArgMap::parse({"oops"}), std::invalid_argument);
  EXPECT_THROW(ArgMap::parse({"--ok", "1", "stray"}), std::invalid_argument);
}

TEST(ArgMap, RequireThrowsWhenMissing) {
  auto args = ArgMap::parse({});
  EXPECT_THROW((void)args.require("out"), std::invalid_argument);
}

TEST(ArgMap, SizeSuffixes) {
  EXPECT_EQ(ArgMap::parse_size("4096"), 4096u);
  EXPECT_EQ(ArgMap::parse_size("64K"), 64u * 1024);
  EXPECT_EQ(ArgMap::parse_size("64KB"), 64u * 1024);
  EXPECT_EQ(ArgMap::parse_size("2m"), 2u * 1024 * 1024);
  EXPECT_EQ(ArgMap::parse_size("1G"), 1024ull * 1024 * 1024);
  EXPECT_THROW(ArgMap::parse_size("12X"), std::invalid_argument);
  EXPECT_THROW(ArgMap::parse_size(""), std::invalid_argument);
  // A scale that wraps 64 bits, or a sign, is refused, not wrapped.
  EXPECT_THROW(ArgMap::parse_size("17179869185G"), std::invalid_argument);
  EXPECT_THROW(ArgMap::parse_size("-1"), std::invalid_argument);
}

TEST(ArgMap, UnusedFlagsTracked) {
  auto args = ArgMap::parse({"--used", "1", "--typo", "2"});
  (void)args.get_u64("used", 0);
  auto stray = args.unused();
  ASSERT_EQ(stray.size(), 1u);
  EXPECT_EQ(stray[0], "typo");
}

TEST(ArgMap, MalformedNumberThrows) {
  auto args = ArgMap::parse({"--alpha", "1.5x"});
  EXPECT_THROW((void)args.get_f64("alpha", 0), std::invalid_argument);
}

// ------------------------------- commands ----------------------------------

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Cli, NoArgsPrintsUsage) {
  std::ostringstream out;
  EXPECT_EQ(run_cli({"she_tool"}, out), 2);
  EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  std::ostringstream out;
  EXPECT_EQ(run_cli({"she_tool", "frobnicate"}, out), 2);
  EXPECT_NE(out.str().find("unknown command"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  std::ostringstream out;
  EXPECT_EQ(run_cli({"she_tool", "help"}, out), 0);
}

TEST(Cli, UnknownFlagReported) {
  std::ostringstream out;
  int rc = run_cli({"she_tool", "membership", "--length", "10000",
                    "--bogus-flag", "1"},
                   out);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.str().find("bogus-flag"), std::string::npos);
}

TEST(Cli, GenerateAndInfoRoundTrip) {
  std::string path = temp_path("cli_trace.bin");
  std::ostringstream out;
  int rc = run_cli({"she_tool", "generate", "--out", path, "--dataset",
                    "distinct", "--length", "5000", "--seed", "3"},
                   out);
  ASSERT_EQ(rc, 0);
  EXPECT_NE(out.str().find("wrote 5000 items"), std::string::npos);
  EXPECT_NE(out.str().find("5000 distinct"), std::string::npos);

  std::ostringstream info;
  rc = run_cli({"she_tool", "info", "--file", path}, info);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(info.str().find("trace, 5000 items"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, MembershipRunsAndReportsNoFalseNegatives) {
  std::ostringstream out;
  int rc = run_cli({"she_tool", "membership", "--dataset", "distinct",
                    "--length", "200000", "--window", "32768", "--memory",
                    "32K", "--probes", "5000"},
                   out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("false-positive rate"), std::string::npos);
  EXPECT_NE(out.str().find("0/"), std::string::npos);  // zero false negatives
}

TEST(Cli, MembershipFromTraceFile) {
  std::string path = temp_path("cli_trace_mem.bin");
  std::ostringstream gen;
  ASSERT_EQ(run_cli({"she_tool", "generate", "--out", path, "--dataset",
                     "caida", "--length", "100000"},
                    gen),
            0);
  std::ostringstream out;
  int rc = run_cli({"she_tool", "membership", "--trace", path, "--window",
                    "16384", "--memory", "16K"},
                   out);
  EXPECT_EQ(rc, 0) << out.str();
  std::remove(path.c_str());
}

TEST(Cli, CardinalityBitmapAndHll) {
  for (const char* algo : {"bitmap", "hll"}) {
    std::ostringstream out;
    int rc = run_cli({"she_tool", "cardinality", "--algo", algo, "--dataset",
                      "campus", "--length", "200000", "--window", "32768",
                      "--memory", "8K"},
                     out);
    EXPECT_EQ(rc, 0) << algo << ": " << out.str();
    EXPECT_NE(out.str().find("mean relative error"), std::string::npos);
  }
}

TEST(Cli, CardinalityRejectsBadAlgo) {
  std::ostringstream out;
  EXPECT_EQ(run_cli({"she_tool", "cardinality", "--algo", "sketchy"}, out), 2);
}

TEST(Cli, FrequencyPrintsTopK) {
  std::ostringstream out;
  int rc = run_cli({"she_tool", "frequency", "--dataset", "webpage",
                    "--length", "200000", "--window", "32768", "--memory",
                    "256K", "--top", "5"},
                   out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("heavy hitters"), std::string::npos);
  // 5 result rows below the header.
  std::size_t rows = 0;
  std::istringstream lines(out.str());
  std::string line;
  bool in_table = false;
  while (std::getline(lines, line)) {
    if (line.find("estimate") != std::string::npos) {
      in_table = true;
      continue;
    }
    if (in_table && !line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 5u);
}

TEST(Cli, PipelineRunsAndReportsStats) {
  std::ostringstream out;
  int rc = run_cli({"she_tool", "pipeline", "--dataset", "caida", "--length",
                    "120000", "--window", "16384", "--memory", "512K",
                    "--shards", "2", "--producers", "2", "--queue", "1024",
                    "--query-interval-ms", "5", "--top", "3"},
                   out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("\nshe_pipeline_inserted_total{shard=\"1\"} "),
            std::string::npos);
  EXPECT_NE(out.str().find("queries during ingest"), std::string::npos);
  EXPECT_NE(out.str().find("final cardinality"), std::string::npos);
}

TEST(Cli, PipelineJsonOutput) {
  // Producers block for ring space, so nothing is dropped and exit 0 is
  // deterministic (lossy runs exit 1).
  std::ostringstream out;
  int rc = run_cli({"she_tool", "pipeline", "--dataset", "distinct",
                    "--length", "60000", "--window", "8192", "--shards", "2",
                    "--producers", "1", "--json"},
                   out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_EQ(out.str().front(), '{');
  EXPECT_NE(out.str().find("\"she_pipeline_rate_items_per_sec\""),
            std::string::npos);
  EXPECT_NE(out.str().find("\"labels\":{\"shard\":\"1\"}"), std::string::npos);
  EXPECT_NE(out.str().find("\"she_pipeline_push_timeouts_total\""),
            std::string::npos);
}

TEST(Cli, PipelineRejectsBadPolicy) {
  // Every pipeline blocks for ring space; --policy, with any value, is an
  // unknown flag.
  for (const char* value : {"yolo", "drop", "block-timeout", "block"}) {
    std::ostringstream out;
    EXPECT_EQ(run_cli({"she_tool", "pipeline", "--length", "1000", "--policy",
                       value},
                      out),
              2)
        << value;
    EXPECT_NE(out.str().find("unknown flag --policy"), std::string::npos)
        << out.str();
  }
}

TEST(Cli, PipelineRejectsRemovedPolicyFlags) {
  // The shedding policies' timeout, the sampler period and the opt-out
  // from supervision are unknown flags.
  for (const char* flag :
       {"--push-timeout-ms", "--sample-ms", "--no-supervise"}) {
    std::ostringstream out;
    EXPECT_EQ(run_cli({"she_tool", "pipeline", "--length", "1000", flag, "1"},
                      out),
              2)
        << flag;
    EXPECT_NE(out.str().find(std::string("unknown flag ") + flag),
              std::string::npos)
        << out.str();
  }
}

TEST(Cli, PipelineRejectsBadInjectSpec) {
  std::ostringstream out;
  EXPECT_EQ(run_cli({"she_tool", "pipeline", "--length", "1000", "--inject",
                     "frob:0"},
                    out),
            2);
  EXPECT_NE(out.str().find("fault point"), std::string::npos);
}

TEST(Cli, PipelineResumeRequiresCheckpointDir) {
  std::ostringstream out;
  EXPECT_EQ(run_cli({"she_tool", "pipeline", "--length", "1000", "--resume"},
                    out),
            2);
  EXPECT_NE(out.str().find("--resume requires --checkpoint-dir"),
            std::string::npos)
      << out.str();
}

TEST(Cli, PipelineResumeWithNoFramesFailsLoudly) {
  // A --resume pointed at a directory with no frames for this shard count
  // used to start silently from scratch — exactly what an operator who
  // mistyped a path does NOT want.  Now it is a hard, explained error.
  const std::string dir = temp_path("cli_resume_empty");
  std::filesystem::create_directories(dir);
  std::ostringstream out;
  int rc = run_cli({"she_tool", "pipeline", "--dataset", "distinct",
                    "--length", "1000", "--shards", "2", "--producers", "1",
                    "--checkpoint-dir", dir, "--resume"},
                   out);
  EXPECT_EQ(rc, 2) << out.str();
  EXPECT_NE(out.str().find("no checkpoint frames"), std::string::npos)
      << out.str();
  std::filesystem::remove_all(dir);
}

TEST(Cli, PipelineCheckpointKeepRetainsGenerations) {
  const std::string dir = temp_path("cli_ckpt_keep");
  std::ostringstream out;
  // Checkpoints piggyback on publishes, so force frequent publishes and a
  // small queue (otherwise the whole trace drains in one sweep and only
  // the final close() frame exists — nothing to rotate).
  int rc = run_cli({"she_tool", "pipeline", "--dataset", "distinct",
                    "--length", "40000", "--window", "4096", "--shards", "1",
                    "--producers", "1", "--queue", "1024", "--publish", "1024",
                    "--checkpoint-dir", dir, "--checkpoint-every", "4096",
                    "--checkpoint-keep", "3", "--json"},
                   out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_TRUE(std::filesystem::exists(dir + "/shard-0.ckpt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/shard-0.ckpt.1"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/shard-0.ckpt.2"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/shard-0.ckpt.3"));

  // The retained generations satisfy the resume guard.
  std::ostringstream out2;
  int rc2 = run_cli({"she_tool", "pipeline", "--dataset", "distinct",
                     "--length", "40000", "--window", "4096", "--shards", "1",
                     "--producers", "1", "--queue", "1024", "--publish", "1024",
                     "--checkpoint-dir", dir, "--checkpoint-every", "4096",
                     "--checkpoint-keep", "3", "--resume", "--json"},
                    out2);
  EXPECT_EQ(rc2, 0) << out2.str();
  std::filesystem::remove_all(dir);
}

constexpr std::size_t kMaxRestarts =
    runtime::IngestPipeline<StreamMonitor>::kMaxRestarts;

/// An --inject list that arms the worker throw `spec` kMaxRestarts + 1
/// times: the shard's worker dies once more than it restarts itself, so
/// the shard ends abandoned.
std::string abandon(const std::string& spec) {
  std::string list = spec;
  for (std::size_t i = 0; i < kMaxRestarts; ++i) list += "," + spec;
  return list;
}

TEST(Cli, PipelineExitsNonzeroOnDroppedItems) {
  // Kill the lone worker early, once more than it is restarted: the
  // abandoned shard rejects the rest of the 50k items, and lossy runs exit
  // 1.
  std::ostringstream out;
  int rc = run_cli({"she_tool", "pipeline", "--dataset", "distinct",
                    "--length", "50000", "--window", "4096", "--shards", "1",
                    "--producers", "1", "--queue", "64", "--inject",
                    abandon("throw:0:1000"), "--json"},
                   out);
  EXPECT_EQ(rc, 1) << out.str();
  const std::string dropped =
      "{\"name\":\"she_pipeline_dropped_total\",\"type\":\"counter\","
      "\"labels\":{\"shard\":\"0\"},\"value\":";
  const std::size_t at = out.str().find(dropped);
  ASSERT_NE(at, std::string::npos) << out.str();
  EXPECT_NE(out.str().substr(at + dropped.size(), 2), "0}") << out.str();
}

TEST(Cli, PipelineCheckpointFaultResumeRoundTrip) {
  const std::string dir = temp_path("cli_ckpt_dir");
  // Run 1: shard 0's worker killed mid-stream until it is abandoned;
  // periodic checkpoints survive it.  The faults make the run exit 1.
  std::ostringstream out1;
  int rc1 = run_cli({"she_tool", "pipeline", "--dataset", "distinct",
                     "--length", "60000", "--window", "8192", "--shards", "2",
                     "--producers", "1",
                     "--checkpoint-dir", dir, "--checkpoint-every", "4096",
                     "--publish", "1024", "--inject", abandon("throw:0:20000"),
                     "--json"},
                    out1);
  EXPECT_EQ(rc1, 1) << out1.str();
  EXPECT_NE(out1.str().find(
                "{\"name\":\"she_pipeline_worker_faults_total\",\"type\":"
                "\"counter\",\"labels\":{\"shard\":\"0\"},\"value\":" +
                std::to_string(kMaxRestarts + 1) + "}"),
            std::string::npos)
      << out1.str();

  // Each surviving frame holds exactly the first stream_offset keys routed
  // to its shard, even when a restart lost items: its membership and
  // frequency answers match a monitor fed that prefix.  (The heavy-hitter
  // table breaks eviction ties in hash-map order, which a restore
  // reshuffles, so whole-state bytes are not compared.)
  const auto trace = stream::distinct_trace(60000, 1);
  runtime::PipelineOptions routing;
  routing.shards = 2;
  const ConcurrentMonitor router(MonitorConfig{}, routing);
  for (std::size_t s = 0; s < routing.shards; ++s) {
    const CheckpointData ck =
        read_checkpoint_file(dir + "/shard-" + std::to_string(s) + ".ckpt");
    const auto frame = runtime::deserialize<StreamMonitor>(
        ck.payload().data(), ck.payload().size());
    StreamMonitor prefix(frame.config());
    std::uint64_t left = ck.stream_offset;
    for (std::uint64_t k : trace)
      if (left > 0 && router.shard_of(k) == s) {
        prefix.insert(k);
        --left;
      }
    ASSERT_EQ(frame.time(), ck.stream_offset) << "shard " << s;
    std::size_t mismatches = 0;
    for (std::uint64_t k : trace)
      if (router.shard_of(k) == s &&
          (frame.seen(k) != prefix.seen(k) ||
           frame.frequency(k) != prefix.frequency(k)))
        ++mismatches;
    EXPECT_EQ(mismatches, 0u) << "shard " << s << " frame at offset "
                              << ck.stream_offset << " is not a prefix";
  }

  // Run 2: resume from the surviving frames and replay the same trace; the
  // already-covered per-shard prefixes are skipped and the run is clean.
  std::ostringstream out2;
  int rc2 = run_cli({"she_tool", "pipeline", "--dataset", "distinct",
                     "--length", "60000", "--window", "8192", "--shards", "2",
                     "--producers", "1",
                     "--checkpoint-dir", dir, "--checkpoint-every", "4096",
                     "--publish", "1024", "--resume", "--json"},
                    out2);
  EXPECT_EQ(rc2, 0) << out2.str();
  const std::string& js = out2.str();
  const auto pos = js.find("\"skipped_on_resume\":");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(js.find("\"skipped_on_resume\":0,"), std::string::npos)
      << "expected a nonzero resume skip: " << js;

  std::filesystem::remove_all(dir);
}

TEST(Cli, SimilaritySyntheticPair) {
  std::ostringstream out;
  int rc = run_cli({"she_tool", "similarity", "--length", "100000",
                    "--overlap", "0.7", "--window", "8192", "--slots", "256"},
                   out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("estimated Jaccard"), std::string::npos);
  EXPECT_NE(out.str().find("exact Jaccard"), std::string::npos);
}

TEST(Cli, SimilarityLengthMismatchRejected) {
  std::string pa = temp_path("cli_a.bin");
  std::string pb = temp_path("cli_b.bin");
  std::ostringstream tmp;
  ASSERT_EQ(run_cli({"she_tool", "generate", "--out", pa, "--dataset",
                     "distinct", "--length", "1000"},
                    tmp),
            0);
  ASSERT_EQ(run_cli({"she_tool", "generate", "--out", pb, "--dataset",
                     "distinct", "--length", "2000"},
                    tmp),
            0);
  std::ostringstream out;
  EXPECT_EQ(run_cli({"she_tool", "similarity", "--trace-a", pa, "--trace-b",
                     pb, "--window", "512"},
                    out),
            2);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(Cli, MembershipCheckpointSaveResumeInfo) {
  std::string ckpt = temp_path("cli_bf.ckpt");
  std::ostringstream out1;
  int rc = run_cli({"she_tool", "membership", "--dataset", "caida", "--length",
                    "60000", "--window", "16384", "--memory", "16K", "--save",
                    ckpt, "--probes", "2000"},
                   out1);
  ASSERT_EQ(rc, 0) << out1.str();
  EXPECT_NE(out1.str().find("checkpoint saved"), std::string::npos);

  std::ostringstream info;
  ASSERT_EQ(run_cli({"she_tool", "info", "--file", ckpt}, info), 0);
  EXPECT_NE(info.str().find("SHE-BF checkpoint"), std::string::npos);
  EXPECT_NE(info.str().find("stream position: 60000"), std::string::npos);

  std::ostringstream out2;
  rc = run_cli({"she_tool", "membership", "--resume", ckpt, "--dataset",
                "caida", "--length", "30000", "--seed", "2", "--probes",
                "2000"},
               out2);
  EXPECT_EQ(rc, 0) << out2.str();

  // The file is a CRC frame: one flipped payload byte fails --resume with
  // the checkpoint reader's typed error.
  {
    std::fstream f(ckpt, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-1, std::ios::end);
    const char last = static_cast<char>(f.get());
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(last ^ 0x20));
  }
  EXPECT_THROW((void)read_checkpoint_file(ckpt), CheckpointError);
  std::ostringstream out3;
  EXPECT_EQ(run_cli({"she_tool", "membership", "--resume", ckpt, "--dataset",
                     "caida", "--length", "1000"},
                    out3),
            2);
  EXPECT_NE(out3.str().find("checkpoint rejected: CRC mismatch"),
            std::string::npos)
      << out3.str();
  std::remove(ckpt.c_str());
}

TEST(Cli, TextTraceIngestion) {
  std::string path = temp_path("cli_keys.txt");
  {
    std::ofstream os(path);
    os << "# flows\n";
    for (int i = 0; i < 3000; ++i)
      os << "10.0." << i % 256 << "." << i / 256 << ":443\n";
  }
  std::ostringstream out;
  int rc = run_cli({"she_tool", "cardinality", "--trace-text", path,
                    "--window", "1024", "--memory", "4K"},
                   out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("mean relative error"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, InfoOnUnknownFileFormat) {
  std::string path = temp_path("cli_junk.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << "JUNKJUNKJUNK";
  }
  std::ostringstream out;
  EXPECT_EQ(run_cli({"she_tool", "info", "--file", path}, out), 1);
  EXPECT_NE(out.str().find("unknown format"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, VerifyScrubsCheckpointsAndWals) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(temp_path("cli_verify_root"));
  fs::remove_all(root);
  fs::create_directories(root / "pipe");

  const std::vector<char> payload = {'s', 't', 'a', 't', 'e'};
  const std::string ckpt = (root / "pipe" / "shard-0.ckpt").string();
  std::vector<char> frame(she::kCheckpointHeaderBytes + payload.size());
  std::copy(payload.begin(), payload.end(),
            frame.begin() + she::kCheckpointHeaderBytes);
  she::seal_checkpoint(frame, 42);
  she::write_file_atomic(ckpt, frame);
  {
    she::ShardWal wal((root / "pipe" / "shard-0.wal").string(), {},
                      she::WalScan{});
    const std::uint64_t keys[] = {1, 2, 3};
    ASSERT_TRUE(wal.append(keys, /*client_id=*/7, /*client_seq=*/1));
    wal.flush();
  }

  std::ostringstream ok;
  EXPECT_EQ(run_cli({"she_tool", "verify", "--dir", root.string()}, ok), 0)
      << ok.str();
  EXPECT_NE(ok.str().find("0 corrupt"), std::string::npos) << ok.str();

  // Flip one payload byte: the checkpoint's CRC must catch it and the
  // scrub must name the file and exit nonzero.
  {
    std::fstream f(ckpt, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('X');
  }
  std::ostringstream bad;
  EXPECT_EQ(run_cli({"she_tool", "verify", "--dir", root.string()}, bad), 1);
  EXPECT_NE(bad.str().find("CORRUPT"), std::string::npos) << bad.str();
  EXPECT_NE(bad.str().find("shard-0.ckpt"), std::string::npos) << bad.str();

  std::ostringstream js;
  EXPECT_EQ(run_cli({"she_tool", "verify", "--dir", root.string(), "--json"},
                    js),
            1);
  EXPECT_NE(js.str().find("\"corrupt\":1"), std::string::npos) << js.str();
  fs::remove_all(root);
}

TEST(Cli, VerifyScansEachWalAsOneLog) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(temp_path("cli_verify_log"));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string log = (dir / "shard-0.wal").string();
  {
    she::ShardWal::Options opt;
    opt.segment_bytes = 256;  // a few frames per segment
    she::ShardWal wal(log, opt, she::WalScan{});
    for (std::uint64_t i = 0; i < 12; ++i) {
      const std::uint64_t keys[] = {3 * i, 3 * i + 1, 3 * i + 2};
      ASSERT_TRUE(wal.append(keys, 7, i + 1));
    }
  }
  const she::WalScan scan = she::read_wal(log);
  ASSERT_GE(scan.segments.size(), 2u);
  std::ostringstream ok;
  EXPECT_EQ(run_cli({"she_tool", "verify", "--dir", dir.string()}, ok), 0)
      << ok.str();

  // The first segment copied behind the last one: each file alone is a
  // valid log, but as the log's tail its seqs regress, so a resume would
  // cut the log there.  The scrub must judge the log, not the files.
  fs::copy_file(scan.segments.front().path,
                dir / "shard-0.00000000000000099999.wal");
  std::ostringstream bad;
  EXPECT_EQ(run_cli({"she_tool", "verify", "--dir", dir.string()}, bad), 1)
      << bad.str();
  EXPECT_NE(bad.str().find("CORRUPT  " + log + ": "), std::string::npos)
      << bad.str();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace she::tools
