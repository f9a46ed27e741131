// Replication and failover tests: a hot standby bootstraps from the
// primary's files, tails its WAL stream, sheds writes with the typed
// read-only status, and — after a promote — answers every estimator's
// queries byte-identically to an unfaulted single-node run over the same
// stream.  Also covers the disk-fault degraded mode (injected ENOSPC/EIO
// park the pipeline read-only and the probe recovers it) and the
// multi-endpoint client failover.  This binary carries the ctest label
// `tsan`: the replication hub fan-out, the replica apply thread racing
// queries, and promote/stop joins are new concurrency surfaces.
#include "server/replica.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.hpp"
#include "common/wal.hpp"
#include "runtime/ingest_pipeline.hpp"
#include "runtime/snapshot.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace she::server {
namespace {

std::string temp_dir(const char* name) {
  auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

struct LiveServer {
  explicit LiveServer(ServerOptions opt) : server(std::move(opt)) {
    server.start();
  }
  SheClient client() { return SheClient("127.0.0.1", server.port()); }
  SheServer server;
};

ServerOptions base_options(const std::string& root) {
  ServerOptions opt;
  opt.port = 0;
  opt.http_port = -1;
  opt.manager.checkpoint_root = root;
  return opt;
}

ServerOptions standby_options(const std::string& root, std::uint16_t primary) {
  ServerOptions opt = base_options(root);
  opt.role = "standby";
  opt.follow = {"127.0.0.1:" + std::to_string(primary)};
  return opt;
}

/// The pipeline's accepted-item count: its she_pipeline_produced_total
/// series in the STATS document, summed.  The standby applies exactly the
/// items the primary accepted, so equal counts mean every published frame
/// has been applied.
std::uint64_t produced_of(SheClient& c, const std::string& name) {
  const std::string s = c.stats_json(name);
  const std::string series = "\"name\":\"she_pipeline_produced_total\"";
  const std::string value = "\"value\":";
  std::uint64_t total = 0;
  bool found = false;
  for (auto at = s.find(series); at != std::string::npos;
       at = s.find(series, at + 1)) {
    total += std::stoull(s.substr(s.find(value, at) + value.size()));
    found = true;
  }
  if (!found) ADD_FAILURE() << "no she_pipeline_produced_total: " << s;
  return total;
}

/// Poll until the standby's accepted-item counters match the primary's
/// for every named pipeline (kNotFound while a CREATE is still in flight
/// counts as "not yet").
void wait_caught_up(SheClient& pc, SheClient& sc,
                    std::initializer_list<const char*> names,
                    std::uint64_t timeout_ms = 20000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    bool ok = true;
    for (const char* name : names) {
      try {
        ok = ok && produced_of(sc, name) == produced_of(pc, name);
      } catch (const ClientError&) {
        ok = false;
      }
    }
    if (ok) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "standby never caught up with the primary";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// Poll until the standby has adopted `name`.  A standby that bootstraps
/// *after* the pipeline already held data resumes it from shipped files,
/// which does not pass through the `produced` counter — list membership
/// is the caught-up signal for late joiners.
void wait_has_pipeline(SheClient& sc, const std::string& name,
                       std::uint64_t timeout_ms = 20000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    try {
      const auto names = sc.list();
      if (std::find(names.begin(), names.end(), name) != names.end()) return;
    } catch (const ClientError&) {
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "standby never adopted pipeline '" << name << "'";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// Poll until the standby has finished its first bootstrap, i.e. it is
/// subscribed to the primary's stream.  Tests that compare `produced`
/// counters need this before the primary's CREATE: a standby still
/// connecting when the pipeline fills would adopt it from files instead
/// (see wait_has_pipeline), and its counter would never match.
void wait_subscribed(SheServer& standby, std::uint64_t timeout_ms = 20000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (standby.render_healthz().find("\"synced\":true") ==
         std::string::npos) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "standby never subscribed to the primary";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Poll the standby's health document until the replication section
/// reports zero lag (needs a heartbeat after the last applied frame).
void wait_lag_zero(SheServer& standby, std::uint64_t timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::string h = standby.render_healthz();
    if (h.find("\"synced\":true") != std::string::npos &&
        h.find("\"lag_items\":0") != std::string::npos) {
      return;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "lag never reached zero; healthz: " << h;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// Two pipelines cover all five estimators: "a" runs SHE-BF (membership),
// SHE-BM (bitmap cardinality), SHE-CM + heavy hitters (frequency/top-k)
// and SHE-MH (similarity); "b" swaps the cardinality estimator for
// SHE-HLL and provides the second minhash for the Jaccard query.
// similarity requires shards=1 (jaccard compares lock-step signatures,
// which per-shard routing would break), so both run single-sharded.  The
// signatures are kept short: SHE-MH touches every slot per insert, and the
// budget-derived 4096 slots cost ~2 ms per key under ThreadSanitizer with
// the scalar path forced, enough to overrun the server's 5 s FLUSH barrier.
constexpr const char* kSpecA =
    "window=4096 memory=256K shards=1 wal=async similarity "
    "similarity-slots=256 checkpoint-every=1024";
constexpr const char* kSpecB =
    "window=4096 memory=128K shards=1 wal=async hll similarity "
    "similarity-slots=256";

std::vector<std::uint64_t> stream_keys(std::size_t n) {
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mild skew so the heavy-hitter structure has real work to do.
    keys[i] = (i % 7 == 0) ? i % 13 : i % 2500;
  }
  return keys;
}

void ingest(SheClient& c, std::span<const std::uint64_t> keys,
            std::size_t from, std::size_t to) {
  constexpr std::size_t kChunk = 500;  // fixed boundaries in every run
  for (std::size_t i = from; i < to; i += kChunk) {
    const std::size_t n = std::min(kChunk, to - i);
    c.insert_bulk("a", keys.subspan(i, n));
    c.insert_bulk("b", keys.subspan(i, n));
  }
}

/// Every query answer for both pipelines, serialized with full precision.
/// Two servers that processed the same stream must return the same bytes.
std::string answers(SheClient& c) {
  std::ostringstream os;
  os.precision(17);
  os << "card_a=" << c.query_cardinality("a")
     << " card_b=" << c.query_cardinality("b") << " top=[";
  for (const auto& [key, est] : c.query_topk("a", 8))
    os << key << ":" << est << ",";
  os << "] jaccard=" << c.query_jaccard("a", "b") << " probes=[";
  for (const std::uint64_t k : {0ull, 3ull, 12ull, 2499ull, 1048576ull}) {
    os << (c.query_membership("a", k) ? 1 : 0) << ":"
       << c.query_frequency("a", k) << ",";
  }
  os << "]";
  return os.str();
}

TEST(Replication, WalRecordsCarryTheSegmentsFrameBytes) {
  // A subscriber receives each data frame as [u8 kWal][str pipeline]
  // [u32 shard][str frame], the frame byte-equal to the one in the
  // segment, across rotations and for frames appended from two runs (a
  // sub-batch staged across the ring's wrap); the hub's end offset
  // follows the log.
  const std::string dir = temp_dir("repl_wal_records");
  obs::Registry registry;
  ReplicationHub hub(registry);
  const auto sub = hub.subscribe();
  ShardWal::Options opt;
  opt.segment_bytes = 256;  // a few frames per segment
  opt.observer = [&hub](std::uint64_t end_offset, std::span<const char> header,
                        std::span<const char> run1,
                        std::span<const char> run2) {
    hub.publish_wal("p", 3, end_offset, header, run1, run2);
  };
  std::uint64_t items = 0;
  {
    ShardWal wal(dir + "/shard-3.wal", opt, WalScan{});
    for (std::uint64_t n = 1; n <= 12; ++n) {
      std::vector<std::uint64_t> keys(n % 4 + 1);
      for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = (n << 32) | i;
      // Every third frame is wrapped: its keys come as two runs.
      const std::span<const std::uint64_t> all(keys);
      const std::size_t cut = n % 3 == 0 ? (keys.size() + 1) / 2 : keys.size();
      ASSERT_TRUE(wal.append(all.first(cut), all.subspan(cut), 5, n));
      items += keys.size();
    }
  }
  std::vector<std::string> segments;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    segments.push_back(e.path().string());
  std::sort(segments.begin(), segments.end());
  ASSERT_GE(segments.size(), 3u);
  std::vector<std::vector<char>> want;
  for (const std::string& file : segments) {
    std::vector<char> bytes;
    ASSERT_TRUE(read_file(file, bytes).has_value());
    for (std::size_t at = 0; at < bytes.size();) {
      WalFrame f;
      const std::size_t sz =
          parse_wal_frame(std::span<const char>(bytes).subspan(at), f);
      ASSERT_GT(sz, 0u);
      if (f.kind == kWalData) {
        std::vector<char> w_bytes;
        BinaryWriter w(w_bytes);
        w.u8(static_cast<std::uint8_t>(ReplRecord::kWal));
        w.str("p");
        w.u32(3);
        w.str(std::string_view(bytes.data() + at, sz));
        want.push_back(w_bytes);
      }
      at += sz;
    }
  }
  {
    std::lock_guard<std::mutex> lk(sub->mu);
    ASSERT_EQ(sub->q.size(), 12u);
    ASSERT_EQ(want.size(), 12u);
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(*sub->q[i], want[i]) << "record " << i;
  }
  std::vector<char> beat_bytes;
  BinaryWriter beat(beat_bytes);
  beat.u8(static_cast<std::uint8_t>(ReplRecord::kHeartbeat));
  beat.u32(1);
  beat.str("p");
  beat.u32(3);
  beat.u64(items);
  EXPECT_EQ(hub.heartbeat_record(), beat_bytes);
  hub.unsubscribe(sub);
  std::filesystem::remove_all(dir);
}

TEST(Replication, FailoverAnswersByteIdenticalToUnfaultedRun) {
  const auto keys = stream_keys(12000);
  const std::size_t half = keys.size() / 2;

  // Reference: one unfaulted server ingests the whole stream.
  std::string want;
  {
    LiveServer ref(base_options(temp_dir("repl_ref")));
    SheClient c = ref.client();
    c.create("a", kSpecA);
    c.create("b", kSpecB);
    ingest(c, keys, 0, keys.size());
    c.flush("a");
    c.flush("b");
    want = answers(c);
    ref.server.request_stop();
    ref.server.stop();
  }

  // Faulted run: primary + hot standby; the primary dies mid-stream.
  auto prim = std::make_unique<LiveServer>(base_options(temp_dir("repl_prim")));
  const std::uint16_t prim_port = prim->server.port();
  LiveServer stby(standby_options(temp_dir("repl_stby"), prim_port));
  EXPECT_TRUE(stby.server.standby());
  wait_subscribed(stby.server);

  ClientOptions copt;
  copt.max_retries = 10;
  copt.backoff_initial_ms = 25;
  copt.backoff_max_ms = 400;
  SheClient c(std::vector<std::string>{
                  "127.0.0.1:" + std::to_string(prim_port),
                  "127.0.0.1:" + std::to_string(stby.server.port())},
              copt);
  c.create("a", kSpecA);
  c.create("b", kSpecB);
  ingest(c, keys, 0, half);
  c.flush("a");
  c.flush("b");

  // Let the stream drain, then take the primary down.  stop() is the
  // in-process stand-in for kill -9 — the cross-process variant lives in
  // scripts/chaos.sh --failover; replication-wise the standby has already
  // applied everything either way.
  {
    SheClient pc("127.0.0.1", prim_port);
    SheClient sc("127.0.0.1", stby.server.port());
    wait_caught_up(pc, sc, {"a", "b"});
  }
  wait_lag_zero(stby.server);
  prim->server.request_stop();
  prim->server.stop();
  prim.reset();

  // Promote over the wire; the failover client replays the second half —
  // its first attempts still aim at the dead primary and rotate.
  {
    SheClient sc("127.0.0.1", stby.server.port());
    sc.promote();
  }
  EXPECT_FALSE(stby.server.standby());

  ingest(c, keys, half, keys.size());
  c.flush("a");
  c.flush("b");
  const std::string got = answers(c);
  EXPECT_EQ(got, want);

  stby.server.request_stop();
  stby.server.stop();
}

TEST(Replication, StandbyServesReadsShedsWritesTyped) {
  LiveServer prim(base_options(temp_dir("repl_ro_prim")));
  LiveServer stby(
      standby_options(temp_dir("repl_ro_stby"), prim.server.port()));
  wait_subscribed(stby.server);

  SheClient pc = prim.client();
  pc.create("ro", "window=1024 shards=1 wal=async");
  std::vector<std::uint64_t> keys(2000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i % 300;
  pc.insert_bulk("ro", keys);
  pc.flush("ro");
  SheClient sc = stby.client();
  wait_caught_up(pc, sc, {"ro"});

  // Reads work (exactly what the primary would answer)...
  EXPECT_EQ(sc.list(), std::vector<std::string>{"ro"});
  sc.promote();
  sc.flush("ro");  // publish the replica's applied items for querying
  EXPECT_EQ(sc.query_cardinality("ro"), pc.query_cardinality("ro"));

  // ...but before the promote, every write class was shed with the typed
  // status (checked on a second standby so the promote above is isolated).
  // This standby joins late: it bootstraps "ro" from the primary's files
  // instead of watching it stream in.
  LiveServer stby2(
      standby_options(temp_dir("repl_ro_stby2"), prim.server.port()));
  SheClient s2 = stby2.client();
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (s2.list().empty()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "late standby never bootstrapped the pipeline";
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const auto expect_readonly = [](auto&& fn) {
    try {
      fn();
      FAIL() << "standby accepted a write";
    } catch (const ClientError& e) {
      EXPECT_EQ(e.status(), Status::kReadOnly);
    }
  };
  expect_readonly([&] { s2.create("x", ""); });
  expect_readonly([&] { s2.insert("ro", 1); });
  expect_readonly([&] { s2.insert_bulk("ro", keys); });
  expect_readonly([&] { s2.drop("ro"); });

  // healthz reports the role on both sides.
  EXPECT_NE(stby2.server.render_healthz().find("\"role\":\"standby\""),
            std::string::npos);
  EXPECT_NE(prim.server.render_healthz().find("\"role\":\"primary\""),
            std::string::npos);

  for (SheServer* s : {&stby2.server, &stby.server, &prim.server}) {
    s->request_stop();
    s->stop();
  }
}

TEST(Replication, PromoteIsIdempotentAndPrimaryNoOp) {
  LiveServer prim(base_options(temp_dir("repl_promote_prim")));
  SheClient pc = prim.client();
  pc.promote();  // primary: acknowledged, nothing changes
  EXPECT_FALSE(prim.server.standby());
  pc.create("p", "window=512 shards=1 wal=async");
  EXPECT_EQ(pc.insert("p", 1), 1u);

  LiveServer stby(
      standby_options(temp_dir("repl_promote_stby"), prim.server.port()));
  SheClient sc = stby.client();
  wait_has_pipeline(sc, "p");
  sc.promote();
  sc.promote();  // second promote: still OK
  EXPECT_FALSE(stby.server.standby());
  EXPECT_EQ(sc.insert("p", 2), 1u);  // writes flow after the flip

  for (SheServer* s : {&stby.server, &prim.server}) {
    s->request_stop();
    s->stop();
  }
}

TEST(Replication, DropAndLateCreateReplicate) {
  LiveServer prim(base_options(temp_dir("repl_ddl_prim")));
  LiveServer stby(
      standby_options(temp_dir("repl_ddl_stby"), prim.server.port()));
  wait_subscribed(stby.server);
  SheClient pc = prim.client();

  pc.create("first", "window=512 shards=1 wal=async");
  pc.insert("first", 7);
  pc.flush("first");
  SheClient sc = stby.client();
  wait_caught_up(pc, sc, {"first"});
  EXPECT_EQ(sc.list(), std::vector<std::string>{"first"});

  pc.drop("first");
  pc.create("second", "window=512 shards=1 wal=async");
  pc.insert("second", 9);
  pc.flush("second");
  wait_caught_up(pc, sc, {"second"});
  EXPECT_EQ(sc.list(), std::vector<std::string>{"second"});

  for (SheServer* s : {&stby.server, &prim.server}) {
    s->request_stop();
    s->stop();
  }
}

TEST(Replication, MultiSegmentBootstrapResumesByteIdentical) {
  // A late standby bootstraps a pipeline whose log spans several 4 MiB
  // segments, the oldest already retired by checkpoints: it must receive
  // the surviving segments in order and resume to the primary's exact
  // state.
  const std::string prim_root = temp_dir("repl_seg_prim");
  LiveServer prim(base_options(prim_root));
  SheClient pc = prim.client();
  // 64K-key frames fill a segment every 512K keys; one checkpoint at 768K
  // retires the first segment and leaves the next two.
  pc.create("m", "window=64K memory=256K shards=1 wal=async "
                 "checkpoint-every=768K");
  std::vector<std::uint64_t> keys(1'200'000);  // ~9.6 MiB of log
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = (i * 7919) % 90'000;
  constexpr std::size_t kChunk = 1 << 16;
  for (std::size_t i = 0; i < keys.size(); i += kChunk)
    pc.insert_bulk("m", std::span<const std::uint64_t>(keys).subspan(
                            i, std::min(kChunk, keys.size() - i)));
  pc.flush("m");
  std::size_t segments = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(std::filesystem::path(prim_root) / "m"))
    segments += e.path().extension() == ".wal" ? 1 : 0;
  EXPECT_GE(segments, 2u) << "the log should span several segments";
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(prim_root) / "m" /
                                       "shard-0.00000000000000000001.wal"))
      << "the first segment should be retired";

  LiveServer stby(standby_options(temp_dir("repl_seg_stby"), prim.server.port()));
  SheClient sc = stby.client();
  wait_has_pipeline(sc, "m");
  const auto p = prim.server.manager().find("m");
  const auto s = stby.server.manager().find("m");
  ASSERT_TRUE(p && s);
  EXPECT_EQ(s->monitor().resume_offset(0), keys.size());
  std::vector<char> want, got;
  runtime::serialize_to(want, *p->monitor().view(0));
  runtime::serialize_to(got, *s->monitor().view(0));
  EXPECT_TRUE(want == got) << "standby state differs from the primary's";

  for (SheServer* srv : {&stby.server, &prim.server}) {
    srv->request_stop();
    srv->stop();
  }
}

/// Armed faults must never leak into other tests.
struct FaultGuard {
  ~FaultGuard() { fault::injector().clear(); }
};

/// A primary played by the test: it accepts one standby, answers its
/// REPLICATE with kOk, then sends whatever records the test writes.
class ScriptedPrimary {
 public:
  ScriptedPrimary() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 4) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0)
      ADD_FAILURE() << "cannot listen on the loopback";
    port_ = ntohs(addr.sin_port);
  }
  ~ScriptedPrimary() {
    if (conn_ >= 0) ::close(conn_);
    ::close(listen_fd_);
  }
  ScriptedPrimary(const ScriptedPrimary&) = delete;
  ScriptedPrimary& operator=(const ScriptedPrimary&) = delete;

  /// Standby options that follow this primary.
  [[nodiscard]] ReplicaClientOptions follow() const {
    ReplicaClientOptions opt;
    opt.endpoints = {"127.0.0.1:" + std::to_string(port_)};
    return opt;
  }

  /// Accept the standby and answer its REPLICATE request with kOk.
  void accept_standby() {
    conn_ = ::accept(listen_fd_, nullptr, nullptr);
    ASSERT_GE(conn_, 0);
    std::vector<char> body;
    ASSERT_TRUE(read_frame(conn_, body));
    ASSERT_FALSE(body.empty());
    ASSERT_EQ(static_cast<std::uint8_t>(body[0]),
              static_cast<std::uint8_t>(Op::kReplicate));
    const char ok[] = {static_cast<char>(Status::kOk)};
    write_frame(conn_, ok);
  }

  void send(const std::vector<char>& record) { write_frame(conn_, record); }

 private:
  int listen_fd_ = -1;
  int conn_ = -1;
  std::uint16_t port_ = 0;
};

std::vector<char> create_record(const std::string& name,
                                const std::string& spec) {
  std::vector<char> w_bytes;
  BinaryWriter w(w_bytes);
  w.u8(static_cast<std::uint8_t>(ReplRecord::kCreate));
  w.str(name);
  w.str(spec);
  return w_bytes;
}

/// A kWal record carrying shard 0's first data frame: `keys` from offset 0.
std::vector<char> wal_record(const std::string& name,
                             std::span<const std::uint64_t> keys) {
  WalFrame f;
  f.seq = 1;
  f.payload = {reinterpret_cast<const char*>(keys.data()), keys.size() * 8};
  const std::vector<char> frame = frame_wal(f);
  std::vector<char> w_bytes;
  BinaryWriter w(w_bytes);
  w.u8(static_cast<std::uint8_t>(ReplRecord::kWal));
  w.str(name);
  w.u32(0);
  w.str(std::string_view(frame.data(), frame.size()));
  return w_bytes;
}

/// Poll `done` for up to 20 s.
template <class Done>
void wait_for(Done&& done, const char* what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

obs::Counter& frames_applied(obs::Registry& registry) {
  return registry.counter("she_replica_frames_applied_total",
                          "replicated WAL frames applied to local pipelines");
}

TEST(Replication, StandbyAppliesAWalRecordAtEveryFrameAlignment) {
  // The standby takes a kWal record's frame as words in place, moved down
  // to an 8-byte boundary inside the record body.  Where the frame starts
  // depends on the pipeline name's length: names of 1 to 8 bytes put it at
  // every offset mod 8, and each pipeline must hold the same keys.
  const std::string root = temp_dir("repl_wal_alignment");
  constexpr const char* kSpec = "window=4096 memory=64K shards=1";
  const std::vector<std::uint64_t> keys = stream_keys(700);
  ScriptedPrimary primary;
  PipelineManager::Options mopt;
  mopt.checkpoint_root = root;
  PipelineManager manager(mopt);
  obs::Registry registry;
  ReplicaClient standby(primary.follow(), manager, registry);
  standby.start();
  ASSERT_NO_FATAL_FAILURE(primary.accept_standby());
  std::vector<std::string> names;
  for (std::size_t len = 1; len <= 8; ++len) {
    names.push_back(std::string(len, static_cast<char>('a' + len - 1)));
    primary.send(create_record(names.back(), kSpec));
    primary.send(wal_record(names.back(), keys));
  }
  wait_for([&] { return frames_applied(registry).value() == names.size(); },
           "the standby never applied every frame");
  EXPECT_EQ(standby.lag_items(), 0u);

  const auto image = [&](const std::string& name) {
    const auto entry = manager.find(name);
    EXPECT_TRUE(entry && entry->monitor().flush());
    std::vector<char> out;
    BinaryWriter w(out);
    entry->monitor().view(0)->save(w);
    return out;
  };
  const auto ref = manager.create("reference", kSpec);
  ASSERT_EQ(ref->insert_bulk(keys), keys.size());
  const std::vector<char> want = image("reference");
  for (const std::string& name : names)
    EXPECT_EQ(image(name), want) << "pipeline '" << name << "'";
  standby.stop();
  std::filesystem::remove_all(root);
}

TEST(Replication, StandbyDoesNotCountAFrameItFailedToApply) {
  // A disk fault on the standby makes its pipeline refuse a replicated
  // frame.  The frame must stay unapplied — its keys still count as lag,
  // and the applied-frames counter does not move — and the session ends,
  // so the next one re-bootstraps from the primary's files.  Only the
  // standby has a WAL in this process, so the armed ENOSPC hits it.
  const std::string root = temp_dir("repl_apply_failure");
  const std::vector<std::uint64_t> keys = stream_keys(300);
  ScriptedPrimary primary;
  PipelineManager::Options mopt;
  mopt.checkpoint_root = root;
  PipelineManager manager(mopt);
  obs::Registry registry;
  ReplicaClient standby(primary.follow(), manager, registry);
  standby.start();
  ASSERT_NO_FATAL_FAILURE(primary.accept_standby());
  primary.send(create_record("p", "window=4096 memory=64K shards=1 wal=async"));
  wait_for([&] { return manager.find("p") != nullptr; },
           "the standby never created the pipeline");
  fault::injector().arm(fault::parse_spec("wal-enospc"));
  primary.send(wal_record("p", keys));
  std::vector<char> beat_bytes;
  BinaryWriter beat(beat_bytes);
  beat.u8(static_cast<std::uint8_t>(ReplRecord::kHeartbeat));
  beat.u32(1);
  beat.str("p");
  beat.u32(0);
  beat.u64(keys.size());
  primary.send(beat_bytes);
  obs::Counter& sessions = registry.counter(
      "she_replica_reconnects_total",
      "replication sessions established (first connect included)");
  wait_for(
      [&] {
        return frames_applied(registry).value() > 0 ||
               (sessions.value() > 0 && !standby.connected());
      },
      "the standby neither applied the frame nor ended the session");
  fault::injector().clear();
  EXPECT_TRUE(manager.find("p")->monitor().degraded());
  EXPECT_EQ(frames_applied(registry).value(), 0u);
  EXPECT_EQ(standby.lag_items(), keys.size());
  standby.stop();
  std::filesystem::remove_all(root);
}

TEST(Degraded, WalEnospcParksPipelineReadOnlyThenRecovers) {
  FaultGuard guard;
  LiveServer live(base_options(temp_dir("degraded_enospc")));
  SheClient c = live.client();
  // The probe interval (1 s) is also the *minimum* width of the degraded
  // window (the one-shot fault cannot re-degrade after a successful
  // probe), which is long enough that a loaded scheduler cannot heal the
  // pipeline before the client observes kDegraded.
  c.create("d", "window=1024 shards=1 wal=async");
  EXPECT_EQ(c.insert("d", 1), 1u);
  c.flush("d");

  fault::injector().arm(fault::parse_spec("wal-enospc"));
  // The append that hits the injected ENOSPC fails this request and drops
  // the pipeline into degraded read-only mode; the exact status of the
  // first failure depends on where the fault lands, so only the *steady*
  // degraded answer is asserted.
  EXPECT_THROW(c.insert("d", 2), ClientError);
  bool saw_degraded = false;
  try {
    c.insert("d", 3);
  } catch (const ClientError& e) {
    saw_degraded = e.status() == Status::kDegraded;
  }
  EXPECT_TRUE(saw_degraded);

  // Reads keep working while degraded, and health reporting flips.
  (void)c.query_cardinality("d");
  EXPECT_NE(live.server.render_healthz().find("\"status\":\"degraded\""),
            std::string::npos);

  // The fault fires at most once, so the next probe (every second) heals
  // the pipeline and writes flow again.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    try {
      EXPECT_EQ(c.insert("d", 4), 1u);
      break;
    } catch (const ClientError&) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "pipeline never recovered from the injected ENOSPC";
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  EXPECT_NE(live.server.render_healthz().find("\"status\":\"ok\""),
            std::string::npos);
  live.server.request_stop();
  live.server.stop();
}

TEST(Degraded, CheckpointEioAlsoDegradesAndRecovers) {
  FaultGuard guard;
  LiveServer live(base_options(temp_dir("degraded_eio")));
  SheClient c = live.client();
  // Tiny checkpoint interval so SAVE/flush hits the checkpoint writer; the
  // 1 s probe interval keeps the one-shot fault's degraded window from
  // self-healing before the client observes it (see above).
  c.create("d", "window=1024 shards=1 wal=async checkpoint-every=64");
  fault::injector().arm(fault::parse_spec("ckpt-eio"));

  // Drive inserts until the injected checkpoint EIO parks the pipeline.
  bool saw_degraded = false;
  const auto fault_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<std::uint64_t> batch(128);
  for (std::uint64_t round = 0; !saw_degraded; ++round) {
    ASSERT_LT(std::chrono::steady_clock::now(), fault_deadline)
        << "injected ckpt-eio never surfaced";
    for (std::size_t i = 0; i < batch.size(); ++i)
      batch[i] = round * batch.size() + i;
    try {
      c.insert_bulk("d", batch);
      c.save("d");
    } catch (const ClientError& e) {
      saw_degraded = e.status() == Status::kDegraded;
    }
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    try {
      EXPECT_EQ(c.insert("d", 9), 1u);
      break;
    } catch (const ClientError&) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "pipeline never recovered from the injected EIO";
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  live.server.request_stop();
  live.server.stop();
}

}  // namespace
}  // namespace she::server
