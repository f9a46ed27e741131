// she_server tests: wire codec, spec language, HTTP parsing, the
// PipelineManager name table, and the full server lifecycle over real
// sockets — concurrent clients racing CREATE/DROP against INSERT/QUERY,
// malformed frames, the /metrics endpoint, and SIGTERM → checkpoint →
// restart → identical answers.  This binary carries the ctest label
// `tsan` (see tests/CMakeLists.txt): the connection handlers, manager
// lock discipline, and handlers sharing the pipelines' commit lanes are
// concurrency surfaces ThreadSanitizer must sweep.
#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/client.hpp"
#include "server/http.hpp"
#include "server/pipeline_manager.hpp"
#include "server/protocol.hpp"
#include "common/fault_injection.hpp"
#include "common/simd.hpp"
#include "common/wal.hpp"
#include "obs/trace.hpp"
#include "runtime/runtime_stats.hpp"

namespace she::server {
namespace {

std::string temp_dir(const char* name) {
  auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ------------------------------ wire codec ---------------------------------

TEST(Wire, RoundTrip) {
  WireWriter w;
  w.u8(7);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.25);
  w.str("hello");
  w.str("");
  WireReader r(w.body());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Wire, TruncationThrows) {
  WireWriter w;
  w.u32(3);  // a string length with no bytes behind it
  WireReader r(w.body());
  EXPECT_THROW((void)r.str(), ProtocolError);

  WireReader r2(std::span<const char>(w.body().data(), 2));
  EXPECT_THROW((void)r2.u32(), ProtocolError);
  WireReader r3(w.body());
  (void)r3.u32();
  EXPECT_THROW((void)r3.u8(), ProtocolError);
}

TEST(Wire, TrailingBytesRejected) {
  WireWriter w;
  w.u8(1);
  w.u8(2);
  WireReader r(w.body());
  (void)r.u8();
  EXPECT_THROW(r.expect_done(), ProtocolError);
}

TEST(Wire, OpcodeValidation) {
  EXPECT_THROW((void)op_from(0), ProtocolError);
  EXPECT_THROW((void)op_from(15), ProtocolError);
  EXPECT_THROW((void)op_from(200), ProtocolError);
  EXPECT_EQ(op_from(1), Op::kPing);
  EXPECT_EQ(op_from(11), Op::kShutdown);
  EXPECT_EQ(op_from(12), Op::kAuth);
  EXPECT_EQ(op_from(13), Op::kReplicate);
  EXPECT_EQ(op_from(14), Op::kPromote);
  EXPECT_THROW((void)query_type_from(0), ProtocolError);
  EXPECT_THROW((void)query_type_from(99), ProtocolError);
  EXPECT_EQ(query_type_from(5), QueryType::kJaccard);
}

// ------------------------------ spec parser --------------------------------

TEST(Wire, TraceHeaderParsesAndStrips) {
  // [0xF5][u64 id] before the body; read_trace_header consumes it only
  // when present and whole.
  std::vector<char> framed;
  framed.push_back(static_cast<char>(kTraceHeader));
  const std::uint64_t id = 0x1122334455667788ull;
  for (int b = 0; b < 8; ++b)
    framed.push_back(static_cast<char>((id >> (8 * b)) & 0xff));
  framed.push_back(static_cast<char>(Op::kPing));
  WireReader r(framed);
  EXPECT_EQ(read_trace_header(r), id);
  EXPECT_EQ(op_from(r.u8()), Op::kPing);
  r.expect_done();

  // Untraced bodies are untouched.
  const char plain[] = {static_cast<char>(Op::kPing)};
  WireReader p({plain, 1});
  EXPECT_EQ(read_trace_header(p), 0u);
  EXPECT_EQ(op_from(p.u8()), Op::kPing);

  // A 0xF5 first byte without the full 9 bytes is not a trace header.
  const char runt[] = {static_cast<char>(kTraceHeader), 1, 2};
  WireReader q({runt, 3});
  EXPECT_EQ(read_trace_header(q), 0u);
  EXPECT_EQ(q.remaining(), 3u);  // nothing consumed
}

TEST(Wire, SeqHeaderParsesAndStrips) {
  // [0xF6][u64 client_id][u64 client_seq] after the optional trace header;
  // read_seq_header consumes it only when present and whole.
  auto u64le = [](std::vector<char>& out, std::uint64_t v) {
    for (int b = 0; b < 8; ++b)
      out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  };
  std::vector<char> framed;
  framed.push_back(static_cast<char>(kSeqHeader));
  u64le(framed, 0xAB);
  u64le(framed, 42);
  framed.push_back(static_cast<char>(Op::kPing));
  WireReader r(framed);
  const ClientSeq cs = read_seq_header(r);
  EXPECT_EQ(cs.client_id, 0xABu);
  EXPECT_EQ(cs.client_seq, 42u);
  EXPECT_EQ(op_from(r.u8()), Op::kPing);
  r.expect_done();

  // Trace header then seq header: the request head reads both in order.
  std::vector<char> both;
  both.push_back(static_cast<char>(kTraceHeader));
  u64le(both, 7);
  both.insert(both.end(), framed.begin(), framed.end());
  WireReader b(both);
  EXPECT_EQ(read_trace_header(b), 7u);
  EXPECT_EQ(read_seq_header(b).client_seq, 42u);
  EXPECT_EQ(op_from(b.u8()), Op::kPing);
  b.expect_done();

  // Untagged bodies are untouched, and a runt 0xF6 is not a seq header.
  const char plain[] = {static_cast<char>(Op::kPing)};
  WireReader p({plain, 1});
  EXPECT_EQ(read_seq_header(p).client_id, 0u);
  EXPECT_EQ(p.remaining(), 1u);
  const char runt[] = {static_cast<char>(kSeqHeader), 1, 2, 3};
  WireReader q({runt, 4});
  EXPECT_EQ(read_seq_header(q).client_id, 0u);
  EXPECT_EQ(q.remaining(), 4u);  // nothing consumed
}

TEST(SpecParser, DefaultsAndOverrides) {
  const PipelineSpec def = parse_sketch_spec("");
  // Handler threads share the commit lanes, so the server needs no
  // producer slots: every request is pushed as producer 0.
  EXPECT_EQ(def.pipeline.producers, 1u);

  const PipelineSpec s = parse_sketch_spec(
      "window=16K memory=256K shards=2 queue=2048 publish=512 "
      "policy=block hll hh-slots=32 seed=9 checkpoint-every=4096");
  EXPECT_EQ(s.monitor.window, 16u * 1024);
  EXPECT_EQ(s.monitor.memory_bytes, 256u * 1024);
  EXPECT_TRUE(s.monitor.use_hll);
  EXPECT_EQ(s.monitor.heavy_hitter_slots, 32u);
  EXPECT_EQ(s.monitor.seed, 9u);
  EXPECT_EQ(s.pipeline.shards, 2u);
  EXPECT_EQ(s.pipeline.queue_capacity, 2048u);
  EXPECT_EQ(s.pipeline.publish_interval, 512u);
  EXPECT_EQ(s.pipeline.checkpoint_interval, 4096u);

  // `producers=`, `batch=` and `degraded-probe-ms=` were tuning knobs;
  // persisted specs that set them still parse, to the same options as the
  // spec without them.  A `producers=` value must size nothing: counter
  // labels registered under the manager's exclusive lock, 64K of them,
  // stall every other request.
  const std::string base = "window=4096 shards=2 queue=512";
  const PipelineSpec plain = parse_sketch_spec(base);
  for (const char* retired :
       {" batch=64 degraded-probe-ms=500", " producers=3", " producers=64K"}) {
    SCOPED_TRACE(retired);
    const PipelineSpec legacy = parse_sketch_spec(base + retired);
    EXPECT_EQ(legacy.monitor.window, plain.monitor.window);
    EXPECT_EQ(legacy.monitor.memory_bytes, plain.monitor.memory_bytes);
    EXPECT_EQ(legacy.pipeline.shards, plain.pipeline.shards);
    EXPECT_EQ(legacy.pipeline.producers, plain.pipeline.producers);
    EXPECT_EQ(legacy.pipeline.queue_capacity, plain.pipeline.queue_capacity);
    EXPECT_EQ(legacy.pipeline.publish_interval,
              plain.pipeline.publish_interval);
    EXPECT_EQ(legacy.pipeline.checkpoint_interval,
              plain.pipeline.checkpoint_interval);
    EXPECT_EQ(legacy.pipeline.checkpoint_keep, plain.pipeline.checkpoint_keep);
    EXPECT_EQ(legacy.wal, plain.wal);
    EXPECT_EQ(legacy.wal_fsync_bytes, plain.wal_fsync_bytes);
  }
}

TEST(SpecParser, Rejections) {
  EXPECT_THROW((void)parse_sketch_spec("frobnicate=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_sketch_spec("window=abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_sketch_spec("window"), std::invalid_argument);
  EXPECT_THROW((void)parse_sketch_spec("policy=maybe"), std::invalid_argument);
  // One slot past 2^63 overflows the ring's power-of-two round-up.  The
  // cap rejects it while parsing, which CREATE does before it takes the
  // manager lock and builds any ring.
  EXPECT_THROW((void)parse_sketch_spec("queue=9223372036854775809"),
               std::invalid_argument);
  // The shedding policies and their timeout are gone; the error points at
  // the request deadline, which replaced them.
  for (const char* removed :
       {"policy=drop", "policy=block-timeout", "push-timeout-ms=100"}) {
    try {
      (void)parse_sketch_spec(removed);
      ADD_FAILURE() << removed << " still parses";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--request-deadline-ms"),
                std::string::npos)
          << e.what();
    }
  }
  // SHE-MH jaccard needs lock-step streams; hash routing over 2 shards
  // breaks that, so the spec language refuses the combination.
  EXPECT_THROW((void)parse_sketch_spec("similarity shards=2"),
               std::invalid_argument);
  EXPECT_NO_THROW((void)parse_sketch_spec("similarity shards=1"));
}

TEST(SpecParser, NameValidation) {
  EXPECT_TRUE(valid_pipeline_name("web-frontend_2"));
  EXPECT_FALSE(valid_pipeline_name(""));
  EXPECT_FALSE(valid_pipeline_name("a/b"));
  EXPECT_FALSE(valid_pipeline_name(".."));
  EXPECT_FALSE(valid_pipeline_name(std::string(65, 'x')));
}

// --------------------------------- HTTP ------------------------------------

TEST(Http, RequestParsing) {
  const auto req = parse_http_request("GET /metrics HTTP/1.1\r\nHost: x\r\n");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->target, "/metrics");
  EXPECT_FALSE(parse_http_request("").has_value());
  EXPECT_FALSE(parse_http_request("garbage\r\n").has_value());
  EXPECT_FALSE(parse_http_request("GET /x SMTP/1.0\r\n").has_value());
}

TEST(Http, ResponseFormat) {
  const std::string resp = http_response(200, "OK", "text/plain", "body");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 4\r\n"), std::string::npos);
  EXPECT_NE(resp.find("\r\n\r\nbody"), std::string::npos);
}

// --------------------------- PipelineManager -------------------------------

TEST(PipelineManager, CreateFindDropAndDirLifecycle) {
  const std::string root = temp_dir("mgr_lifecycle");
  PipelineManager mgr({root, /*keep=*/1, /*resume=*/false});
  auto e = mgr.create("alpha", "window=4K memory=64K");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(root) / "alpha" / "spec"));
  EXPECT_EQ(mgr.find("alpha"), e);
  EXPECT_EQ(mgr.find("beta"), nullptr);
  EXPECT_THROW((void)mgr.create("alpha", ""), AlreadyExists);
  EXPECT_THROW((void)mgr.create("bad/name", ""), std::invalid_argument);
  EXPECT_THROW((void)mgr.create("badspec", "nope=1"), std::invalid_argument);
  // A CREATE that failed must not leave a ghost directory for resume.
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(root) / "badspec"));

  EXPECT_TRUE(mgr.drop("alpha"));
  EXPECT_FALSE(mgr.drop("alpha"));
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(root) / "alpha"));
  // The dropped entry is still safe to use through a retained shared_ptr;
  // pushes are rejected rather than touching freed memory.
  const std::uint64_t keys[] = {1, 2, 3};
  EXPECT_EQ(e->insert_bulk(keys), 0u);
}

TEST(PipelineManager, ResumeAllRestoresState) {
  const std::string root = temp_dir("mgr_resume");
  std::vector<std::uint64_t> keys(20000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i % 3000;
  double card = 0;
  {
    PipelineManager mgr({root, 2, false});
    auto e = mgr.create("walrus", "window=8K memory=128K shards=2 seed=5");
    EXPECT_EQ(e->insert_bulk(keys), keys.size());
    ASSERT_TRUE(e->monitor().save_now());
    card = e->monitor().report(0).cardinality.value();
    mgr.close_all();
  }
  PipelineManager mgr2({root, 2, /*resume=*/true});
  auto e = mgr2.find("walrus");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->monitor().report(0).cardinality.value(), card);
  // A subdirectory without a spec is ignored, not fatal.
  std::filesystem::create_directories(std::filesystem::path(root) / "junk");
  PipelineManager mgr3({root, 2, true});
  EXPECT_EQ(mgr3.size(), 1u);
}

TEST(PipelineManager, ResumeAllUpgradesPersistedPolicySpecs) {
  // Spec files written before the shedding policies were removed: one that
  // spells out `policy=block` (the only behaviour left) keeps resuming; one
  // with `policy=drop` is skipped with a warning, its directory kept for
  // the operator.
  const std::string root = temp_dir("mgr_resume_policy");
  const auto write_spec = [&](const std::string& name,
                              const std::string& spec) {
    const std::filesystem::path dir = std::filesystem::path(root) / name;
    std::filesystem::create_directories(dir);
    std::ofstream(dir / "spec") << spec << '\n';
  };
  write_spec("kept", "window=4K memory=64K policy=block");
  write_spec("shed", "window=4K memory=64K policy=drop");
  ::testing::internal::CaptureStderr();
  PipelineManager mgr({root, 1, /*resume=*/true});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(mgr.find("kept"), nullptr);
  EXPECT_EQ(mgr.find("shed"), nullptr);
  EXPECT_EQ(mgr.size(), 1u);
  EXPECT_NE(err.find("skipping 'shed'"), std::string::npos) << err;
  EXPECT_NE(err.find("--request-deadline-ms"), std::string::npos) << err;
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(root) / "shed" /
                                      "spec"));
}

// ------------------------------ live server --------------------------------

struct LiveServer {
  explicit LiveServer(ServerOptions opt = {}) : server(std::move(opt)) {
    server.start();
  }
  SheClient client() { return SheClient("127.0.0.1", server.port()); }
  SheServer server;
};

TEST(Server, BasicOpsEndToEnd) {
  LiveServer live;
  SheClient c = live.client();
  c.ping();
  c.create("web", "window=8K memory=128K shards=2");

  EXPECT_EQ(c.insert("web", 42), 1u);
  std::vector<std::uint64_t> keys(10000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i % 2000;
  EXPECT_EQ(c.insert_bulk("web", keys), keys.size());
  c.flush("web");

  EXPECT_TRUE(c.query_membership("web", 42));
  EXPECT_GE(c.query_frequency("web", 7), 1u);  // 7 appears in every cycle
  const double card = c.query_cardinality("web");
  EXPECT_GT(card, 1000.0);
  EXPECT_LT(card, 4000.0);
  const auto top = c.query_topk("web", 5);
  EXPECT_LE(top.size(), 5u);
  const std::string stats = c.stats_json("web");
  EXPECT_NE(stats.find("\"schema_version\""), std::string::npos);

  const auto names = c.list();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "web");

  c.drop("web");
  EXPECT_TRUE(c.list().empty());
}

TEST(Server, ErrorStatuses) {
  LiveServer live;
  SheClient c = live.client();
  c.create("dup", "window=4K memory=64K");

  try {
    c.create("dup", "");
    FAIL() << "expected kExists";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), Status::kExists);
  }
  try {
    (void)c.query_cardinality("ghost");
    FAIL() << "expected kNotFound";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), Status::kNotFound);
  }
  try {
    c.create("badspec", "bogus-token");
    FAIL() << "expected kBadRequest";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }
  try {
    c.create("bad/name", "");
    FAIL() << "expected kBadRequest";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }
  // Jaccard against a pipeline that doesn't track similarity.
  try {
    (void)c.query_jaccard("dup", "dup");
    FAIL() << "expected an error";
  } catch (const ClientError& e) {
    EXPECT_NE(e.status(), Status::kOk);
  }
}

TEST(Server, MalformedBodiesAreCountedAndSurvivable) {
  LiveServer live;
  SheClient c = live.client();

  // Unknown opcode: per-request error, connection keeps working.
  {
    const char body[] = {99};
    const std::vector<char> resp = c.roundtrip_raw({body, 1});
    ASSERT_FALSE(resp.empty());
    EXPECT_EQ(static_cast<Status>(resp[0]), Status::kBadRequest);
  }
  c.ping();

  // Trailing bytes after a well-formed request.
  {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Op::kPing));
    w.u8(0xab);
    const std::vector<char> resp = c.roundtrip_raw(w.body());
    EXPECT_EQ(static_cast<Status>(resp[0]), Status::kBadRequest);
  }
  c.ping();

  // A bulk insert whose claimed count exceeds the body.
  {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Op::kInsertBulk));
    w.str("nope");
    w.u32(1000);  // ...and zero key bytes behind it
    const std::vector<char> resp = c.roundtrip_raw(w.body());
    EXPECT_EQ(static_cast<Status>(resp[0]), Status::kBadRequest);
  }
  c.ping();

  // An oversized frame length is connection-fatal (framing cannot be
  // resynchronized) — but the server answers first and keeps serving
  // everyone else.
  {
    SheClient doomed = live.client();
    const unsigned char hdr[] = {0xff, 0xff, 0xff, 0xff};
    write_all(doomed.fd(), hdr, sizeof(hdr));
    std::vector<char> resp;
    ASSERT_TRUE(read_frame(doomed.fd(), resp));
    EXPECT_EQ(static_cast<Status>(resp[0]), Status::kBadRequest);
    EXPECT_FALSE(read_frame(doomed.fd(), resp));  // then EOF
  }
  c.ping();

  const std::string metrics = live.server.render_metrics();
  EXPECT_NE(metrics.find("she_server_protocol_errors_total 4"),
            std::string::npos)
      << metrics;
}

// Every server-side send carries MSG_NOSIGNAL, so a client that vanishes
// between request and response costs one connection, not the process.
// Without that flag the response write lands on a reset socket, raises
// SIGPIPE, and kills the server (the default disposition is terminate) —
// this test would then fail on the final ping.
TEST(Server, HalfClosedSocketsNeverRaiseSigpipe) {
  LiveServer live;
  SheClient c = live.client();
  c.create("gone", "window=4K memory=64K shards=2");

  auto vanish_after = [&](std::uint16_t port, const void* data,
                          std::size_t n, int repeats) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    // Pipeline several copies so at least one response write happens after
    // the connection is already dead, whatever the thread interleaving.
    for (int i = 0; i < repeats; ++i) write_all(fd, data, n);
    // SO_LINGER with zero timeout turns close() into a hard RST: the
    // kernel discards anything buffered and the server's next send sees
    // EPIPE/ECONNRESET instead of quietly landing in a buffer.
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd);
  };

  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kInsertBulk));
  w.str("gone");
  w.u32(2048);
  for (std::uint64_t i = 0; i < 2048; ++i) w.u64(i);
  std::vector<char> framed;
  const std::uint32_t len = static_cast<std::uint32_t>(w.body().size());
  for (int b = 0; b < 4; ++b)
    framed.push_back(static_cast<char>((len >> (8 * b)) & 0xff));
  framed.insert(framed.end(), w.body().begin(), w.body().end());

  for (int round = 0; round < 16; ++round)
    vanish_after(live.server.port(), framed.data(), framed.size(), 4);

  // The HTTP listener writes responses too — same vanishing act there.
  const std::string req = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
  for (int round = 0; round < 8; ++round)
    vanish_after(live.server.http_port(), req.data(), req.size(), 1);

  // Give the handler threads a beat to hit their dead sockets, then prove
  // the process is still here and still serving.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  c.ping();
  EXPECT_EQ(c.insert("gone", 99), 1u);
  c.flush("gone");
  EXPECT_TRUE(c.query_membership("gone", 99));
}

TEST(Server, ConcurrentClientsCreateDropRacingInsertQuery) {
  LiveServer live;
  const char* names[] = {"alpha", "beta"};
  std::atomic<bool> go{true};
  std::atomic<std::uint64_t> ops{0};

  auto worker = [&](unsigned tid) {
    SheClient c = live.client();
    std::vector<std::uint64_t> keys(256);
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = tid * 1000 + i;
    std::uint64_t it = 0;
    while (go.load(std::memory_order_acquire)) {
      const char* name = names[(tid + it) % 2];
      try {
        switch ((tid + it) % 5) {
          case 0:
            c.create(name, "window=4K memory=64K shards=2");
            break;
          case 1:
            (void)c.insert_bulk(name, keys);
            break;
          case 2:
            (void)c.query_cardinality(name);
            break;
          case 3:
            (void)c.query_membership(name, keys[it % keys.size()]);
            break;
          case 4:
            if (it % 7 == 0) c.drop(name);
            break;
        }
      } catch (const ClientError&) {
        // kExists / kNotFound are the expected casualties of the race.
      }
      ++it;
      ops.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) threads.emplace_back(worker, t);
  // Run until the stampede has really exercised the race, not for a fixed
  // wall-clock slice: a loaded single-core box under tsan can fall short of
  // any absolute ops/second floor.  The deadline only bounds a hung server.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ops.load(std::memory_order_relaxed) < 64 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  go.store(false, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_GE(ops.load(), 64u);
  SheClient c = live.client();
  c.ping();  // the server survived the stampede
}

TEST(Server, QueriesNeverAnswerFromADroppedIncarnation) {
  // One client keeps DROPping and re-CREATEing a pipeline under the same
  // name; incarnation e only ever holds its own marker key.  Once
  // incarnation e is flushed, every later answer must come from
  // incarnation e or newer (or be kNotFound while the name is vacant):
  // a reader holding on to an older incarnation's state would report an
  // older marker.  Under ASan this also catches a query touching the
  // state of a pipeline a DROP already closed.
  LiveServer live;
  const std::string name = "phoenix";
  const std::string spec = "window=4K memory=64K shards=2";
  constexpr std::uint64_t kRounds = 30;
  const auto marker = [](std::uint64_t e) { return 0xE000'0000ull + e; };
  std::atomic<std::uint64_t> flushed{0};  ///< newest fully flushed epoch
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};

  auto reader = [&] {
    SheClient c = live.client();
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t e = flushed.load(std::memory_order_acquire);
      if (e == 0) {
        std::this_thread::yield();
        continue;
      }
      try {
        for (const auto& hit : c.query_topk(name, 4)) {
          EXPECT_GE(hit.first, marker(e)) << "answered from an older incarnation";
          EXPECT_LE(hit.first, marker(kRounds));
        }
        if (e > 1) {
          EXPECT_FALSE(c.query_membership(name, marker(e - 1)))
              << "epoch " << e << " still sees its predecessor's key";
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      } catch (const ClientError& err) {
        EXPECT_EQ(err.status(), Status::kNotFound);  // between DROP and CREATE
      }
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader);

  SheClient admin = live.client();
  for (std::uint64_t e = 1; e <= kRounds; ++e) {
    if (e > 1) admin.drop(name);
    admin.create(name, spec);
    const std::vector<std::uint64_t> keys(64, marker(e));
    ASSERT_EQ(admin.insert_bulk(name, keys), keys.size());
    admin.flush(name);
    flushed.store(e, std::memory_order_release);
    // Let the readers land some queries on this incarnation.
    const std::uint64_t seen = answered.load(std::memory_order_relaxed);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (answered.load(std::memory_order_relaxed) < seen + 3 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GE(answered.load(), kRounds);
  const auto top = admin.query_topk(name, 4);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, marker(kRounds));
  EXPECT_EQ(top[0].second, 64u);
}

TEST(Server, ShutdownOpcodeStopsTheServer) {
  LiveServer live;
  SheClient c = live.client();
  c.create("x", "window=4K memory=64K");
  c.shutdown_server();  // acknowledged before the teardown starts
  live.server.wait();
  EXPECT_THROW(SheClient("127.0.0.1", live.server.port()),
               std::runtime_error);
}

// Raw one-shot HTTP GET against the server's metrics listener.
std::string http_get(std::uint16_t port, const std::string& target) {
  SheClient raw("127.0.0.1", port);  // it's just a TCP connect
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
  write_all(raw.fd(), req.data(), req.size());
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::read(raw.fd(), buf, sizeof(buf));
    if (r <= 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  return out;
}

TEST(Server, MetricsEndpointServesLabeledPipelines) {
  LiveServer live;
  SheClient c = live.client();
  c.create("edge", "window=4K memory=64K");
  std::vector<std::uint64_t> keys(4096);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  (void)c.insert_bulk("edge", keys);
  c.flush("edge");

  const std::string healthz = http_get(live.server.http_port(), "/healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("ok"), std::string::npos);

  const std::string metrics = http_get(live.server.http_port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("she_server_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("she_pipeline_inserted_total"), std::string::npos);
  EXPECT_NE(metrics.find("pipeline=\"edge\""), std::string::npos);

  const std::string missing = http_get(live.server.http_port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_NE(http_get(live.server.http_port(), "/healthz").find("200"),
            std::string::npos);  // still serving after a 404
}

TEST(Server, JaccardAcrossPipelines) {
  LiveServer live;
  SheClient c = live.client();
  const char* spec =
      "similarity shards=1 window=8K memory=64K similarity-slots=512 seed=3";
  c.create("a", spec);
  c.create("b", spec);
  // Lock-step streams over 1500-key universes sharing 500 keys:
  // J = 500 / 2500 = 0.2.
  std::vector<std::uint64_t> ka(15000), kb(15000);
  for (std::size_t i = 0; i < ka.size(); ++i) {
    ka[i] = i % 1500;
    kb[i] = (i % 1500) + 1000;
  }
  ASSERT_EQ(c.insert_bulk("a", ka), ka.size());
  ASSERT_EQ(c.insert_bulk("b", kb), kb.size());
  const double j = c.query_jaccard("a", "b");
  EXPECT_GT(j, 0.05);
  EXPECT_LT(j, 0.45);
  // Self-similarity is exactly 1.
  EXPECT_EQ(c.query_jaccard("a", "a"), 1.0);
}

// --------------------------- tracing / healthz -----------------------------

/// Body of an HTTP response (everything after the blank line).
std::string http_body(const std::string& resp) {
  const std::size_t at = resp.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : resp.substr(at + 4);
}

/// Restores the process-wide tracing toggle (a --trace server flips it on).
struct TraceToggleGuard {
  ~TraceToggleGuard() {
    obs::trace::set_enabled(false);
    obs::trace::reset();
  }
};

TEST(Server, HealthzReportsBuildAndSchema) {
  LiveServer live;
  const std::string resp = http_get(live.server.http_port(), "/healthz");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  const std::string body = http_body(resp);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(body.find("\"schema_version\":" +
                      std::to_string(runtime::RuntimeStats::kSchemaVersion)),
            std::string::npos);
  EXPECT_NE(body.find("\"version\":\""), std::string::npos);
  EXPECT_NE(body.find("\"compiler\":\""), std::string::npos);
  EXPECT_NE(body.find("\"tracing\":false"), std::string::npos);
  EXPECT_NE(body.find("\"trace_sample\":1"), std::string::npos);
  EXPECT_NE(body.find("\"pipelines\":0"), std::string::npos);
  // Dispatched SIMD backend + scalar override state, for fleet debugging.
  EXPECT_NE(body.find("\"simd\":\"" + std::string(simd::active_isa_name()) +
                      "\""),
            std::string::npos);
  EXPECT_NE(body.find("\"force_scalar\":" +
                      std::string(simd::force_scalar_env() ? "1" : "0")),
            std::string::npos);

  const std::string metrics =
      http_body(http_get(live.server.http_port(), "/metrics"));
  EXPECT_NE(metrics.find("she_build_info{"), std::string::npos);
  EXPECT_NE(metrics.find("version=\""), std::string::npos);
  EXPECT_NE(metrics.find("compiler=\""), std::string::npos);
  EXPECT_NE(metrics.find("simd=\""), std::string::npos);
  EXPECT_NE(metrics.find("force_scalar=\""), std::string::npos);
}

TEST(Server, TraceSamplingRecordsOneInN) {
  TraceToggleGuard guard;
  ServerOptions opt;
  opt.enable_tracing = true;
  opt.trace_sample = 4;
  LiveServer live(std::move(opt));
  obs::trace::reset();  // only this test's spans
  SheClient c = live.client();
  for (int i = 0; i < 8; ++i) c.ping();
  // Requests 0 and 4 of the 1-in-4 sampler record; the other six run under
  // SuppressScope and leave nothing in the rings.
  std::size_t ping_spans = 0;
  for (const auto& s : obs::trace::collect())
    if (std::string_view(s.name) == "ping") ++ping_spans;
  EXPECT_EQ(ping_spans, 2u);

  const std::string body =
      http_body(http_get(live.server.http_port(), "/healthz"));
  EXPECT_NE(body.find("\"trace_sample\":4"), std::string::npos);
}

TEST(Server, TracedRequestsAcceptedWithTracingDisabled) {
  // The trace header is a wire extension the server must strip whether or
  // not span collection is on.
  LiveServer live;
  SheClient c = live.client();
  c.set_trace_id(0x51);
  c.ping();
  c.create("compat", "window=4K memory=64K");
  std::vector<std::uint64_t> keys(512);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  EXPECT_EQ(c.insert_bulk("compat", keys), keys.size());
  c.flush("compat");
  EXPECT_TRUE(c.query_membership("compat", 7));
  EXPECT_TRUE(obs::trace::collect().empty());  // nothing recorded while off
}

TEST(Server, TraceEndpointShowsRequestPipelineAndEstimatorSpans) {
  TraceToggleGuard guard;
  ServerOptions opt;
  opt.enable_tracing = true;
  LiveServer live(std::move(opt));
  obs::trace::reset();  // only this test's spans
  SheClient c = live.client();
  c.create("traced", "window=8K memory=128K shards=1");
  const std::uint64_t id = 0xbeef;
  c.set_trace_id(id);
  std::vector<std::uint64_t> keys(4096);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i % 1024;
  // Several bulks: every drain sweep after the first adopts the id.
  for (int round = 0; round < 4; ++round)
    ASSERT_EQ(c.insert_bulk("traced", keys), keys.size());
  c.flush("traced");
  (void)c.query_cardinality("traced");
  (void)c.query_membership("traced", 42);

  const std::string resp =
      http_get(live.server.http_port(), "/trace?ms=0");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  const std::string body = http_body(resp);
  EXPECT_NE(body.find("\"traceEvents\":["), std::string::npos);
  // The traced request chain: server op over pipeline drain over the
  // estimator batch, all tagged with the client's trace id.
  EXPECT_NE(body.find("\"name\":\"insert_bulk\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"pipeline.push_bulk\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"pipeline.drain\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"estimator.insert_batch\""),
            std::string::npos);
  EXPECT_NE(body.find("\"name\":\"query.shard_merge\""), std::string::npos);
  EXPECT_NE(body.find("\"trace_id\":\"0xbeef\""), std::string::npos);

  // The id crossed the push → drain thread hop into the estimator batch.
  bool estimator_tagged = false;
  for (const auto& s : obs::trace::collect()) {
    if (s.trace_id == id &&
        (std::string_view(s.name) == "estimator.insert_batch" ||
         std::string_view(s.name) == "pipeline.drain")) {
      estimator_tagged = true;
    }
  }
  EXPECT_TRUE(estimator_tagged);

  // Per-op duration histograms picked up the labeled requests.
  const std::string metrics =
      http_body(http_get(live.server.http_port(), "/metrics"));
  EXPECT_NE(metrics.find("she_server_request_duration_ns_bucket{op=\"insert_"
                         "bulk\",pipeline=\"traced\""),
            std::string::npos);
  EXPECT_NE(metrics.find("she_server_request_duration_ns_count{op=\"query\","
                         "pipeline=\"traced\""),
            std::string::npos);
}

TEST(Server, SlowRequestCounterAndWindowedTrace) {
  TraceToggleGuard guard;
  ServerOptions opt;
  opt.enable_tracing = true;
  opt.slow_request_ms = 1;  // a 200k-key bulk parse + push is well past 1ms
  LiveServer live(std::move(opt));
  SheClient c = live.client();
  c.create("slow", "window=16K memory=256K");
  std::vector<std::uint64_t> keys(200'000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  ASSERT_EQ(c.insert_bulk("slow", keys), keys.size());
  c.flush("slow");
  const std::string metrics =
      http_body(http_get(live.server.http_port(), "/metrics"));
  const std::size_t at = metrics.find("she_server_slow_requests_total ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(metrics[metrics.find_first_not_of(' ', at + 31)], '0');

  // A tiny window still yields valid (possibly near-empty) trace JSON.
  const std::string body =
      http_body(http_get(live.server.http_port(), "/trace?ms=1"));
  EXPECT_NE(body.find("\"traceEvents\":["), std::string::npos);
}

TEST(Server, ConcurrentScrapesWhileIngesting) {
  TraceToggleGuard guard;
  ServerOptions opt;
  opt.enable_tracing = true;
  LiveServer live(std::move(opt));
  {
    SheClient setup = live.client();
    setup.create("scrape", "window=8K memory=128K shards=2");
  }
  std::atomic<bool> stop{false};
  std::thread ingester([&] {
    SheClient c = live.client();
    c.set_trace_id(0x77);
    std::vector<std::uint64_t> keys(2048);
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)c.insert_bulk("scrape", keys);
    }
  });
  std::vector<std::thread> scrapers;
  std::atomic<int> bad{0};
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        const char* target = t == 0   ? "/metrics"
                             : t == 1 ? "/healthz"
                                      : "/trace?ms=100";
        const std::string resp = http_get(live.server.http_port(), target);
        if (resp.find("200 OK") == std::string::npos) bad.fetch_add(1);
        if (t == 0 &&
            resp.find("she_server_requests_total") == std::string::npos) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& s : scrapers) s.join();
  stop.store(true);
  ingester.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(Server, SigtermCheckpointsRestartAnswersIdentically) {
  const std::string root = temp_dir("server_sigterm");
  std::vector<std::uint64_t> keys(30000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = (i * 7) % 4000;

  double card = 0;
  std::vector<std::uint64_t> freqs;
  std::vector<bool> present;
  {
    ServerOptions opt;
    opt.manager.checkpoint_root = root;
    opt.manager.checkpoint_keep = 2;
    LiveServer live(std::move(opt));
    SheClient c = live.client();
    c.create("flows", "window=16K memory=256K shards=2 seed=11");
    ASSERT_EQ(c.insert_bulk("flows", keys), keys.size());
    c.flush("flows");
    card = c.query_cardinality("flows");
    for (std::uint64_t k = 0; k < 24; ++k) {
      freqs.push_back(c.query_frequency("flows", k));
      present.push_back(c.query_membership("flows", k));
    }
    live.server.install_signal_handlers();
    std::raise(SIGTERM);
    live.server.wait();  // drains, writes final checkpoints, restores
  }

  ServerOptions opt;
  opt.manager.checkpoint_root = root;
  opt.manager.checkpoint_keep = 2;
  opt.manager.resume = true;
  LiveServer live(std::move(opt));
  SheClient c = live.client();
  const auto names = c.list();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "flows");
  EXPECT_EQ(c.query_cardinality("flows"), card);
  for (std::uint64_t k = 0; k < 24; ++k) {
    EXPECT_EQ(c.query_frequency("flows", k), freqs[k]) << "key " << k;
    EXPECT_EQ(c.query_membership("flows", k), present[k]) << "key " << k;
  }
}

// -------------------- admission control / zero-loss ingest ------------------

/// Little-endian u64 append, for hand-built wire frames.
void put_u64le(std::vector<char>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
}

/// An INSERT_BULK body tagged with an explicit (client_id, client_seq) so a
/// test can replay the *same* sequence number byte-for-byte.
std::vector<char> seq_tagged_bulk(std::uint64_t client_id,
                                  std::uint64_t client_seq,
                                  const std::string& name,
                                  const std::vector<std::uint64_t>& keys) {
  std::vector<char> body;
  body.push_back(static_cast<char>(kSeqHeader));
  put_u64le(body, client_id);
  put_u64le(body, client_seq);
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kInsertBulk));
  w.str(name);
  w.u32(static_cast<std::uint32_t>(keys.size()));
  for (std::uint64_t k : keys) w.u64(k);
  body.insert(body.end(), w.body().begin(), w.body().end());
  return body;
}

TEST(Server, DuplicateSeqReplayIsIdempotent) {
  LiveServer live;
  SheClient c = live.client();
  c.create("dd", "window=16K memory=128K shards=1");

  std::vector<std::uint64_t> keys(500, 7);  // one hot key, exact frequency
  const std::vector<char> body = seq_tagged_bulk(5, 1, "dd", keys);
  for (int replay = 0; replay < 3; ++replay) {
    const std::vector<char> resp = c.roundtrip_raw(body);
    ASSERT_FALSE(resp.empty());
    EXPECT_EQ(static_cast<Status>(resp[0]), Status::kOk);
    WireReader r(resp);
    (void)r.u8();
    // Every replay is acked with the full count (the client unblocks) ...
    EXPECT_EQ(r.u64(), keys.size());
  }
  c.flush("dd");
  // ... but the batch was applied exactly once.
  EXPECT_EQ(c.query_frequency("dd", 7), keys.size());

  // A fresh sequence number from the same client is new work.
  const std::vector<char> next = seq_tagged_bulk(5, 2, "dd", keys);
  EXPECT_EQ(static_cast<Status>(c.roundtrip_raw(next)[0]), Status::kOk);
  c.flush("dd");
  EXPECT_EQ(c.query_frequency("dd", 7), 2 * keys.size());
}

TEST(Server, AuthGateTokensAndTypedRejection) {
  const std::string dir = temp_dir("server_auth");
  const std::string token_file = dir + "/tokens";
  {
    std::ofstream f(token_file);
    f << "alpha-token\nbeta-token\n";
  }
  ServerOptions opt;
  opt.auth_token_file = token_file;
  LiveServer live(std::move(opt));

  // Every op before AUTH is rejected with the typed status — and the
  // connection survives to authenticate afterwards.
  SheClient c = live.client();
  try {
    c.ping();
    FAIL() << "expected kUnauthorized";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), Status::kUnauthorized);
  }
  {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Op::kAuth));
    w.str("alpha-token");
    const std::vector<char> resp = c.roundtrip_raw(w.body());
    EXPECT_EQ(static_cast<Status>(resp[0]), Status::kOk);
  }
  c.ping();  // authed now

  // A wrong token is rejected but not connection-fatal.
  SheClient bad = live.client();
  {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Op::kAuth));
    w.str("nope");
    const std::vector<char> resp = bad.roundtrip_raw(w.body());
    EXPECT_EQ(static_cast<Status>(resp[0]), Status::kUnauthorized);
  }
  try {
    bad.ping();
    FAIL() << "expected kUnauthorized";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), Status::kUnauthorized);
  }

  // The deadline-aware client authenticates on every (re)connect; a bad
  // token surfaces as the typed error from the constructor.
  ClientOptions good;
  good.auth_token = "beta-token";
  SheClient authed("127.0.0.1", live.server.port(), good);
  authed.create("locked", "window=4K memory=64K");
  EXPECT_EQ(authed.insert("locked", 9), 1u);
  ClientOptions wrong;
  wrong.auth_token = "stolen";
  EXPECT_THROW(SheClient("127.0.0.1", live.server.port(), wrong), ClientError);

  const std::string body =
      http_body(http_get(live.server.http_port(), "/healthz"));
  EXPECT_NE(body.find("\"auth_required\":true"), std::string::npos);
  const std::string metrics = live.server.render_metrics();
  EXPECT_NE(metrics.find("she_server_unauthorized_total"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Server, OverQuotaLoadShedsFastWithTypedError) {
  ServerOptions opt;
  opt.bytes_per_sec = 64 * 1024;  // burst capacity: one second of budget
  LiveServer live(std::move(opt));
  SheClient c = live.client();
  c.create("ov", "window=8K memory=64K shards=1");

  // ~32 KiB per request: the 4x-quota burst must hit the typed overload
  // rejection, and the rejection must come back fast (shed before work,
  // not queued behind it).
  std::vector<std::uint64_t> keys(4096);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  bool overloaded = false;
  for (int i = 0; i < 8 && !overloaded; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      (void)c.insert_bulk("ov", keys);
    } catch (const ClientError& e) {
      ASSERT_EQ(e.status(), Status::kOverloaded);
      EXPECT_NE(std::string(e.what()).find("retry"), std::string::npos);
      EXPECT_LT(std::chrono::steady_clock::now() - t0,
                std::chrono::milliseconds(1000));
      overloaded = true;
    }
  }
  EXPECT_TRUE(overloaded) << "4x quota load never hit kOverloaded";
  c.ping();  // rejection is per-request, the connection keeps serving

  const std::string body =
      http_body(http_get(live.server.http_port(), "/healthz"));
  EXPECT_NE(body.find("\"overloaded_total\":"), std::string::npos);
  const std::string metrics = live.server.render_metrics();
  const std::size_t at = metrics.find("she_server_overloaded_total ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(metrics[metrics.find_first_not_of(' ', at + 28)], '0');

  // An overload-aware client with backoff retries through the window the
  // bucket needs to refill and eventually lands the batch.
  ClientOptions copt;
  copt.max_retries = 20;
  copt.backoff_initial_ms = 100;
  copt.backoff_max_ms = 400;
  SheClient patient("127.0.0.1", live.server.port(), copt);
  EXPECT_EQ(patient.insert_bulk("ov", keys), keys.size());
}

TEST(Server, BatchLargerThanBurstStillAdmitted) {
  ServerOptions opt;
  opt.bytes_per_sec = 16 * 1024;  // burst capacity: 16 KiB
  LiveServer live(std::move(opt));
  SheClient c = live.client();
  c.create("big", "window=8K memory=64K shards=1");

  // ~32 KiB — double the burst.  A strict bucket check would starve this
  // forever; a full bucket must admit it (going into debt) so oversize
  // batches make progress at the configured long-run rate.
  std::vector<std::uint64_t> keys(4096);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i + 1;
  // Let the CREATE's charge refill so the burst is whole again.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(c.insert_bulk("big", keys), keys.size());

  // The debt is real: an immediate second oversize batch is shed.
  bool overloaded = false;
  try {
    (void)c.insert_bulk("big", keys);
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), Status::kOverloaded);
    overloaded = true;
  }
  EXPECT_TRUE(overloaded) << "debt from the oversize batch was not charged";

  // And a patient client rides the refill through the debt.
  ClientOptions copt;
  copt.max_retries = 30;
  copt.backoff_initial_ms = 100;
  copt.backoff_max_ms = 500;
  SheClient patient("127.0.0.1", live.server.port(), copt);
  EXPECT_EQ(patient.insert_bulk("big", keys), keys.size());
}

/// Clears the process-global fault injector around a test body.
struct InjectorGuard {
  InjectorGuard() { fault::injector().clear(); }
  ~InjectorGuard() { fault::injector().clear(); }
};

TEST(Server, RequestDeadlineShedsInsteadOfWedging) {
  InjectorGuard guard;
  ServerOptions opt;
  opt.request_deadline_ms = 200;
  LiveServer live(std::move(opt));
  SheClient c = live.client();
  c.create("dl", "window=16K memory=128K shards=1 producers=1 queue=256 "
                 "policy=block");

  // Wedge the drain thread for 3 s early in the stream.  The ring fills,
  // the next batch's wait for admission hits the request deadline, and
  // the server answers kTimeout long before the stall clears.  (The
  // deadline bounds admission only, so each batch fits the ring: a batch
  // larger than the ring, once admitted, is enqueued whole.)
  fault::injector().arm(
      {fault::Point::kConsumerStall, 0, 1'000, 3'000});
  std::vector<std::uint64_t> keys(256);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    for (std::uint64_t batch = 0; batch < 80; ++batch) {
      for (std::size_t i = 0; i < keys.size(); ++i)
        keys[i] = batch * keys.size() + i;
      (void)c.insert_bulk("dl", keys);
    }
    FAIL() << "expected kTimeout";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), Status::kTimeout);
    EXPECT_NE(std::string(e.what()).find("replay is safe"),
              std::string::npos);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(2'500));
  c.ping();  // the handler thread was shed, not wedged

  const std::string metrics = live.server.render_metrics();
  const std::size_t at = metrics.find("she_server_deadline_shed_total ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(metrics[metrics.find_first_not_of(' ', at + 31)], '0');
  const std::string body =
      http_body(http_get(live.server.http_port(), "/healthz"));
  EXPECT_NE(body.find("\"request_deadline_ms\":200"), std::string::npos);
}

TEST(Server, DeadlineShedBulkReplaysExactlyOnce) {
  // Regression, over the wire: a WAL-off INSERT_BULK shed by the request
  // deadline is answered kTimeout with "replay is safe".  Its sequence
  // number used to be recorded before the enqueue, so the replay was
  // acked as a duplicate and its keys were never applied.
  InjectorGuard guard;
  ServerOptions opt;
  opt.request_deadline_ms = 200;
  LiveServer live(std::move(opt));
  SheClient c = live.client();
  c.create("rp", "window=16K memory=128K shards=1 producers=1 queue=256 "
                 "policy=block");

  // Wedge the drain thread before it applies anything; the first batch
  // then fills the ring exactly and the second cannot be admitted.
  fault::injector().arm(
      {fault::Point::kConsumerStall, 0, 0, 1'500});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::vector<std::uint64_t> fill(256, 7), extra(100, 7);
  const auto status_of = [&](const std::vector<char>& body) {
    const std::vector<char> resp = c.roundtrip_raw(body);
    EXPECT_FALSE(resp.empty());
    return resp.empty() ? Status::kError : static_cast<Status>(resp[0]);
  };
  ASSERT_EQ(status_of(seq_tagged_bulk(9, 1, "rp", fill)), Status::kOk);
  const std::vector<char> shed = seq_tagged_bulk(9, 2, "rp", extra);
  ASSERT_EQ(status_of(shed), Status::kTimeout);

  // Replay the same (client_id, client_seq) until the stall clears.
  Status replay = Status::kTimeout;
  for (int attempt = 0; attempt < 50 && replay != Status::kOk; ++attempt) {
    replay = status_of(shed);
    if (replay != Status::kOk) {
      EXPECT_EQ(replay, Status::kTimeout);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_EQ(replay, Status::kOk);
  EXPECT_EQ(status_of(shed), Status::kOk);  // now a duplicate
  // FLUSH is bounded by the request deadline too: retry past the stall.
  bool flushed = false;
  for (int attempt = 0; attempt < 50 && !flushed; ++attempt) {
    try {
      c.flush("rp");
      flushed = true;
    } catch (const ClientError& e) {
      EXPECT_EQ(e.status(), Status::kTimeout);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_TRUE(flushed);
  EXPECT_EQ(c.query_frequency("rp", 7), fill.size() + extra.size());
}

TEST(Server, WalSpecRequiresDurableRoot) {
  // Without a checkpoint root there is nowhere durable to put a backlog
  // log: the spec is rejected up front, not silently degraded.
  LiveServer live;
  SheClient c = live.client();
  try {
    c.create("w", "wal=async");
    FAIL() << "expected kBadRequest";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }

  const std::string root = temp_dir("server_wal_spec");
  ServerOptions opt;
  opt.manager.checkpoint_root = root;
  LiveServer durable(std::move(opt));
  SheClient d = durable.client();
  d.create("w", "wal=fsync wal-fsync-bytes=64K shards=1 window=8K memory=64K");
  std::vector<std::uint64_t> keys(2048);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  EXPECT_EQ(d.insert_bulk("w", keys), keys.size());
  // The per-shard backlog log exists under the pipeline's directory, as
  // its first segment (named by the seq of its first frame).
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(root) / "w" /
                                      "shard-0.00000000000000000001.wal"));
}

TEST(Server, ClientReplaysInsertsAcrossServerRestartExactTotals) {
  const std::string root = temp_dir("server_client_replay");
  std::uint16_t port = 0;
  ClientOptions copt;
  copt.connect_timeout_ms = 2'000;
  copt.io_timeout_ms = 5'000;
  copt.max_retries = 40;
  copt.backoff_initial_ms = 25;
  copt.backoff_max_ms = 250;
  copt.client_id = 0xC0FFEE;

  std::vector<std::uint64_t> batch(1'000, 7);  // exact frequency accounting
  std::optional<LiveServer> live;
  {
    ServerOptions opt;
    opt.manager.checkpoint_root = root;
    opt.manager.default_wal_mode = WalMode::kAsync;
    live.emplace(std::move(opt));
  }
  port = live->server.port();
  // ONE client object survives the restart: its sequence counter keeps
  // counting, so post-restart inserts are new work, not replays.
  SheClient c("127.0.0.1", port, copt);
  c.create("flows", "window=32K memory=256K shards=1 producers=1 seed=3");
  EXPECT_EQ(c.insert_bulk("flows", batch), batch.size());
  EXPECT_EQ(c.insert_bulk("flows", batch), batch.size());
  live->server.stop();
  live->server.wait();
  live.reset();

  // Same port, resumed state: the client's next insert rides its
  // exponential-backoff reconnect and lands exactly once.
  {
    ServerOptions opt;
    opt.host = "127.0.0.1";
    opt.port = port;
    opt.manager.checkpoint_root = root;
    opt.manager.default_wal_mode = WalMode::kAsync;
    opt.manager.resume = true;
    live.emplace(std::move(opt));
  }
  EXPECT_EQ(c.insert_bulk("flows", batch), batch.size());
  c.flush("flows");
  EXPECT_EQ(c.query_frequency("flows", 7), 3 * batch.size());
  // And a wire-level replay of an already-acked sequence number is still
  // absorbed after the restart — the idempotence table rode the log.
  const std::vector<char> dup = seq_tagged_bulk(0xC0FFEE, 2, "flows", batch);
  EXPECT_EQ(static_cast<Status>(c.roundtrip_raw(dup)[0]), Status::kOk);
  c.flush("flows");
  EXPECT_EQ(c.query_frequency("flows", 7), 3 * batch.size());
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace she::server
