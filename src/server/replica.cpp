#include "server/replica.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "server/pipeline_manager.hpp"
#include "server/protocol.hpp"

namespace she::server {
namespace fs = std::filesystem;

using runtime::now_ns;

// -------------------------------------------------------- ReplicationHub --

ReplicationHub::ReplicationHub(obs::Registry& registry)
    : records_total_(&registry.counter(
          "she_repl_records_total",
          "replication records fanned out to REPLICATE subscribers")),
      bytes_total_(&registry.counter(
          "she_repl_bytes_total",
          "encoded replication record bytes fanned out to subscribers")),
      overflows_total_(&registry.counter(
          "she_repl_subscriber_overflows_total",
          "subscriber queues dropped for exceeding their byte bound")),
      subscribers_gauge_(&registry.gauge(
          "she_repl_subscribers", "live REPLICATE subscriber connections")) {}

std::shared_ptr<ReplicationHub::Subscription> ReplicationHub::subscribe() {
  auto sub = std::make_shared<Subscription>();
  std::lock_guard<std::mutex> lk(mu_);
  subs_.push_back(sub);
  nsubs_.store(subs_.size(), std::memory_order_release);
  subscribers_gauge_->set(static_cast<std::int64_t>(subs_.size()));
  return sub;
}

void ReplicationHub::unsubscribe(const std::shared_ptr<Subscription>& sub) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    subs_.erase(std::remove(subs_.begin(), subs_.end(), sub), subs_.end());
    nsubs_.store(subs_.size(), std::memory_order_release);
    subscribers_gauge_->set(static_cast<std::int64_t>(subs_.size()));
  }
  std::lock_guard<std::mutex> lk(sub->mu);
  sub->closed = true;
  sub->cv.notify_all();
}

std::size_t ReplicationHub::subscriber_count() const {
  return nsubs_.load(std::memory_order_acquire);
}

void ReplicationHub::broadcast(const Record& rec) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& sub : subs_) {
    std::lock_guard<std::mutex> slk(sub->mu);
    if (sub->closed || sub->overflowed) continue;
    if (sub->queued_bytes + rec->size() > sub->max_bytes) {
      // A standby this far behind re-bootstraps from files after the
      // dropped connection — always correct, never blocks the primary.
      sub->overflowed = true;
      overflows_total_->inc();
      sub->cv.notify_all();
      continue;
    }
    sub->q.push_back(rec);
    sub->queued_bytes += rec->size();
    records_total_->inc();
    bytes_total_->inc(rec->size());
    sub->cv.notify_one();
  }
}

void ReplicationHub::publish_wal(const std::string& pipeline,
                                 std::size_t shard, std::uint64_t end_offset,
                                 std::span<const char> header,
                                 std::span<const char> run1,
                                 std::span<const char> run2) {
  // The one cost an unreplicated server pays per durable append.
  if (nsubs_.load(std::memory_order_relaxed) == 0) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto& off = end_offsets_[{pipeline, shard}];
    if (end_offset > off) off = end_offset;
  }
  // The encoded SHWL frame is one string field: its length, then the
  // header and the payload's two runs back to back.
  const std::size_t frame = header.size() + run1.size() + run2.size();
  auto rec = std::make_shared<std::vector<char>>();
  rec->reserve(1 + 4 + pipeline.size() + 4 + 4 + frame);
  BinaryWriter w(*rec);
  w.u8(static_cast<std::uint8_t>(ReplRecord::kWal));
  w.str(pipeline);
  w.u32(static_cast<std::uint32_t>(shard));
  w.u32(static_cast<std::uint32_t>(frame));
  w.cells(header);
  w.cells(run1);
  w.cells(run2);
  broadcast(rec);
}

void ReplicationHub::publish_create(const std::string& pipeline,
                                    const std::string& spec) {
  if (nsubs_.load(std::memory_order_relaxed) == 0) return;
  auto rec = std::make_shared<std::vector<char>>();
  BinaryWriter w(*rec);
  w.u8(static_cast<std::uint8_t>(ReplRecord::kCreate));
  w.str(pipeline);
  w.str(spec);
  broadcast(rec);
}

void ReplicationHub::publish_drop(const std::string& pipeline) {
  {
    // Offsets for a dropped pipeline must not linger in heartbeats even
    // when nobody is currently subscribed.
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = end_offsets_.begin(); it != end_offsets_.end();) {
      it = it->first.first == pipeline ? end_offsets_.erase(it)
                                       : std::next(it);
    }
  }
  if (nsubs_.load(std::memory_order_relaxed) == 0) return;
  auto rec = std::make_shared<std::vector<char>>();
  BinaryWriter w(*rec);
  w.u8(static_cast<std::uint8_t>(ReplRecord::kDrop));
  w.str(pipeline);
  broadcast(rec);
}

std::vector<char> ReplicationHub::heartbeat_record() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<char> rec;
  BinaryWriter w(rec);
  w.u8(static_cast<std::uint8_t>(ReplRecord::kHeartbeat));
  w.u32(static_cast<std::uint32_t>(end_offsets_.size()));
  for (const auto& [key, off] : end_offsets_) {
    w.str(key.first);
    w.u32(static_cast<std::uint32_t>(key.second));
    w.u64(off);
  }
  return rec;
}

// ----------------------------------------------------- primary-side serve --

namespace {

/// Ship one file as a run of kFile records (≥ 1 even when empty).
void ship_file(int fd, const std::string& pipeline, const std::string& rel,
               const fs::path& full) {
  std::ifstream in(full, std::ios::binary);
  if (!in) return;  // rotated or retired since the listing; skip
  std::vector<char> buf(kReplFileChunk);
  for (;;) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const std::size_t n = static_cast<std::size_t>(in.gcount());
    const bool last = n < buf.size();
    std::vector<char> rec;
    BinaryWriter w(rec);
    w.u8(static_cast<std::uint8_t>(ReplRecord::kFile));
    w.str(pipeline);
    w.str(rel);
    w.u8(last ? 1 : 0);
    w.str(std::string_view(buf.data(), n));
    write_frame(fd, rec);
    if (last) break;
  }
}

/// Ship a pipeline directory, WAL segments FIRST and in name (= log)
/// order.  Read order matters: a checkpoint taken after our WAL read can
/// only be AHEAD of the shipped log, and the frames covering that gap were
/// appended after the hub subscription, so they arrive on the live
/// stream; reading checkpoints first would let a concurrent retirement
/// unlink segments the shipped (older) checkpoint still needs.
void ship_dir(int fd, const std::string& pipeline, const std::string& dir) {
  std::vector<std::pair<int, fs::path>> files;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code fec;
    if (!it->is_regular_file(fec)) continue;
    const std::string name = it->path().filename().string();
    if (name.empty() || name[0] == '.') continue;
    const bool is_wal =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".wal") == 0;
    files.emplace_back(is_wal ? 0 : 1, it->path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& [rank, path] : files) {
    ship_file(fd, pipeline, path.filename().string(), path);
  }
}

}  // namespace

void serve_replication(int fd, PipelineManager& manager, ReplicationHub& hub,
                       const std::function<bool()>& stopping) {
  const auto sub = hub.subscribe();
  try {
    // Subscribe-first (above) closes the snapshot/stream race: anything
    // appended from here on is queued, anything before it is in the files.
    for (const auto& item : manager.bootstrap_snapshot()) {
      if (!item.dir.empty()) ship_dir(fd, item.name, item.dir);
      std::vector<char> done;
      BinaryWriter w(done);
      w.u8(static_cast<std::uint8_t>(ReplRecord::kPipelineDone));
      w.str(item.name);
      w.str(item.spec_text);
      write_frame(fd, done);
    }
    const char bootstrap_done[] = {
        static_cast<char>(ReplRecord::kBootstrapDone)};
    write_frame(fd, bootstrap_done);

    for (;;) {
      std::vector<ReplicationHub::Record> batch;
      bool dead = false;
      {
        std::unique_lock<std::mutex> lk(sub->mu);
        sub->cv.wait_for(lk, std::chrono::milliseconds(500), [&] {
          return !sub->q.empty() || sub->closed || sub->overflowed;
        });
        dead = sub->closed || sub->overflowed;
        while (!sub->q.empty()) {
          batch.push_back(std::move(sub->q.front()));
          sub->queued_bytes -= batch.back()->size();
          sub->q.pop_front();
        }
      }
      for (const auto& rec : batch) write_frame(fd, *rec);
      if (dead || (stopping && stopping())) break;
      // Idle connection: heartbeat so the standby can compute lag (and
      // notice a dead primary by silence).
      if (batch.empty()) write_frame(fd, hub.heartbeat_record());
    }
  } catch (const std::exception&) {
    // Peer gone mid-stream: normal standby churn, nothing to do.
  }
  hub.unsubscribe(sub);
}

// --------------------------------------------------------- ReplicaClient --

std::pair<std::string, std::uint16_t> parse_endpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("endpoint must be host:port: '" + text + "'");
  }
  std::string host = text.substr(0, colon);
  if (host.empty()) host = "127.0.0.1";
  const std::string ptext = text.substr(colon + 1);
  std::size_t end = 0;
  unsigned long port = 0;
  try {
    port = std::stoul(ptext, &end);
  } catch (const std::exception&) {
    end = 0;
  }
  if (end != ptext.size() || ptext.empty() || port == 0 || port > 65535) {
    throw std::invalid_argument("bad port in endpoint '" + text + "'");
  }
  return {std::move(host), static_cast<std::uint16_t>(port)};
}

ReplicaClient::ReplicaClient(ReplicaClientOptions opt,
                             PipelineManager& manager, obs::Registry& registry)
    : opt_(std::move(opt)),
      manager_(manager),
      frames_applied_(&registry.counter(
          "she_replica_frames_applied_total",
          "replicated WAL frames applied to local pipelines")),
      bytes_applied_(&registry.counter(
          "she_replica_bytes_applied_total",
          "encoded bytes of replicated WAL frames applied")),
      dup_frames_(&registry.counter(
          "she_replica_dup_frames_total",
          "replicated frames skipped as already applied (offset overlap)")),
      reconnects_(&registry.counter(
          "she_replica_reconnects_total",
          "replication sessions established (first connect included)")),
      connected_gauge_(&registry.gauge(
          "she_replica_connected", "1 while following a primary")),
      synced_gauge_(&registry.gauge(
          "she_replica_synced", "1 once a full bootstrap has completed")),
      lag_gauge_(&registry.gauge(
          "she_replica_lag_items",
          "items the primary has logged that this standby has not applied")) {
  if (opt_.endpoints.empty()) {
    throw std::invalid_argument("standby needs at least one --follow endpoint");
  }
  for (const auto& e : opt_.endpoints) (void)parse_endpoint(e);  // fail fast
  if (manager_.options().checkpoint_root.empty()) {
    throw std::invalid_argument(
        "standby replication needs --checkpoint-root: bootstrap files and "
        "the standby's own WAL/checkpoints land there");
  }
}

ReplicaClient::~ReplicaClient() { stop(); }

void ReplicaClient::start() {
  thread_ = std::thread([this] { run(); });
}

void ReplicaClient::promote(std::size_t drain_ms) {
  drain_ms_.store(drain_ms, std::memory_order_relaxed);
  promoting_.store(true, std::memory_order_release);
  backoff_bell_.ring();
  join_thread();
}

void ReplicaClient::stop() {
  stop_.store(true, std::memory_order_release);
  backoff_bell_.ring();
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  join_thread();
}

void ReplicaClient::join_thread() {
  std::lock_guard<std::mutex> lk(join_mu_);
  if (thread_.joinable()) thread_.join();
}

std::uint64_t ReplicaClient::lag_items() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lag_locked();
}

std::uint64_t ReplicaClient::lag_locked() const {
  std::uint64_t lag = 0;
  for (const auto& [key, end] : primary_end_) {
    const auto it = applied_.find(key);
    const std::uint64_t ap = it == applied_.end() ? 0 : it->second;
    if (end > ap) lag += end - ap;
  }
  return lag;
}

void ReplicaClient::refresh_lag() {
  lag_gauge_->set(static_cast<std::int64_t>(lag_locked()));
}

void ReplicaClient::run() {
  std::size_t backoff = opt_.backoff_initial_ms;
  std::size_t next = 0;
  const auto quit = [this] {
    return stop_.load(std::memory_order_acquire) ||
           promoting_.load(std::memory_order_acquire);
  };
  while (!quit()) {
    const auto [host, port] =
        parse_endpoint(opt_.endpoints[next % opt_.endpoints.size()]);
    ++next;
    if (follow_once(host, port)) {
      backoff = opt_.backoff_initial_ms;
    } else {
      backoff = std::min(backoff * 2, opt_.backoff_max_ms);
    }
    // stop() and promote() ring the bell, so neither waits out a backoff.
    backoff_bell_.wait(
        quit, now_ns() + static_cast<std::int64_t>(backoff) * 1'000'000);
  }
  connected_.store(false, std::memory_order_release);
  connected_gauge_->set(0);
}

bool ReplicaClient::follow_once(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_.store(fd, std::memory_order_release);

  bool streamed = false;
  try {
    std::vector<char> body;
    if (!opt_.auth_token.empty()) {
      std::vector<char> req;
      BinaryWriter w(req);
      w.u8(static_cast<std::uint8_t>(Op::kAuth));
      w.str(opt_.auth_token);
      write_frame(fd, req);
      if (!read_frame(fd, body) || body.empty() || body[0] != 0) {
        throw std::runtime_error("primary rejected AUTH");
      }
    }
    std::vector<char> req;
    BinaryWriter w(req);
    w.u8(static_cast<std::uint8_t>(Op::kReplicate));
    w.u64(kReplicationProtoVersion);
    write_frame(fd, req);
    if (!read_frame(fd, body) || body.empty() ||
        static_cast<std::uint8_t>(body[0]) !=
            static_cast<std::uint8_t>(Status::kOk)) {
      throw std::runtime_error("primary rejected REPLICATE");
    }

    streamed = true;
    reconnects_->inc();
    connected_.store(true, std::memory_order_release);
    connected_gauge_->set(1);
    {
      std::lock_guard<std::mutex> lk(mu_);
      bootstrapped_.clear();
      cur_file_.reset();
      cur_path_.clear();
    }

    std::int64_t promote_deadline = 0;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) break;
      pollfd p{fd, POLLIN, 0};
      const int pr = ::poll(&p, 1, 100);
      if (promoting_.load(std::memory_order_acquire)) {
        if (promote_deadline == 0) {
          promote_deadline =
              now_ns() + static_cast<std::int64_t>(
                             drain_ms_.load(std::memory_order_relaxed)) *
                             1'000'000;
        }
        // Drain what the socket already holds, bounded by the deadline.
        if (pr <= 0 || now_ns() > promote_deadline) break;
      }
      if (pr < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (pr == 0) continue;
      if (!read_frame(fd, body)) break;  // primary closed
      handle_record(body);
    }
  } catch (const std::exception& e) {
    std::cerr << "she_server: replication stream ended: " << e.what() << '\n';
  }
  connected_.store(false, std::memory_order_release);
  connected_gauge_->set(0);
  fd_.store(-1, std::memory_order_release);
  ::close(fd);
  std::lock_guard<std::mutex> lk(mu_);
  cur_file_.reset();
  cur_path_.clear();
  return streamed;
}

void ReplicaClient::handle_record(std::vector<char>& body) {
  BinaryReader r(body);
  switch (static_cast<ReplRecord>(r.u8())) {
    case ReplRecord::kFile: {
      const std::string pipeline = r.str();
      const std::string rel = r.str();
      const bool last = r.u8() != 0;
      const std::string chunk = r.str();
      r.expect_done();
      if (!valid_pipeline_name(pipeline) || rel.empty() || rel[0] == '.' ||
          rel.find('/') != std::string::npos ||
          rel.find('\\') != std::string::npos) {
        throw std::runtime_error("replication: unsafe bootstrap path '" + rel +
                                 "'");
      }
      std::lock_guard<std::mutex> lk(mu_);
      const fs::path dir =
          fs::path(manager_.options().checkpoint_root) / pipeline;
      if (std::find(bootstrapped_.begin(), bootstrapped_.end(), pipeline) ==
          bootstrapped_.end()) {
        // First file of this pipeline's bootstrap: clear every trace of
        // stale local state (a resident pipeline AND leftover files —
        // drop() only removes the directory when the name is resident).
        manager_.drop(pipeline);
        std::error_code ec;
        fs::remove_all(dir, ec);
        fs::create_directories(dir);
        bootstrapped_.push_back(pipeline);
      }
      const std::string path = (dir / rel).string();
      if (cur_path_ != path) {
        cur_file_.reset(std::fopen(path.c_str(), "wb"));
        cur_path_ = path;
        if (!cur_file_) {
          throw std::runtime_error("replication: cannot write " + path);
        }
      }
      if (!chunk.empty() &&
          std::fwrite(chunk.data(), 1, chunk.size(), cur_file_.get()) !=
              chunk.size()) {
        throw std::runtime_error("replication: short write to " + path);
      }
      if (last) {
        cur_file_.reset();
        cur_path_.clear();
      }
      break;
    }
    case ReplRecord::kPipelineDone: {
      const std::string name = r.str();
      const std::string spec = r.str();
      r.expect_done();
      std::lock_guard<std::mutex> lk(mu_);
      cur_file_.reset();
      cur_path_.clear();
      try {
        const auto entry = manager_.adopt(name, spec);
        const std::size_t shards = entry->monitor().shard_count();
        for (std::size_t s = 0; s < shards; ++s) {
          applied_[{name, s}] = entry->monitor().resume_offset(s);
        }
      } catch (const std::exception& e) {
        // One unreplicable pipeline must not kill the stream; it stays
        // absent locally and offset checks skip its frames.
        std::cerr << "she_server: replication: cannot adopt '" << name
                  << "': " << e.what() << '\n';
      }
      break;
    }
    case ReplRecord::kBootstrapDone: {
      r.expect_done();
      {
        std::lock_guard<std::mutex> lk(mu_);
        bootstrapped_.clear();
      }
      synced_.store(true, std::memory_order_release);
      synced_gauge_->set(1);
      break;
    }
    case ReplRecord::kWal: {
      const std::string name = r.str();
      const std::size_t shard = r.u32();
      // The frame, a string field of whole u64 words, is moved down to an
      // 8-byte boundary in the body and checked there: no key is copied.
      const std::uint32_t len = r.u32();
      const std::span<const std::uint64_t> words = r.u64s_in_place(len / 8);
      r.expect_done();
      WalFrame f;
      if (parse_wal_frame({reinterpret_cast<const char*>(words.data()), len},
                          f) != len) {
        throw std::runtime_error("replication: corrupt WAL frame for '" +
                                 name + "'");
      }
      if (f.kind != kWalData) break;
      const auto key = std::make_pair(name, shard);
      {
        std::lock_guard<std::mutex> lk(mu_);
        auto& pe = primary_end_[key];
        if (f.end_offset() > pe) pe = f.end_offset();
        const auto it = applied_.find(key);
        if (it == applied_.end()) {  // never adopted (create raced / failed)
          refresh_lag();
          break;
        }
        if (f.end_offset() <= it->second) {  // bootstrap/stream overlap
          dup_frames_->inc();
          refresh_lag();
          break;
        }
      }
      const auto entry = manager_.find(name);
      if (!entry) break;
      // Same spec + seed → same shard routing, so these keys land on local
      // shard `shard` and per-shard offsets stay in lockstep with the
      // primary; the client identity keeps the standby's own dedup tables.
      // A frame not accepted whole (a disk fault throws) is not applied:
      // the session ends, and the next one re-bootstraps from files.
      const auto keys = words.subspan(kWalHeaderBytes / 8);
      if (entry->insert_bulk(keys, f.client_id, f.client_seq, 0) != keys.size())
        throw std::runtime_error("replication: '" + name + "' is closed");
      std::lock_guard<std::mutex> lk(mu_);
      auto& ap = applied_[key];
      if (f.end_offset() > ap) ap = f.end_offset();
      frames_applied_->inc();
      bytes_applied_->inc(len);
      refresh_lag();
      break;
    }
    case ReplRecord::kCreate: {
      const std::string name = r.str();
      const std::string spec = r.str();
      r.expect_done();
      try {
        manager_.drop(name);
        const auto entry = manager_.create(name, spec);
        std::lock_guard<std::mutex> lk(mu_);
        for (std::size_t s = 0; s < entry->monitor().shard_count(); ++s) {
          applied_[{name, s}] = 0;
        }
      } catch (const std::exception& e) {
        std::cerr << "she_server: replication: cannot create '" << name
                  << "': " << e.what() << '\n';
      }
      break;
    }
    case ReplRecord::kDrop: {
      const std::string name = r.str();
      r.expect_done();
      manager_.drop(name);
      std::lock_guard<std::mutex> lk(mu_);
      for (auto it = applied_.begin(); it != applied_.end();) {
        it = it->first.first == name ? applied_.erase(it) : std::next(it);
      }
      for (auto it = primary_end_.begin(); it != primary_end_.end();) {
        it = it->first.first == name ? primary_end_.erase(it) : std::next(it);
      }
      refresh_lag();
      break;
    }
    case ReplRecord::kHeartbeat: {
      const std::uint32_t n = r.u32();
      std::lock_guard<std::mutex> lk(mu_);
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::string name = r.str();
        const std::size_t shard = r.u32();
        const std::uint64_t off = r.u64();
        auto& pe = primary_end_[{name, shard}];
        if (off > pe) pe = off;
      }
      r.expect_done();
      refresh_lag();
      break;
    }
    default:
      throw std::runtime_error("replication: unknown record type");
  }
}

}  // namespace she::server
