#include "layers.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "common/wal.hpp"
#include "runtime/snapshot.hpp"
#include "server/pipeline_manager.hpp"
#include "server_process.hpp"
#include "she/monitor.hpp"

namespace she::bench::e2e {
namespace {

/// Probe results land here so the timed loops cannot be optimized away.
volatile std::uint64_t g_probe_sink = 0;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

template <typename F>
double seconds_of(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

bool series_of(const std::string& series, std::string_view name,
               std::string_view label) {
  if (series.compare(0, name.size(), name) != 0) return false;
  if (series.size() > name.size() && series[name.size()] != '{') return false;
  return label.empty() || series.find(label) != std::string::npos;
}

/// "123.456" (µs with a 3-digit ns remainder, as the trace exporter writes
/// it) after `key` at or past `pos`, as nanoseconds.
std::int64_t micros_field_ns(const std::string& body, std::string_view key,
                             std::size_t pos) {
  const std::size_t at = body.find(key, pos);
  if (at == std::string::npos) throw std::runtime_error("trace event lacks a field");
  const char* p = body.data() + at + key.size();
  const char* end = body.data() + body.size();
  std::int64_t us = 0;
  p = std::from_chars(p, end, us).ptr;
  std::int64_t ns = us * 1000;
  if (p < end && *p == '.') {
    std::int64_t scale = 100;
    for (++p; p < end && *p >= '0' && *p <= '9' && scale > 0; ++p, scale /= 10)
      ns += (*p - '0') * scale;
  }
  return ns;
}

struct SpanKey {
  std::uint32_t tid;
  const std::string* name;
  std::uint64_t dur_ns;
  bool operator==(const SpanKey&) const = default;
};
struct SpanKeyHash {
  std::size_t operator()(const SpanKey& k) const {
    return std::hash<std::uint64_t>()(k.dur_ns * 0x9e3779b97f4a7c15ULL ^ k.tid) ^
           std::hash<const void*>()(k.name);
  }
};
struct StartKeyHash {
  std::size_t operator()(const std::pair<std::uint32_t, std::int64_t>& k) const {
    return std::hash<std::int64_t>()(k.second * 31 + k.first);
  }
};

}  // namespace

// ------------------------------------------------------------- PromScrape --

PromScrape::PromScrape(const std::string& text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line.front() == '#') continue;
    // Label values may hold spaces; the value never does.
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string_view::npos) continue;
    series_.emplace_back(std::string(line.substr(0, sp)),
                         std::strtod(std::string(line.substr(sp + 1)).c_str(), nullptr));
  }
}

double PromScrape::sum(std::string_view name, std::string_view label) const {
  double total = 0;
  for (const auto& [series, value] : series_)
    if (series_of(series, name, label)) total += value;
  return total;
}

double PromScrape::max(std::string_view name, std::string_view label) const {
  double best = 0;
  for (const auto& [series, value] : series_)
    if (series_of(series, name, label)) best = std::max(best, value);
  return best;
}

// --------------------------------------------------------- TraceCollector --

void TraceCollector::pull(bool count) {
  const std::string body = http_get(port_, "/trace?ms=1000");
  last_pull_ns_ = steady_ns();
  std::vector<Seen> cur;
  constexpr std::string_view kEvent = "{\"name\":\"";
  for (std::size_t pos = body.find(kEvent); pos != std::string::npos;
       pos = body.find(kEvent, pos)) {
    pos += kEvent.size();
    const std::size_t end = body.find('"', pos);
    const auto slot = by_name_.try_emplace(body.substr(pos, end - pos)).first;
    const std::size_t tid_at = body.find("\"tid\":", end);
    if (end == std::string::npos || tid_at == std::string::npos)
      throw std::runtime_error("trace event lacks a field");
    std::uint32_t tid = 0;
    std::from_chars(body.data() + tid_at + 6, body.data() + body.size(), tid);
    cur.push_back({tid, &slot->first,
                   static_cast<std::uint64_t>(micros_field_ns(body, "\"dur\":", end)),
                   micros_field_ns(body, "\"ts\":", end)});
    pos = end;
  }
  // Align: spans present in both pulls differ in start by the same shift.
  std::unordered_map<SpanKey, std::int64_t, SpanKeyHash> prev_start;
  std::unordered_set<std::pair<std::uint32_t, std::int64_t>, StartKeyHash> prev_seen;
  std::int64_t prev_last = 0;
  for (const Seen& s : prev_) {
    prev_start.emplace(SpanKey{s.tid, s.name, s.dur_ns}, s.start_ns);
    prev_seen.emplace(s.tid, s.start_ns);
    prev_last = std::max(prev_last, s.start_ns);
  }
  std::unordered_map<std::int64_t, std::size_t> votes;
  for (const Seen& s : cur) {
    const auto it = prev_start.find(SpanKey{s.tid, s.name, s.dur_ns});
    if (it != prev_start.end()) ++votes[it->second - s.start_ns];
  }
  // No overlap: place this pull after everything seen so far.
  std::int64_t shift = prev_.empty() ? 0 : prev_last + 1'000'000'000'000;
  std::size_t best = 0;
  for (const auto& [delta, n] : votes) {
    if (n > best) {
      best = n;
      shift = delta;
    }
  }
  for (Seen& s : cur) {
    s.start_ns += shift;
    if (count && !prev_seen.contains({s.tid, s.start_ns}))
      by_name_[*s.name].add(static_cast<double>(s.dur_ns) / 1000.0);
  }
  prev_ = std::move(cur);
}

void TraceCollector::maybe_pull() {
  if (steady_ns() - last_pull_ns_ >= 500'000'000) pull();
}

const Samples& TraceCollector::durations_us(const std::string& name) const {
  static const Samples kNone;
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kNone : it->second;
}

// ----------------------------------------------------------------- probes --

EstimatorProbe probe_estimator(const std::string& spec,
                               std::span<const std::uint64_t> keys) {
  constexpr std::size_t kBatch = 256;  // the drain's default batch
  constexpr std::size_t kBatchItems = std::size_t{1} << 20;
  constexpr std::size_t kSingleItems = std::size_t{1} << 18;
  constexpr std::size_t kQueries = 100'000;
  constexpr int kReps = 15;
  const server::PipelineSpec ps = server::parse_sketch_spec(spec);
  // Never started, so no worker threads: only shard 0's initial state is
  // used, built with exactly the per-shard config the server uses.
  const ConcurrentMonitor shards(ps.monitor, ps.pipeline);
  StreamMonitor m = shards.shard_snapshot(0);
  m.insert_batch(keys.first(std::min<std::size_t>(keys.size(), ps.monitor.window)));

  EstimatorProbe p;
  std::uint64_t sink = 0;
  const std::size_t span_end = keys.size() - kBatch;
  p.insert_batch_ns_per_item = seconds_of([&] {
    for (std::size_t i = 0, off = 0; i < kBatchItems; i += kBatch) {
      m.insert_batch(keys.subspan(off, kBatch));
      off = (off + kBatch) % span_end;
    }
  }) * 1e9 / kBatchItems;
  p.insert_one_ns = seconds_of([&] {
    for (std::size_t i = 0; i < kSingleItems; ++i) m.insert(keys[i % keys.size()]);
  }) * 1e9 / kSingleItems;
  p.frequency_ns = seconds_of([&] {
    for (std::size_t i = 0; i < kQueries; ++i) sink += m.frequency(keys[i % keys.size()]);
  }) * 1e9 / kQueries;
  p.seen_ns = seconds_of([&] {
    for (std::size_t i = 0; i < kQueries; ++i) sink += m.seen(keys[i % keys.size()]);
  }) * 1e9 / kQueries;

  std::vector<char> image;
  Samples save, load, report;
  for (int r = 0; r < kReps; ++r) {
    save.add(seconds_of([&] { runtime::serialize_to(image, m); }) * 1e6);
    load.add(seconds_of([&] {
      sink += runtime::deserialize<StreamMonitor>(image.data(), image.size()).time();
    }) * 1e6);
    report.add(seconds_of([&] { sink += m.report(10).items; }) * 1e6);
  }
  p.save_us = save.summarize().p50;
  p.load_us = load.summarize().p50;
  p.report_us = report.summarize().p50;
  p.snapshot_bytes = static_cast<double>(image.size());
  g_probe_sink = sink;
  return p;
}

WalProbe probe_wal(const std::filesystem::path& dir,
                   std::span<const std::uint64_t> keys) {
  constexpr std::size_t kAsyncFrames = 64;
  constexpr std::size_t kFsyncFrames = 16;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto frames = [&](WalMode mode, const char* file, std::size_t n) {
    ShardWal::Options opt;
    opt.mode = mode;
    opt.fsync_interval_bytes = 0;  // fsync mode: every append syncs
    ShardWal wal((dir / file).string(), std::move(opt), WalScan{});
    return seconds_of([&] {
      for (std::size_t f = 0; f < n; ++f) {
        const std::size_t off = (f * kFrameKeys) % (keys.size() - kFrameKeys);
        if (!wal.append(keys.subspan(off, kFrameKeys), 0, 0))
          throw std::runtime_error("WAL probe append refused");
      }
    }) * 1e6 / static_cast<double>(n);
  };
  WalProbe p;
  p.append_us_per_frame = frames(WalMode::kAsync, "async.wal", kAsyncFrames);
  p.fsync_us = std::max(0.0, frames(WalMode::kFsync, "fsync.wal", kFsyncFrames) -
                                 p.append_us_per_frame);
  std::filesystem::remove_all(dir);
  return p;
}

// ------------------------------------------------------------- the table --

std::vector<Metric> per_layer_metrics(const LayerInputs& in) {
  std::vector<Metric> out;
  const auto add = [&](std::string name, double value, std::string unit,
                       std::size_t samples = 0) {
    out.push_back({std::move(name), value, std::move(unit), samples});
  };
  const auto percentiles = [&](const std::string& base, const Samples& s,
                               bool with_count) {
    const Summary x = s.summarize();
    add(base + ".p50", x.p50, "us", x.count);
    add(base + ".p99", x.p99, "us", x.count);
    if (with_count) add(base + ".count", static_cast<double>(x.count), "count");
  };

  // client: the load generator's own view, the reference for the shares.
  const OpStats& c = *in.client;
  Samples inserts = c.insert_us;
  inserts.merge(c.probe_insert_us);
  Samples queries = c.query_point_us;
  queries.merge(c.query_agg_us);
  queries.merge(c.probe_query_us);
  percentiles("client.insert_bulk_us", c.insert_bulk_us, true);
  percentiles("client.insert_us", inserts, true);
  percentiles("client.query_point_us", c.query_point_us, true);
  percentiles("client.query_agg_us", c.query_agg_us, true);
  const Summary late = c.gen_late_us.summarize();
  add("client.gen_late_us.p99", late.p99, "us", late.count);
  add("client.probes_unseen", static_cast<double>(c.probes_unseen), "count");

  // server: dispatch time per op from she_server_request_duration_ns.
  const auto delta = [&](std::string_view name, std::string_view label) {
    return in.after.sum(name, label) - in.before.sum(name, label);
  };
  const std::pair<const char*, const Samples*> ops[] = {
      {"insert_bulk", &c.insert_bulk_us}, {"insert", &inserts}, {"query", &queries}};
  double server_mean[3] = {};
  double requests[3] = {};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string label = std::string("op=\"") + ops[i].first + "\",pipeline=\"" + kPipeline + "\"";
    requests[i] = delta("she_server_request_duration_ns_count", label);
    server_mean[i] = ratio(delta("she_server_request_duration_ns_sum", label), requests[i]) / 1000.0;
  }
  for (std::size_t i = 0; i < 3; ++i)
    add(std::string("server.request_us_mean.") + ops[i].first, server_mean[i], "us",
        static_cast<std::size_t>(requests[i]));
  for (std::size_t i = 0; i < 3; ++i)
    add(std::string("server.requests.") + ops[i].first, requests[i], "count");
  for (std::size_t i = 0; i < 3; ++i) {
    const Summary client = ops[i].second->summarize();
    add(std::string("server.transport_us_mean.") + ops[i].first,
        client.mean - server_mean[i], "us", client.count);
  }
  percentiles("server.query_shard_read_us", in.trace->durations_us("query.shard_read"), false);
  percentiles("server.query_shard_merge_us", in.trace->durations_us("query.shard_merge"), false);
  add("server.overloaded", delta("she_server_overloaded_total", {}), "count");
  add("server.protocol_errors", delta("she_server_protocol_errors_total", {}), "count");

  // runtime: the pipeline's registry, labeled pipeline="load".
  const std::string pl = std::string("pipeline=\"") + kPipeline + "\"";
  const auto d = [&](std::string_view name) { return delta(name, pl); };
  const Summary push = in.trace->durations_us("pipeline.push_bulk").summarize();
  add("runtime.push_us.mean", push.mean, "us", push.count);
  add("runtime.push_us.p99", push.p99, "us", push.count);
  add("runtime.stall_ms_per_s", ratio(d("she_pipeline_stall_ns_total") / 1e6, in.window_s), "ms/s");
  add("runtime.stall_events", d("she_pipeline_stall_events_total"), "count");
  const double inserted = d("she_pipeline_inserted_total");
  const double drains = d("she_pipeline_drains_total");
  const double publishes = d("she_pipeline_publishes_total");
  const double drain_ns = d("she_pipeline_drain_latency_ns_sum");
  const double publish_ns = d("she_pipeline_publish_latency_ns_sum");
  const double ckpt_ns = d("she_pipeline_checkpoint_latency_ns_sum");
  const double ckpts = d("she_pipeline_checkpoint_latency_ns_count");
  add("runtime.drains", drains, "count");
  add("runtime.drain_us_mean", ratio(drain_ns, d("she_pipeline_drain_latency_ns_count")) / 1000.0, "us",
      static_cast<std::size_t>(drains));
  add("runtime.items_per_drain", ratio(inserted, drains), "items");
  add("runtime.publishes", publishes, "count");
  add("runtime.publish_us_mean", ratio(publish_ns, d("she_pipeline_publish_latency_ns_count")) / 1000.0,
      "us", static_cast<std::size_t>(publishes));
  add("runtime.items_per_publish", ratio(inserted, publishes), "items");
  add("runtime.worker_busy_share",
      ratio((drain_ns + publish_ns + ckpt_ns) / 1e9,
            static_cast<double>(in.shards) * in.window_s),
      "share");
  add("runtime.queue_hwm", in.after.max("she_pipeline_queue_hwm", pl), "items");
  add("runtime.checkpoints", d("she_pipeline_checkpoints_total"), "count");
  add("runtime.checkpoint_ms_mean", ratio(ckpt_ns, ckpts) / 1e6, "ms", static_cast<std::size_t>(ckpts));

  // she: spans of the drain's insert_batch, then the single-thread probes.
  const Summary batch = in.trace->durations_us("estimator.insert_batch").summarize();
  add("she.insert_batch_us.p50", batch.p50, "us", batch.count);
  add("she.insert_batch_us.p99", batch.p99, "us", batch.count);
  add("she.insert_batch_ns_per_item", in.estimator.insert_batch_ns_per_item, "ns");
  add("she.insert_one_ns", in.estimator.insert_one_ns, "ns");
  add("she.save_us", in.estimator.save_us, "us");
  add("she.load_us", in.estimator.load_us, "us");
  add("she.snapshot_bytes", in.estimator.snapshot_bytes, "bytes");
  add("she.frequency_ns", in.estimator.frequency_ns, "ns");
  add("she.seen_ns", in.estimator.seen_ns, "ns");
  add("she.report_us", in.estimator.report_us, "us");

  // wal: probes, plus what the kill -9 / --resume step found and replayed.
  add("wal.append_us_per_frame", in.wal.append_us_per_frame, "us");
  add("wal.fsync_us", in.wal.fsync_us, "us");
  add("wal.replayed_items", in.wal_replayed_items, "count");
  add("wal.replay_items_per_s", ratio(in.wal_replayed_items, in.recovery_s), "1/s");
  add("wal.bytes_on_disk", in.wal_bytes_on_disk, "bytes");

  add("obs.trace_overhead", in.trace_overhead, "ratio");
  return out;
}

}  // namespace she::bench::e2e
