// she_bench — end-to-end benchmark of the SHE sketch service.
//
//   she_bench [--workload NAME|all] [--seed N] [--duration S] [--warmup S]
//             [--traced] [--smoke] [--server PATH] [--work-dir DIR]
//             [--out FILE] [--bench-json FILE]
//
// Each workload (load.hpp) runs against a she_server spawned as a separate
// process with `--port 0`, after a short spin that brings every CPU up to
// speed:
//
//   1. set-up, five times: spawn, CREATE, prefill two windows, FLUSH
//      (setup_s is the median; the last server is kept);
//   2. warm-up, then the measured window, with ack-to-visible probes;
//   3. bulk_ingest and durable_ingest: the read-back tail (load.hpp);
//   4. SAVE, then recovery: kill -9, restart with --resume, time until it
//      answers, and compare its answers byte for byte with those taken
//      before the kill (durable_ingest first inserts a 2M-key suffix);
//   5. the correctness gate (gate.hpp) on the resumed server.
//
// It prints every end-to-end metric with its unit (sample counts where a
// metric summarizes samples), then the end-to-end timings, which
// BENCHMARK.json keeps as per-layer metrics, and as its last line one
// JSON object with the end-to-end metrics:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
//
// --traced reports the per-layer metrics (layers.hpp) instead: an untraced
// run gives the timings and the headline number, then a pass against a
// server started with --trace is scraped and probed.
// --smoke runs every workload for 1 s, one traced pass and the gate, and
// checks that the printed metric names are the ones BENCHMARK.json lists.
//
// Exit status: 0 when every answer matched and no request failed; 1
// otherwise; 2 on a usage error or a sanitizer build.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gate.hpp"
#include "host_info.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "server_process.hpp"
#include "stream/trace.hpp"

namespace she::bench::e2e {
namespace {

namespace fs = std::filesystem;
using server::SheClient;

constexpr std::uint64_t kDefaultSeed = 20220829;
constexpr std::size_t kPoolKeys = std::size_t{1} << 22;
constexpr std::size_t kPrefillKeys = 128 * 1024;  // two 64K windows
constexpr std::size_t kSuffixKeys = 2'000'000;    // durable_ingest, after SAVE
constexpr int kSetups = 5;
// Restarts that replay the 2M-key WAL suffix take seconds; the others
// only load a checkpoint.
constexpr int kRecoveries = 3;
constexpr int kQuickRecoveries = 7;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = kDefaultSeed;
  double duration_s = 30;
  double warmup_s = 5;
  bool traced = false;
  bool smoke = false;
  std::string server_bin = SHE_BENCH_SERVER_BIN;
  fs::path work_dir = "she_bench_work";
  std::string out;
  std::string bench_json;
};

struct RunResult {
  const Workload* workload = nullptr;
  bool traced = false;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// What the final JSON line reports: BENCHMARK.json's end_to_end
  /// metrics, or with --traced its per_layer ones.
  std::vector<Metric> metrics;
  /// Untraced runs only: the end-to-end timings, which BENCHMARK.json
  /// lists as per-layer metrics because their run-to-run spread on a
  /// shared 4-vCPU VM is above 10 %.  Printed and written to --out.
  std::vector<Metric> timings;
  double headline = 0;  ///< see headline_of()
  std::vector<std::pair<std::string, double>> phases_s;
  std::string healthz;

  void tally(const OpStats& s) {
    attempted += s.attempted;
    failed += s.failed;
  }
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Lengths of the tail's query part and probe part.
std::pair<double, double> tail_seconds(const Options& o) {
  const double query_s = std::clamp(o.duration_s / 5, 0.5, 3.0);
  return {query_s, std::min(query_s, 2.0)};
}

/// Keep every CPU busy for a moment before anything is timed.  On a VM
/// whose host hands out less CPU while the guest idles, the first second
/// of multi-threaded work otherwise runs at a fraction of full speed.
void warm_cpus() {
  constexpr auto kSpin = std::chrono::milliseconds(1500);
  const unsigned n = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  const Clock::time_point until = Clock::now() + kSpin;
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&] {
    std::uint64_t x = 1;
    while (Clock::now() < until)
      for (int i = 0; i < 1000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  std::vector<std::jthread> spinners;
  for (unsigned i = 1; i < n; ++i) spinners.emplace_back(spin);
  spin();
}

/// Shortest decimal that reads back as exactly `v`.
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// ---------------------------------------------------------------- servers --

/// One server process, its state root and the benchmark's main connection
/// to it (the probe connection during a measured phase).
struct Session {
  fs::path root;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<SheClient> client;

  void stop() {
    client.reset();
    if (server) server->kill_hard();
  }

  /// kill -9 whatever runs, then start a server on `root`/state.
  void spawn(const Options& o, bool traced, bool resume) {
    stop();
    std::vector<std::string> args = {"--port", "0", "--http-port", "0",
                                     "--checkpoint-root", (root / "state").string()};
    if (traced) args.push_back("--trace");
    if (resume) args.push_back("--resume");
    server = std::make_unique<ServerProcess>(o.server_bin, args, root / "server.log");
    client = std::make_unique<SheClient>("127.0.0.1", server->port());
  }
};

/// Spawn, CREATE, prefill two windows, FLUSH.  Returns the seconds taken.
double set_up(Session& s, const Options& o, const Workload& w, bool traced,
              std::span<const std::uint64_t> pool, RunResult& r) {
  s.stop();
  fs::remove_all(s.root / "state");
  fs::create_directories(s.root);
  const Clock::time_point t0 = Clock::now();
  s.spawn(o, traced, false);
  OpStats st;
  ++st.attempted;
  s.client->create(kPipeline, pipeline_spec(w, 4));
  insert_frames(*s.client, kPipeline, pool.first(kPrefillKeys), st);
  ++st.attempted;
  s.client->flush(kPipeline);
  const double secs = seconds_since(t0);
  r.tally(st);
  if (r.healthz.empty()) r.healthz = http_get(s.server->http_port(), "/healthz");
  return secs;
}

struct Recovery {
  Samples seconds;
  double first_s = 0;
  double replayed_items = 0;
  double wal_bytes = 0;
  bool answers_equal = true;
};

/// After SAVE: (durable_ingest: insert the suffix and FLUSH,) record the
/// answers, then kill -9 / --resume several times, each time timing
/// spawn-to-first-answer and comparing the answers byte for byte.
Recovery recover(Session& s, const Options& o, const Workload& w,
                 std::span<const std::uint64_t> pool, RunResult& r) {
  Recovery rec;
  OpStats st;
  if (w.wal) {
    insert_frames(*s.client, kPipeline, pool.subspan(kPrefillKeys, kSuffixKeys), st);
    ++st.attempted;
    s.client->flush(kPipeline);
  }
  const std::string want = recovery_answers(*s.client, pool);
  for (const auto& e : fs::directory_iterator(s.root / "state" / kPipeline))
    if (e.path().extension() == ".wal") rec.wal_bytes += static_cast<double>(e.file_size());
  for (int i = 0; i < (w.wal ? kRecoveries : kQuickRecoveries); ++i) {
    s.stop();
    const Clock::time_point t0 = Clock::now();
    s.spawn(o, false, true);
    ++st.attempted;
    (void)s.client->query_membership(kPipeline, pool[0]);
    const double secs = seconds_since(t0);
    rec.seconds.add(secs);
    if (i == 0) {
      rec.first_s = secs;
      rec.replayed_items = PromScrape(http_get(s.server->http_port(), "/metrics"))
                               .sum("she_pipeline_wal_replayed_total",
                                    std::string("pipeline=\"") + kPipeline + "\"");
    }
    if (recovery_answers(*s.client, pool) != want) rec.answers_equal = false;
  }
  r.tally(st);
  return rec;
}

/// The number obs.trace_overhead compares: write throughput for the
/// workloads without readers, query throughput for the others.
double headline_of(const Workload& w, const OpStats& window, double measure_s) {
  return static_cast<double>(no_readers(w) ? window.items : window.queries) / measure_s;
}

/// The load of one pass: warm-up and measured window (`hooks` run on the
/// probe thread), then, on the workloads without readers, the read-back
/// tail (`tail_tick` runs on the probe thread).
struct Load {
  OpStats window;
  OpStats tail;
  double tail_query_s = 0;
};

Load run_load(Session& s, const Options& o, const Workload& w,
              std::span<const std::uint64_t> pool, const PhaseHooks& hooks,
              const std::function<void()>& tail_tick, RunResult& r) {
  const PhasePlan plan{&w, pool, o.seed, o.warmup_s, o.duration_s};
  Load l;
  l.window = run_measured_phase(s.server->port(), *s.client, plan, hooks);
  r.phases_s.emplace_back("warmup", o.warmup_s);
  r.phases_s.emplace_back("measure", o.duration_s);
  r.tally(l.window);
  if (no_readers(w)) {
    const auto [query_s, probe_s] = tail_seconds(o);
    l.tail = run_tail(s.server->port(), *s.client, plan, query_s, probe_s, tail_tick);
    l.tail_query_s = query_s;
    r.phases_s.emplace_back("tail", query_s + probe_s);
    r.tally(l.tail);
  }
  return l;
}

/// SAVE, then recover(); folds the answers' byte equality into `r`.
Recovery save_and_recover(Session& s, const Options& o, const Workload& w,
                          std::span<const std::uint64_t> pool, RunResult& r) {
  const Clock::time_point t0 = Clock::now();
  ++r.attempted;
  s.client->save(kPipeline);
  Recovery rec = recover(s, o, w, pool, r);
  r.phases_s.emplace_back("recovery", seconds_since(t0));
  if (!rec.answers_equal) {
    r.correct = false;
    std::fprintf(stderr, "she_bench: %s: answers after --resume differ from before kill -9\n",
                 w.name);
  }
  return rec;
}

RunResult run_untraced(const Options& o, const Workload& w,
                       std::span<const std::uint64_t> pool) {
  RunResult r;
  r.workload = &w;
  Session s{o.work_dir / w.name / "run", nullptr, nullptr};
  Samples setup;
  for (int i = 0; i < kSetups; ++i) setup.add(set_up(s, o, w, false, pool, r));
  r.phases_s.emplace_back("setup", setup.sum());

  Samples rss;
  PhaseHooks hooks;
  hooks.between_probes = [&] { rss.add(s.server->rss_mib()); };
  const Load load = run_load(s, o, w, pool, hooks, {}, r);
  const double rss_peak = s.server->peak_rss_mib();
  r.headline = headline_of(w, load.window, o.duration_s);
  const Recovery rec = save_and_recover(s, o, w, pool, r);

  const Clock::time_point t0 = Clock::now();
  const GateResult gate = run_gate(*s.client, w, o.seed);
  r.phases_s.emplace_back("gate", seconds_since(t0));
  s.stop();
  r.attempted += gate.attempted;
  r.failed += gate.failed;
  if (gate.mismatches != 0 || !gate.completed) {
    r.correct = false;
    std::fprintf(stderr, "she_bench: %s: correctness gate: %llu mismatches%s\n", w.name,
                 static_cast<unsigned long long>(gate.mismatches),
                 gate.completed ? "" : " (gate aborted by a request error)");
  }

  r.metrics = {
      {"setup_s", setup.summarize().p50, "s", setup.count()},
      // The floor: durable_ingest holds tens of MiB of WAL and checkpoint
      // buffers for a while after some checkpoints, how long depending on
      // its throughput, so its median and peak jump from run to run.
      {"server_rss_mb", rss.summarize().p10, "MiB", rss.count()},
      {"freq_are", gate.freq_are, "ratio", gate.freq_samples},
      {"member_fpr", gate.member_fpr, "ratio", gate.member_samples},
      {"card_re", gate.card_re, "ratio", gate.card_samples},
  };

  // The workloads without readers take their query and visibility timings
  // from the read-back tail.
  const bool tail = no_readers(w);
  const OpStats& reads = tail ? load.tail : load.window;
  Samples queries = reads.query_point_us;
  queries.merge(reads.query_agg_us);
  const Summary ins = (w.kind == Kind::kPointOps ? load.window.insert_us
                                                 : load.window.insert_bulk_us).summarize();
  const Summary qry = queries.summarize();
  const Summary vis = reads.visibility_ms.summarize();
  const Summary rs = rec.seconds.summarize();
  const double reads_s = tail ? load.tail_query_s : o.duration_s;
  r.timings = {
      {"untraced.ingest_items_per_s", static_cast<double>(load.window.items) / o.duration_s, "1/s", 0},
      {"untraced.insert_p50_us", ins.p50, "us", ins.count},
      {"untraced.insert_p99_us", ins.p99, "us", ins.count},
      {"untraced.query_per_s", static_cast<double>(reads.queries) / reads_s, "1/s", 0},
      {"untraced.query_p50_us", qry.p50, "us", qry.count},
      {"untraced.query_p99_us", qry.p99, "us", qry.count},
      {"untraced.visibility_p50_ms", vis.p50, "ms", vis.count},
      {"untraced.visibility_p95_ms", vis.p95, "ms", vis.count},
      {"untraced.recovery_s", rs.p50, "s", rs.count},
      {"untraced.server_rss_peak_mb", rss_peak, "MiB", 0},
  };

  return r;
}

RunResult run_traced(const Options& o, const Workload& w,
                     std::span<const std::uint64_t> pool) {
  // Untraced pass: the timings, and the headline number for
  // obs.trace_overhead.
  const RunResult plain = run_untraced(o, w, pool);
  RunResult r;
  r.workload = &w;
  r.traced = true;
  r.correct = plain.correct;
  r.attempted = plain.attempted;
  r.failed = plain.failed;
  r.healthz = plain.healthz;
  for (const auto& [phase, secs] : plain.phases_s) r.phases_s.emplace_back("untraced_" + phase, secs);

  Session s{o.work_dir / w.name / "traced", nullptr, nullptr};
  r.phases_s.emplace_back("setup", set_up(s, o, w, true, pool, r));
  TraceCollector trace(s.server->http_port());
  LayerInputs in;
  in.shards = 2;
  Clock::time_point window_start;
  PhaseHooks hooks;
  hooks.at_measure_start = [&] {
    in.before = PromScrape(http_get(s.server->http_port(), "/metrics"));
    window_start = Clock::now();
    trace.pull(/*count=*/false);
  };
  hooks.between_probes = [&] { trace.maybe_pull(); };
  const Load load = run_load(s, o, w, pool, hooks, [&] { trace.maybe_pull(); }, r);
  trace.pull();
  in.after = PromScrape(http_get(s.server->http_port(), "/metrics"));
  in.window_s = seconds_since(window_start);
  OpStats client = load.window;
  client.merge(load.tail);
  const Recovery rec = save_and_recover(s, o, w, pool, r);
  s.stop();

  const Clock::time_point t0 = Clock::now();
  in.client = &client;
  in.trace = &trace;
  in.estimator = probe_estimator(pipeline_spec(w, 4), pool);
  in.wal = probe_wal(s.root / "walprobe", pool);
  r.phases_s.emplace_back("probes", seconds_since(t0));
  in.wal_replayed_items = rec.replayed_items;
  in.recovery_s = rec.first_s;
  in.wal_bytes_on_disk = rec.wal_bytes;
  in.trace_overhead = headline_of(w, load.window, o.duration_s) / plain.headline;
  r.metrics = per_layer_metrics(in);
  r.metrics.insert(r.metrics.end(), plain.timings.begin(), plain.timings.end());
  return r;
}

// ----------------------------------------------------------------- output --

void print_run(const RunResult& r, const Options& o) {
  std::printf("== %s (%s, seed %llu, %.3g s warm-up + %.3g s measured) ==\n",
              r.workload->name, r.traced ? "traced" : "untraced",
              static_cast<unsigned long long>(o.seed), o.warmup_s, o.duration_s);
  const auto print = [](const std::vector<Metric>& ms) {
    for (const Metric& m : ms) {
      std::printf("  %-36s %14.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
      if (m.samples != 0) std::printf("  n=%zu", m.samples);
      std::printf("\n");
    }
  };
  print(r.metrics);
  if (!r.timings.empty()) {
    std::printf("  -- timings (per-layer in BENCHMARK.json: too noisy to bound) --\n");
    print(r.timings);
  }
  std::printf("  correct=%s attempted=%llu failed=%llu failed_ops_ratio=%.3g\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0);
  std::fflush(stdout);
}

std::string metrics_json(const std::vector<Metric>& ms, const std::string& prefix,
                         bool with_samples) {
  std::string out;
  for (const Metric& m : ms) {
    out += (out.empty() ? "\"" : ",\"") + prefix + m.name + "\":{\"value\":" +
           num(m.value) + ",\"unit\":\"" + m.unit + "\"";
    if (with_samples) out += ",\"samples\":" + std::to_string(m.samples);
    out += "}";
  }
  return out;
}

void write_results(const std::string& path, const Options& o, const HostInfo& host,
                   const std::vector<RunResult>& runs) {
  std::ofstream os(path);
  os << "{\"schema_version\":1,\"bench\":\"she_bench\",\"host\":" << to_json(host)
     << ",\"seed\":" << o.seed << ",\"warmup_s\":" << num(o.warmup_s)
     << ",\"duration_s\":" << num(o.duration_s) << ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    os << (i ? "," : "") << "\n{\"workload\":\"" << r.workload->name
       << "\",\"traced\":" << (r.traced ? "true" : "false") << ",\"wal\":\""
       << (r.workload->wal ? "fsync" : "off") << "\",\"correct\":"
       << (r.correct ? "true" : "false") << ",\"attempted\":" << r.attempted
       << ",\"failed\":" << r.failed << ",\"phases_s\":{";
    for (std::size_t p = 0; p < r.phases_s.size(); ++p)
      os << (p ? "," : "") << '"' << r.phases_s[p].first << "\":" << num(r.phases_s[p].second);
    std::vector<Metric> all = r.metrics;
    all.insert(all.end(), r.timings.begin(), r.timings.end());
    os << "},\"metrics\":{" << metrics_json(all, "", true) << "}}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

/// The "name" strings inside the JSON array under `key` of BENCHMARK.json.
std::set<std::string> bench_names(const std::string& json, const std::string& key) {
  std::set<std::string> names;
  const std::size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return names;
  const std::size_t open = json.find('[', at);
  int depth = 0;
  std::size_t close = open;
  for (; close < json.size(); ++close) {
    if (json[close] == '[') ++depth;
    if (json[close] == ']' && --depth == 0) break;
  }
  const std::string region = json.substr(open, close - open);
  for (std::size_t p = region.find("\"name\""); p != std::string::npos;
       p = region.find("\"name\"", p + 1)) {
    const std::size_t q1 = region.find('"', region.find(':', p) + 1);
    const std::size_t q2 = region.find('"', q1 + 1);
    names.insert(region.substr(q1 + 1, q2 - q1 - 1));
  }
  return names;
}

bool same_names(const char* what, const std::set<std::string>& want,
                const std::set<std::string>& got) {
  bool ok = true;
  for (const std::string& n : want)
    if (!got.contains(n)) {
      std::fprintf(stderr, "she_bench --smoke: %s metric %s listed in BENCHMARK.json but not printed\n",
                   what, n.c_str());
      ok = false;
    }
  for (const std::string& n : got)
    if (!want.contains(n)) {
      std::fprintf(stderr, "she_bench --smoke: %s metric %s printed but not in BENCHMARK.json\n",
                   what, n.c_str());
      ok = false;
    }
  return ok;
}

/// --smoke: printed names must be exactly BENCHMARK.json's.
bool smoke_names_match(const Options& o, const std::vector<RunResult>& runs) {
  std::ifstream in(o.bench_json);
  if (!in) {
    std::fprintf(stderr, "she_bench --smoke: cannot read %s\n", o.bench_json.c_str());
    return false;
  }
  const std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::set<std::string> workloads;
  for (const Workload& w : kWorkloads) workloads.insert(w.name);
  bool ok = same_names("workload", bench_names(json, "workloads"), workloads);
  for (const RunResult& r : runs) {
    std::set<std::string> got;
    for (const Metric& m : r.metrics) got.insert(m.name);
    ok &= same_names(r.traced ? "per_layer" : "end_to_end",
                     bench_names(json, r.traced ? "per_layer" : "end_to_end"), got);
  }
  return ok;
}

// -------------------------------------------------------------------- CLI --

[[noreturn]] void usage(const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "she_bench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: she_bench [--workload NAME|all] [--seed N] [--duration S]\n"
               "                 [--warmup S] [--traced] [--smoke] [--server PATH]\n"
               "                 [--work-dir DIR] [--out FILE] [--bench-json FILE]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " requires a value");
      return argv[++i];
    };
    const auto positive = [&](const std::string& v) {
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(d > 0)) usage("bad value for " + arg);
      return d;
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      const auto r = std::from_chars(v.data(), v.data() + v.size(), o.seed);
      if (r.ec != std::errc() || r.ptr != v.data() + v.size()) usage("bad --seed");
    } else if (arg == "--duration") {
      o.duration_s = positive(value());
    } else if (arg == "--warmup") {
      o.warmup_s = positive(value());
    } else if (arg == "--traced") {
      o.traced = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--server") {
      o.server_bin = value();
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--bench-json") {
      o.bench_json = value();
    } else {
      usage(arg == "--help" || arg == "-h" ? "" : "unknown option " + arg);
    }
  }
  if (o.workload != "all" && find_workload(o.workload) == nullptr)
    usage("unknown workload " + o.workload);
  if (o.smoke) {
    if (o.bench_json.empty()) usage("--smoke needs --bench-json");
    o.workload = "all";
    o.duration_s = 1;
    o.warmup_s = 0.5;
  }
  return o;
}

int run(const Options& o) {
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads)
    if (o.workload == "all" || o.workload == w.name) selected.push_back(&w);

  std::vector<RunResult> runs;
  for (const Workload* w : selected) {
    fs::remove_all(o.work_dir / w->name);
    // The keys every request of the run draws from: Zipf 1.0 over 600K
    // ranks (the CAIDA-like trace), fixed by the seed.
    const stream::Trace pool = stream::named_dataset("caida", kPoolKeys, o.seed);
    warm_cpus();
    runs.push_back(o.traced ? run_traced(o, *w, pool) : run_untraced(o, *w, pool));
    print_run(runs.back(), o);
    fs::remove_all(o.work_dir / w->name);
  }
  if (o.smoke) {
    const Workload* w = find_workload("durable_ingest");
    const stream::Trace pool = stream::named_dataset("caida", kPoolKeys, o.seed);
    runs.push_back(run_traced(o, *w, pool));
    print_run(runs.back(), o);
    fs::remove_all(o.work_dir / w->name);
  }

  const HostInfo host = collect_host_info(runs.front().healthz);
  std::printf("host %s\n", to_json(host).c_str());
  if (!o.out.empty()) write_results(o.out, o, host, runs);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string metrics;
  for (const RunResult& r : runs) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    const std::string prefix = runs.size() == 1 ? "" : std::string(r.workload->name) + (r.traced ? ".traced." : ".");
    const std::string part = metrics_json(r.metrics, prefix, false);
    metrics += (metrics.empty() || part.empty() ? "" : ",") + part;
  }
  const bool names_ok = !o.smoke || smoke_names_match(o, runs);
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct && failed == 0 && names_ok ? 0 : 1;
}

}  // namespace
}  // namespace she::bench::e2e

int main(int argc, char** argv) {
  using namespace she::bench::e2e;
  ::signal(SIGPIPE, SIG_IGN);
  const Options o = parse(argc, argv);
  require_timing_build();
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "she_bench: %s\n", e.what());
    return 1;
  }
}
