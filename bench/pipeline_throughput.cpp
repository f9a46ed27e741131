// Concurrent ingest runtime — producers x shards throughput sweep.
//
// Replays a Zipf (CAIDA-like) stream through IngestPipeline<SheBloomFilter>
// for every (producers, shards) combination, with an optional concurrent
// reader hammering snapshot queries, and reports aggregate insert
// throughput.  Each row is also emitted as one JSON object (the
// pipeline's metric registry, as obs::write_json renders it, plus the
// sweep coordinates) so runs are machine-comparable across hosts.
//
// The interesting acceptance signal is insert scaling with shard count
// (>=2x from 1 to 4 shards on multi-core hosts); on a single-core host the
// sweep degenerates to context-switch overhead, which is why the physical
// concurrency is part of the banner.
//
// A second table runs one loaded 2-shard pipeline alone and next to 8 idle
// ones, alternating, and reports both rates: idle shard workers park, so
// they should leave the cores to the loaded one.  It is reported, not
// gated.
//
// It is also an end-to-end check of the commit lanes and shard rings: the
// process exits 1 when any sweep or idle-neighbour row applied a different
// number of keys (she_pipeline_inserted_total) than its producers pushed,
// or dropped any (she_pipeline_dropped_total).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/stats.hpp"
#include "obs/export.hpp"
#include "runtime/ingest_pipeline.hpp"
#include "she/she.hpp"
#include "stream/oracle.hpp"

namespace she::bench {
namespace {

using runtime::IngestPipeline;
using runtime::PipelineOptions;

constexpr std::uint64_t kN = kWindow;
constexpr std::uint64_t kItems = 4'000'000;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

IngestPipeline<SheBloomFilter>::Factory bf_factory(std::size_t shards) {
  return [shards](std::size_t s) {
    SheConfig cfg;
    cfg.window = kN / shards;
    cfg.cells = (1u << 20) / shards;
    cfg.group_cells = 64;
    cfg.alpha = 3.0;
    cfg.seed = static_cast<std::uint32_t>(s);
    return SheBloomFilter(cfg, 8);
  };
}

struct RunResult {
  std::uint64_t pushed = 0;  ///< keys the producers handed to push_bulk
  std::uint64_t inserted = 0;  ///< she_pipeline_inserted_total
  std::uint64_t dropped = 0;   ///< she_pipeline_dropped_total
  double mips = 0;
  double queries_per_sec = 0;
  std::string metrics_json;  ///< the pipeline registry after close()
};

RunResult run_once(const stream::Trace& trace, std::size_t producers,
                   std::size_t shards, bool with_reader) {
  PipelineOptions opt;
  opt.shards = shards;
  opt.producers = producers;
  opt.queue_capacity = 4096;
  opt.publish_interval = 4096;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(shards));
  pipe.start();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::thread reader;
  if (with_reader) {
    reader = std::thread([&] {
      std::uint64_t q = 0;
      while (!done.load(std::memory_order_acquire)) {
        for (std::size_t s = 0; s < shards; ++s) {
          (void)pipe.view(s)->contains(0xFEEDu + q);
          ++q;
        }
      }
      queries.store(q, std::memory_order_relaxed);
    });
  }

  std::atomic<std::uint64_t> pushed{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    pool.emplace_back([&, p] {
      // 256-key slices through push_bulk: one commit-lane section per
      // shard per slice instead of one per key.
      constexpr std::size_t kSlice = 256;
      const std::size_t lo = trace.size() * p / producers;
      const std::size_t hi = trace.size() * (p + 1) / producers;
      for (std::size_t i = lo; i < hi; i += kSlice)
        pipe.push_bulk(p, std::span<const std::uint64_t>(
                              trace.data() + i, std::min(kSlice, hi - i)));
      pushed.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  }
  for (auto& t : pool) t.join();
  pipe.close();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  RunResult r;
  r.pushed = pushed.load();
  r.mips = static_cast<double>(trace.size()) / elapsed / 1e6;
  const obs::Registry& reg = pipe.metrics_registry();
  r.inserted = reg.sum("she_pipeline_inserted_total");
  r.dropped = reg.sum("she_pipeline_dropped_total");
  std::ostringstream json;
  obs::write_json(json, reg);
  r.metrics_json = json.str();
  if (with_reader) {
    done.store(true, std::memory_order_release);
    reader.join();
    r.queries_per_sec = static_cast<double>(queries.load()) / elapsed;
  }
  return r;
}

/// False, with a line on stderr, when a run lost or dropped keys.
bool exact_counts(const RunResult& r, std::size_t producers,
                  std::size_t shards) {
  if (r.inserted == r.pushed && r.dropped == 0) return true;
  std::fprintf(stderr,
               "producers=%zu shards=%zu: pushed %llu keys, inserted "
               "%llu, dropped %llu\n",
               producers, shards, static_cast<unsigned long long>(r.pushed),
               static_cast<unsigned long long>(r.inserted),
               static_cast<unsigned long long>(r.dropped));
  return false;
}

/// Runs the sweep; returns false when some row lost or dropped keys.
bool sweep(std::vector<std::string>& json_rows) {
  auto trace = caida_like(kItems);
  std::printf("\n--- Ingest throughput: producers x shards (SHE-BF, %llu "
              "items, Zipf) ---\n",
              static_cast<unsigned long long>(kItems));
  std::printf("(hardware_concurrency on this machine: %u — scaling is capped "
              "by the physical core count)\n",
              std::thread::hardware_concurrency());
  Table table({"producers", "shards", "Mips", "speedup-vs-1shard", "q/s"});
  bool exact = true;
  for (std::size_t producers : {1u, 2u, 4u}) {
    double base = 0;
    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      RunResult r = run_once(trace, producers, shards, /*with_reader=*/true);
      if (shards == 1) base = r.mips;
      table.add(producers, shards, fmt(r.mips), fmt(r.mips / base),
                fmt(r.queries_per_sec));
      std::ostringstream row;
      row << "{\"producers\":" << producers << ",\"shards\":" << shards
          << ",\"mips\":" << r.mips
          << ",\"queries_per_sec\":" << r.queries_per_sec
          << ",\"stats\":" << r.metrics_json << "}";
      json_rows.push_back(row.str());
      std::printf("JSON %s\n", row.str().c_str());
      exact = exact_counts(r, producers, shards) && exact;
    }
  }
  table.print(std::cout);
  return exact;
}

/// One loaded 2-shard pipeline (2 producers, no reader) alone, then with
/// kIdle started 2-shard pipelines beside it that get no keys, alternating
/// for kRounds rounds; reports the median rate of each side.  Returns
/// false when some run lost or dropped keys.
bool idle_neighbours(std::vector<std::string>& json_rows) {
  constexpr std::size_t kIdle = 8;
  constexpr int kRounds = 9;
  std::printf("\n--- A loaded pipeline alone and next to %zu idle ones "
              "(2 producers, 2 shards, median of %d alternating rounds) ---\n",
              kIdle, kRounds);
  auto trace = caida_like(kItems);
  std::vector<double> alone;
  std::vector<double> crowded;
  bool exact = true;
  for (int round = 0; round < kRounds; ++round) {
    RunResult r = run_once(trace, 2, 2, /*with_reader=*/false);
    alone.push_back(r.mips);
    exact = exact_counts(r, 2, 2) && exact;
    std::vector<std::unique_ptr<IngestPipeline<SheBloomFilter>>> idle;
    PipelineOptions opt;
    opt.shards = 2;
    for (std::size_t i = 0; i < kIdle; ++i) {
      idle.push_back(
          std::make_unique<IngestPipeline<SheBloomFilter>>(opt, bf_factory(2)));
      idle.back()->start();
    }
    r = run_once(trace, 2, 2, /*with_reader=*/false);
    crowded.push_back(r.mips);
    exact = exact_counts(r, 2, 2) && exact;
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double a = median(alone);
  const double c = median(crowded);
  Table table({"idle pipelines", "Mips alone", "Mips crowded", "crowded/alone"});
  table.add(kIdle, fmt(a), fmt(c), fmt(c / a));
  table.print(std::cout);
  std::ostringstream row;
  row << "{\"idle_pipelines\":" << kIdle << ",\"rounds\":" << kRounds
      << ",\"alone_mips\":" << a << ",\"crowded_mips\":" << c
      << ",\"ratio\":" << c / a << "}";
  json_rows.push_back(row.str());
  std::printf("JSON %s\n", row.str().c_str());
  return exact;
}

void accuracy_under_load(std::vector<std::string>& json_rows) {
  // Concurrent queries must stay within the single-threaded sharded error
  // envelope: compare final snapshot cardinality (SHE-BM) to the exact
  // oracle, as test_sharded.cpp does offline.
  std::printf("\n--- Queries-under-load accuracy (SHE-BM cardinality RE) ---\n");
  auto trace = caida_like(4 * kN);
  Table table({"shards", "RE"});
  for (std::size_t shards : {1u, 2u, 4u}) {
    PipelineOptions opt;
    opt.shards = shards;
    opt.producers = 1;
    IngestPipeline<SheBitmap> pipe(opt, [shards](std::size_t s) {
      SheConfig cfg;
      cfg.window = kN / shards;
      cfg.cells = (1u << 16) / shards;
      cfg.group_cells = 64;
      cfg.alpha = 0.2;
      cfg.seed = static_cast<std::uint32_t>(s);
      return SheBitmap(cfg);
    });
    pipe.start();
    stream::WindowOracle oracle(kN);
    RunningStats err;
    std::size_t fed = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      pipe.push(0, trace[i]);
      oracle.insert(trace[i]);
      if (i > 2 * kN && i % (kN / 2) == 0) {
        // Let the worker catch up, then query the live snapshots.
        while (pipe.metrics_registry().sum("she_pipeline_inserted_total") <
               i - opt.queue_capacity)
          std::this_thread::yield();
        double est = 0;
        for (std::size_t s = 0; s < shards; ++s)
          est += pipe.snapshot(s).cardinality();
        err.add(relative_error(static_cast<double>(oracle.cardinality()), est));
        ++fed;
      }
    }
    pipe.close();
    (void)fed;
    table.add(shards, fmt(err.mean()));
    std::ostringstream row;
    row << "{\"shards\":" << shards << ",\"mean_re\":" << err.mean()
        << ",\"samples\":" << fed << "}";
    json_rows.push_back(row.str());
  }
  table.print(std::cout);
}

/// Write every sweep and accuracy row into one machine-readable document so
/// CI can diff runs across hosts without scraping stdout.
void write_report(const std::string& path,
                  const std::vector<std::string>& sweep_rows,
                  const std::vector<std::string>& neighbour_rows,
                  const std::vector<std::string>& accuracy_rows) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  auto emit = [&os](const std::vector<std::string>& rows) {
    for (std::size_t i = 0; i < rows.size(); ++i)
      os << (i ? ",\n    " : "") << rows[i];
  };
  os << "{\n  \"schema_version\": 1,\n  \"bench\": \"pipeline_throughput\",\n"
     << "  \"items\": " << kItems << ",\n  \"window\": " << kN << ",\n"
     << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n  \"sweep\": [\n    ";
  emit(sweep_rows);
  os << "\n  ],\n  \"idle_neighbours\": [\n    ";
  emit(neighbour_rows);
  os << "\n  ],\n  \"accuracy_under_load\": [\n    ";
  emit(accuracy_rows);
  os << "\n  ]\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace she::bench

int main(int argc, char** argv) {
  she::bench::banner("Pipeline throughput — concurrent ingest runtime",
                     "Sharded commit-lane pipelines: aggregate insert "
                     "throughput across producers x shards with concurrent "
                     "snapshot queries, plus queries-under-load accuracy.");
  std::vector<std::string> sweep_rows;
  std::vector<std::string> neighbour_rows;
  std::vector<std::string> accuracy_rows;
  bool exact = she::bench::sweep(sweep_rows);
  exact = she::bench::idle_neighbours(neighbour_rows) && exact;
  she::bench::accuracy_under_load(accuracy_rows);
  she::bench::write_report(argc > 1 ? argv[1] : "BENCH_pipeline.json",
                           sweep_rows, neighbour_rows, accuracy_rows);
  return exact ? 0 : 1;
}
