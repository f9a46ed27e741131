// Google-benchmark micro-operations: per-insert and per-query cost of every
// estimator and baseline on a pre-generated CAIDA-like key sequence.
// Complements the trace-level Mips figures (Fig. 10/11) with steady-state
// per-op numbers and their variance.
//
// Every SHE estimator gets a symmetric *InsertScalarLarge / *InsertBatch
// pair at cache-exceeding sizes; a custom main() tees the console report
// into BENCH_micro.json (schema_version stamped, matching the
// BENCH_pipeline.json treatment) with the per-key-vs-batch and
// forced-scalar-vs-native speedups paired up by estimator and size
// argument.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "baselines/cvs.hpp"
#include "common/simd.hpp"
#include "baselines/ecm.hpp"
#include "baselines/shll.hpp"
#include "baselines/swamp.hpp"
#include "baselines/tbf.hpp"
#include "baselines/tobf.hpp"
#include "baselines/tsv.hpp"
#include "common.hpp"
#include "obs/trace.hpp"
#include "she/she.hpp"

namespace she::bench {
namespace {

const stream::Trace& keys() {
  static stream::Trace t = caida_like(1 << 20);
  return t;
}

constexpr std::uint64_t kN = 1u << 16;

template <typename T>
void drive_inserts(benchmark::State& state, T& sketch) {
  const auto& ks = keys();
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.insert(ks[i]);
    i = (i + 1) & (ks.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SheBloomInsert(benchmark::State& state) {
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = 1u << 20;
  cfg.group_cells = 64;
  cfg.alpha = 3.0;
  SheBloomFilter bf(cfg, static_cast<unsigned>(state.range(0)));
  drive_inserts(state, bf);
}
BENCHMARK(BM_SheBloomInsert)->Arg(4)->Arg(8)->Arg(16);

void BM_SheBitmapInsert(benchmark::State& state) {
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = 1u << 16;
  cfg.group_cells = static_cast<std::size_t>(state.range(0));
  cfg.alpha = 0.2;
  SheBitmap bm(cfg);
  drive_inserts(state, bm);
}
BENCHMARK(BM_SheBitmapInsert)->Arg(16)->Arg(64)->Arg(256);

void BM_SheHllInsert(benchmark::State& state) {
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = 2048;
  cfg.group_cells = 1;
  cfg.alpha = 0.2;
  SheHyperLogLog hll(cfg);
  drive_inserts(state, hll);
}
BENCHMARK(BM_SheHllInsert);

void BM_SheCmInsert(benchmark::State& state) {
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = 1u << 18;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  SheCountMin cm(cfg, 8);
  drive_inserts(state, cm);
}
BENCHMARK(BM_SheCmInsert);

void BM_SheMinHashInsert(benchmark::State& state) {
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = static_cast<std::size_t>(state.range(0));
  cfg.group_cells = 1;
  cfg.alpha = 0.2;
  SheMinHash mh(cfg);
  drive_inserts(state, mh);
}
BENCHMARK(BM_SheMinHashInsert)->Arg(64)->Arg(256);

// ---- scalar-vs-batch pairs ------------------------------------------------
// One *InsertScalarLarge / *InsertBatch pair per estimator at sizes past
// the last-level cache, identical configs on both sides so the JSON writer
// can pair them by (estimator, arg) and report batch/scalar speedup.  The
// batch side feeds 512-key chunks through the pipelined insert_batch.

template <typename T>
void drive_batch_inserts(benchmark::State& state, T& sketch) {
  const auto& ks = keys();
  std::size_t i = 0;
  constexpr std::size_t kChunk = 512;
  for (auto _ : state) {
    sketch.insert_batch(std::span<const std::uint64_t>(ks.data() + i, kChunk));
    i = (i + kChunk) & (ks.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kChunk);
}

SheBloomFilter large_bloom(std::int64_t log2_cells) {
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = std::size_t{1} << static_cast<unsigned>(log2_cells);
  cfg.group_cells = 64;
  cfg.alpha = 3.0;
  return SheBloomFilter(cfg, 8);
}

void BM_SheBloomInsertScalarLarge(benchmark::State& state) {
  SheBloomFilter bf = large_bloom(state.range(0));
  drive_inserts(state, bf);
}
BENCHMARK(BM_SheBloomInsertScalarLarge)->Arg(20)->Arg(24)->Arg(26);

void BM_SheBloomInsertBatch(benchmark::State& state) {
  SheBloomFilter bf = large_bloom(state.range(0));
  drive_batch_inserts(state, bf);
}
BENCHMARK(BM_SheBloomInsertBatch)->Arg(20)->Arg(24)->Arg(26);

SheBitmap large_bitmap(std::int64_t log2_cells) {
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = std::size_t{1} << static_cast<unsigned>(log2_cells);
  cfg.group_cells = 64;
  cfg.alpha = 0.2;
  return SheBitmap(cfg);
}

void BM_SheBitmapInsertScalarLarge(benchmark::State& state) {
  SheBitmap bm = large_bitmap(state.range(0));
  drive_inserts(state, bm);
}
BENCHMARK(BM_SheBitmapInsertScalarLarge)->Arg(20)->Arg(24)->Arg(26);

void BM_SheBitmapInsertBatch(benchmark::State& state) {
  SheBitmap bm = large_bitmap(state.range(0));
  drive_batch_inserts(state, bm);
}
BENCHMARK(BM_SheBitmapInsertBatch)->Arg(20)->Arg(24)->Arg(26);

SheHyperLogLog large_hll(std::int64_t log2_registers) {
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = std::size_t{1} << static_cast<unsigned>(log2_registers);
  cfg.group_cells = 1;
  cfg.alpha = 0.2;
  return SheHyperLogLog(cfg);
}

void BM_SheHllInsertScalarLarge(benchmark::State& state) {
  SheHyperLogLog hll = large_hll(state.range(0));
  drive_inserts(state, hll);
}
BENCHMARK(BM_SheHllInsertScalarLarge)->Arg(11)->Arg(20);

void BM_SheHllInsertBatch(benchmark::State& state) {
  SheHyperLogLog hll = large_hll(state.range(0));
  drive_batch_inserts(state, hll);
}
BENCHMARK(BM_SheHllInsertBatch)->Arg(11)->Arg(20);

SheCountMin large_cm(std::int64_t log2_cells) {
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = std::size_t{1} << static_cast<unsigned>(log2_cells);
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  return SheCountMin(cfg, 8);
}

void BM_SheCmInsertScalarLarge(benchmark::State& state) {
  SheCountMin cm = large_cm(state.range(0));
  drive_inserts(state, cm);
}
BENCHMARK(BM_SheCmInsertScalarLarge)->Arg(18)->Arg(22)->Arg(24)->Arg(26);

void BM_SheCmInsertBatch(benchmark::State& state) {
  SheCountMin cm = large_cm(state.range(0));
  drive_batch_inserts(state, cm);
}
BENCHMARK(BM_SheCmInsertBatch)->Arg(18)->Arg(22)->Arg(24)->Arg(26);

SheMinHash large_minhash(std::int64_t m) {
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = static_cast<std::size_t>(m);
  cfg.group_cells = 1;
  cfg.alpha = 0.2;
  return SheMinHash(cfg);
}

// SHE-MH touches all m slots per insert, so the slot budget degrades the
// block to 1 key: the pair documents that batching does not regress it.
void BM_SheMinHashInsertScalarLarge(benchmark::State& state) {
  SheMinHash mh = large_minhash(state.range(0));
  drive_inserts(state, mh);
}
BENCHMARK(BM_SheMinHashInsertScalarLarge)->Arg(64)->Arg(256);

void BM_SheMinHashInsertBatch(benchmark::State& state) {
  SheMinHash mh = large_minhash(state.range(0));
  drive_batch_inserts(state, mh);
}
BENCHMARK(BM_SheMinHashInsertBatch)->Arg(64)->Arg(256);
// ---- end scalar-vs-batch pairs --------------------------------------------

// ---- simd-vs-scalar batch pairs -------------------------------------------
// The same insert_batch loops under ScopedForceScalar: the one batch path,
// with stage 1's kernels pinned to their scalar tails.  The *InsertBatch /
// *InsertBatchScalar gap therefore isolates the vectorized front-end
// (hashing + mark staging) from the batching/prefetch win the pair above
// already measures.  BENCH_micro.json joins them as simd_speedup.  (CI
// guards the pair above, batch_speedup, for SHE-BF and SHE-CM on AVX2
// runners.)

void BM_SheBloomInsertBatchScalar(benchmark::State& state) {
  const simd::ScopedForceScalar scalar_only;
  SheBloomFilter bf = large_bloom(state.range(0));
  drive_batch_inserts(state, bf);
}
BENCHMARK(BM_SheBloomInsertBatchScalar)->Arg(20)->Arg(24)->Arg(26);

void BM_SheBitmapInsertBatchScalar(benchmark::State& state) {
  const simd::ScopedForceScalar scalar_only;
  SheBitmap bm = large_bitmap(state.range(0));
  drive_batch_inserts(state, bm);
}
BENCHMARK(BM_SheBitmapInsertBatchScalar)->Arg(20)->Arg(24)->Arg(26);

void BM_SheHllInsertBatchScalar(benchmark::State& state) {
  const simd::ScopedForceScalar scalar_only;
  SheHyperLogLog hll = large_hll(state.range(0));
  drive_batch_inserts(state, hll);
}
BENCHMARK(BM_SheHllInsertBatchScalar)->Arg(11)->Arg(20);

void BM_SheCmInsertBatchScalar(benchmark::State& state) {
  const simd::ScopedForceScalar scalar_only;
  SheCountMin cm = large_cm(state.range(0));
  drive_batch_inserts(state, cm);
}
BENCHMARK(BM_SheCmInsertBatchScalar)->Arg(18)->Arg(22)->Arg(24)->Arg(26);

void BM_SheMinHashInsertBatchScalar(benchmark::State& state) {
  const simd::ScopedForceScalar scalar_only;
  SheMinHash mh = large_minhash(state.range(0));
  drive_batch_inserts(state, mh);
}
BENCHMARK(BM_SheMinHashInsertBatchScalar)->Arg(64)->Arg(256);

// The heavy-hitter path at one shard of the e2e bench spec (window=64K
// memory=1M shards=2): the arg is the per-shard window, the budget 512 KiB.
MonitorConfig shard_monitor(std::int64_t window) {
  MonitorConfig mc;
  mc.window = static_cast<std::uint64_t>(window);
  mc.memory_bytes = 512u << 10;
  return mc;
}

// That shard's frequency task, in the geometry StreamMonitor derives.
HeavyHitters shard_heavy_hitters(std::int64_t window) {
  return *StreamMonitor(shard_monitor(window)).heavy_hitters();
}

void BM_HeavyHittersInsertBatch(benchmark::State& state) {
  HeavyHitters hh = shard_heavy_hitters(state.range(0));
  drive_batch_inserts(state, hh);
}
BENCHMARK(BM_HeavyHittersInsertBatch)->Arg(32768);

void BM_HeavyHittersInsertBatchScalar(benchmark::State& state) {
  const simd::ScopedForceScalar scalar_only;
  HeavyHitters hh = shard_heavy_hitters(state.range(0));
  drive_batch_inserts(state, hh);
}
BENCHMARK(BM_HeavyHittersInsertBatchScalar)->Arg(32768);

void BM_StreamMonitorInsertBatch(benchmark::State& state) {
  StreamMonitor mon(shard_monitor(state.range(0)));
  drive_batch_inserts(state, mon);
}
BENCHMARK(BM_StreamMonitorInsertBatch)->Arg(32768);

void BM_StreamMonitorInsertBatchScalar(benchmark::State& state) {
  const simd::ScopedForceScalar scalar_only;
  StreamMonitor mon(shard_monitor(state.range(0)));
  drive_batch_inserts(state, mon);
}
BENCHMARK(BM_StreamMonitorInsertBatchScalar)->Arg(32768);
// ---- end simd-vs-scalar batch pairs ---------------------------------------

// ---- tracing overhead pair ------------------------------------------------
// Identical batched SHE-CM insert loops: the baseline has no trace macro at
// all, the TraceOff side runs SHE_TRACE_SPAN per chunk with tracing
// disabled — i.e. the macro's production steady state (one relaxed load and
// branch).  BENCH_micro.json reports the relative gap as trace_overhead and
// CI guards it under 2%.

void BM_InsertBatchTraceBaseline(benchmark::State& state) {
  SheCountMin cm = large_cm(22);
  drive_batch_inserts(state, cm);
}
BENCHMARK(BM_InsertBatchTraceBaseline);

void BM_InsertBatchTraceOff(benchmark::State& state) {
  obs::trace::set_enabled(false);
  SheCountMin cm = large_cm(22);
  const auto& ks = keys();
  std::size_t i = 0;
  constexpr std::size_t kChunk = 512;
  for (auto _ : state) {
    SHE_TRACE_SPAN("bench.insert_batch", "bench");
    cm.insert_batch(std::span<const std::uint64_t>(ks.data() + i, kChunk));
    i = (i + kChunk) & (ks.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kChunk);
}
BENCHMARK(BM_InsertBatchTraceOff);

// Tracing enabled: every chunk records one span into the thread ring
// (rdtsc ×2 + one version-stamped span-ring slot write).  Not part of the CI guard — the
// guard holds the *disabled* path to <2% — but TUNING quotes this number
// as the cost of switching collection on.
void BM_InsertBatchTraceOn(benchmark::State& state) {
  obs::trace::set_enabled(true);
  SheCountMin cm = large_cm(22);
  const auto& ks = keys();
  std::size_t i = 0;
  constexpr std::size_t kChunk = 512;
  for (auto _ : state) {
    SHE_TRACE_SPAN("bench.insert_batch", "bench");
    cm.insert_batch(std::span<const std::uint64_t>(ks.data() + i, kChunk));
    i = (i + kChunk) & (ks.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kChunk);
  obs::trace::set_enabled(false);
  obs::trace::reset();
}
BENCHMARK(BM_InsertBatchTraceOn);
// ---- end tracing overhead pair --------------------------------------------

void BM_FixedBloomInsert(benchmark::State& state) {
  fixed::BloomFilter bf(1u << 20, 8);
  drive_inserts(state, bf);
}
BENCHMARK(BM_FixedBloomInsert);

void BM_SwampInsert(benchmark::State& state) {
  baselines::Swamp sw(kN, 16);
  drive_inserts(state, sw);
}
BENCHMARK(BM_SwampInsert);

void BM_TobfInsert(benchmark::State& state) {
  baselines::TimeOutBloomFilter tobf(1u << 17, 8, kN);
  drive_inserts(state, tobf);
}
BENCHMARK(BM_TobfInsert);

void BM_TbfInsert(benchmark::State& state) {
  baselines::TimingBloomFilter tbf(1u << 17, 8, kN, 18);
  drive_inserts(state, tbf);
}
BENCHMARK(BM_TbfInsert);

void BM_TsvInsert(benchmark::State& state) {
  baselines::TimestampVector tsv(1u << 16, kN);
  drive_inserts(state, tsv);
}
BENCHMARK(BM_TsvInsert);

void BM_CvsInsert(benchmark::State& state) {
  baselines::CounterVectorSketch cvs(1u << 16, kN, 10, kSeed);
  drive_inserts(state, cvs);
}
BENCHMARK(BM_CvsInsert);

void BM_ShllInsert(benchmark::State& state) {
  baselines::SlidingHyperLogLog shll(2048, kN);
  drive_inserts(state, shll);
}
BENCHMARK(BM_ShllInsert);

void BM_EcmInsert(benchmark::State& state) {
  baselines::EcmSketch ecm(4096, 4, kN);
  drive_inserts(state, ecm);
}
BENCHMARK(BM_EcmInsert);

void BM_SheBloomQuery(benchmark::State& state) {
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = 1u << 20;
  cfg.group_cells = 64;
  cfg.alpha = 3.0;
  SheBloomFilter bf(cfg, 8);
  const auto& ks = keys();
  for (std::size_t i = 0; i < 4 * kN; ++i) bf.insert(ks[i]);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.contains(ks[i]));
    i = (i + 1) & (ks.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SheBloomQuery);

void BM_SheCmQuery(benchmark::State& state) {
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = 1u << 18;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  SheCountMin cm(cfg, 8);
  const auto& ks = keys();
  for (std::size_t i = 0; i < 4 * kN; ++i) cm.insert(ks[i]);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cm.frequency(ks[i]));
    i = (i + 1) & (ks.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SheCmQuery);

// The batched read paths on the same two sketches, 512 keys per call, and
// their forced-scalar pairs: the same block stage with the scalar kernel
// tails.
constexpr std::size_t kQueryChunk = 512;

void BM_SheBloomQueryBatch(benchmark::State& state) {
  const simd::ScopedForceScalar pin(state.range(0) != 0);
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = 1u << 20;
  cfg.group_cells = 64;
  cfg.alpha = 3.0;
  SheBloomFilter bf(cfg, 8);
  const auto& ks = keys();
  bf.insert_batch(std::span<const std::uint64_t>(ks.data(), 4 * kN));
  std::uint8_t out[kQueryChunk];
  std::size_t i = 0;
  for (auto _ : state) {
    bf.contains_batch(std::span<const std::uint64_t>(ks.data() + i, kQueryChunk),
                      out);
    benchmark::DoNotOptimize(out);
    i = (i + kQueryChunk) & (ks.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kQueryChunk);
}
BENCHMARK(BM_SheBloomQueryBatch)->ArgName("scalar")->Arg(0)->Arg(1);

void BM_SheCmQueryBatch(benchmark::State& state) {
  const simd::ScopedForceScalar pin(state.range(0) != 0);
  SheConfig cfg;
  cfg.window = kN;
  cfg.cells = 1u << 18;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  SheCountMin cm(cfg, 8);
  const auto& ks = keys();
  cm.insert_batch(std::span<const std::uint64_t>(ks.data(), 4 * kN));
  std::uint64_t out[kQueryChunk];
  std::size_t i = 0;
  for (auto _ : state) {
    cm.frequency_batch(
        std::span<const std::uint64_t>(ks.data() + i, kQueryChunk), out);
    benchmark::DoNotOptimize(out);
    i = (i + kQueryChunk) & (ks.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kQueryChunk);
}
BENCHMARK(BM_SheCmQueryBatch)->ArgName("scalar")->Arg(0)->Arg(1);

}  // namespace

/// ConsoleReporter that also collects per-run rows, so main() can emit
/// BENCH_micro.json next to the usual console report.  (A tee, not a
/// separate file reporter: the library insists on --benchmark_out for
/// those.)
class MicroJsonCollector : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;           ///< e.g. "BM_SheCmInsertBatch/22"
    std::int64_t iterations = 0;
    double items_per_sec = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.error_occurred || r.run_type != Run::RT_Iteration) continue;
      Row row;
      row.name = r.benchmark_name();
      row.iterations = static_cast<std::int64_t>(r.iterations);
      auto it = r.counters.find("items_per_second");
      if (it != r.counters.end()) row.items_per_sec = it->second;
      rows.push_back(std::move(row));
    }
  }

  std::vector<Row> rows;
};

/// Writes `"key":[...]`: one row per "BM_<Est>InsertBatch/<arg>" name that
/// has a "BM_<Est><other>/<arg>" partner, best-of across repetitions on
/// both sides (throughput noise is one-sided; see the trace pair below),
/// with the batch/partner speedup.
void write_pairs(std::ostream& os,
                 const std::vector<MicroJsonCollector::Row>& rows,
                 const char* key, const char* other, const char* other_field,
                 const char* batch_field) {
  os << ",\"" << key << "\":[";
  const std::string batch_tag = "InsertBatch/";
  bool first = true;
  std::vector<std::string> emitted;  // one pair per name across repetitions
  for (const auto& b : rows) {
    const std::size_t tag = b.name.find(batch_tag);
    if (tag == std::string::npos) continue;
    if (std::find(emitted.begin(), emitted.end(), b.name) != emitted.end())
      continue;
    emitted.push_back(b.name);
    std::string other_name = b.name;
    other_name.replace(tag, batch_tag.size() - 1, other);
    double batch = 0, partner = 0;
    for (const auto& r : rows) {
      if (r.name == b.name) batch = std::max(batch, r.items_per_sec);
      if (r.name == other_name) partner = std::max(partner, r.items_per_sec);
    }
    if (partner <= 0) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"estimator\":\"" << b.name.substr(3, tag - 3)
       << "\",\"arg\":" << b.name.substr(tag + batch_tag.size()) << ",\""
       << other_field << "\":" << partner << ",\"" << batch_field
       << "\":" << batch << ",\"speedup\":" << batch / partner << "}";
  }
  os << "]";
}

/// BENCH_micro.json: every run as a row, plus two pair tables joined on
/// (estimator, size arg): batch_speedup, "BM_<Est>InsertBatch/<arg>"
/// against the per-key "BM_<Est>InsertScalarLarge/<arg>", and
/// simd_speedup, the same batch insert against "BM_<Est>InsertBatchScalar/
/// <arg>" (ScopedForceScalar: the same batch path on the scalar kernels).
void write_micro_json(const std::vector<MicroJsonCollector::Row>& rows,
                      const std::string& path) {
  std::ofstream os(path);
  os << "{\"schema_version\":1,\"benchmark\":\"micro_ops\",\"runs\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) os << ",";
    os << "{\"name\":\"" << rows[i].name
       << "\",\"iterations\":" << rows[i].iterations
       << ",\"items_per_sec\":" << rows[i].items_per_sec << "}";
  }
  os << "]";
  write_pairs(os, rows, "batch_speedup", "InsertScalarLarge",
              "scalar_items_per_sec", "batch_items_per_sec");
  write_pairs(os, rows, "simd_speedup", "InsertBatchScalar",
              "forced_scalar_items_per_sec", "simd_items_per_sec");
  // Which backend the vector kernels dispatched to while these numbers were
  // taken — a speedup row is only meaningful alongside its ISA.
  os << ",\"simd\":{\"isa\":\"" << simd::active_isa_name()
     << "\",\"force_scalar\":" << (simd::force_scalar_env() ? 1 : 0) << "}";
  // Best-of across repetitions: throughput noise is one-sided (slowdowns
  // from scheduler/cache interference), so max-of-N estimates the true
  // rate on both sides and keeps the overhead comparison from reporting
  // jitter as macro cost.  Run with --benchmark_repetitions for stability.
  double base = 0, off = 0;
  for (const auto& r : rows) {
    if (r.name.rfind("BM_InsertBatchTraceBaseline", 0) == 0)
      base = std::max(base, r.items_per_sec);
    if (r.name.rfind("BM_InsertBatchTraceOff", 0) == 0)
      off = std::max(off, r.items_per_sec);
  }
  if (base > 0 && off > 0) {
    os << ",\"trace_overhead\":{\"baseline_items_per_sec\":" << base
       << ",\"trace_off_items_per_sec\":" << off
       << ",\"overhead_pct\":" << (base - off) / base * 100.0 << "}";
  }
  os << "}\n";
}

}  // namespace she::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  she::bench::MicroJsonCollector collect;
  benchmark::RunSpecifiedBenchmarks(&collect);
  benchmark::Shutdown();
  she::bench::write_micro_json(collect.rows, "BENCH_micro.json");
  return 0;
}
