// Concurrent ingest runtime tests.  This binary carries the ctest label
// `tsan`: build with -DSHE_SANITIZE=thread and run `ctest -L tsan` to
// check the whole surface under ThreadSanitizer (sizes are kept moderate
// so the instrumented run stays fast).
//
//   * SpscRing: FIFO order and wraparound; staging, publishing, peeking
//     and releasing in place at every wrap offset and size; a
//     cross-thread stress.
//   * Published views: a held view survives later publishes unchanged;
//     readers between two publishes share one object; each publish copies
//     the estimator once, view() never does, and a held view outlives its
//     pipeline.
//   * IngestPipeline: single-producer drains are bit-identical to
//     sequential routing; tiny rings lose nothing; queries under load stay
//     consistent; the supervisor keeps the rate gauge fresh.
//   * Commit lanes: a shed sub-batch replays exactly once; a deadline
//     never splits an admitted sub-batch; threads sharing one producer
//     index keep every sub-batch contiguous, WAL on and off.
//   * Park and wake: workers parked over and over between pushes and
//     syncs lose no key, close() racing a push returns, and an idle
//     worker is never counted wedged.
//   * ConcurrentMonitor: queries under load within the same error bounds
//     as the single-threaded estimators; a shard budget too small for the
//     heavy-hitter table is refused at construction.
#include "runtime/ingest_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/paged_array.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "runtime/doorbell.hpp"
#include "she/monitor.hpp"
#include "she/sharded.hpp"
#include "she/she.hpp"
#include "stream/oracle.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she::runtime {
namespace {

/// Deepest ring any shard reported (the per-shard she_pipeline_queue_hwm).
std::int64_t max_queue_hwm(const obs::Registry& reg) {
  std::int64_t hwm = 0;
  for (const obs::Registry::Entry& e : reg.entries())
    if (e.name == "she_pipeline_queue_hwm")
      hwm = std::max(hwm, e.gauge->value());
  return hwm;
}

// ------------------------------ SpscRing -----------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing(1).capacity(), 1u);
  EXPECT_EQ(SpscRing(2).capacity(), 2u);
  EXPECT_EQ(SpscRing(3).capacity(), 4u);
  EXPECT_EQ(SpscRing(1000).capacity(), 1024u);
  // Above the cap the round-up would overflow; it throws instead.
  EXPECT_THROW(SpscRing(SpscRing::kMaxCapacity + 1), std::length_error);
  EXPECT_THROW(SpscRing((std::size_t{1} << 63) | 1), std::length_error);
}

/// Fill the runs of a stage with `first`, `first` + 1, ...
void fill_runs(const SpscRing::Runs<std::uint64_t>& runs, std::uint64_t first) {
  for (std::uint64_t& slot : runs.first) slot = first++;
  for (std::uint64_t& slot : runs.second) slot = first++;
}

/// Stage, fill and publish `n` keys `first`, `first` + 1, ...; false when
/// fewer than `n` slots are free.
bool push(SpscRing& ring, std::size_t n, std::uint64_t first) {
  const SpscRing::Runs<std::uint64_t> runs = ring.stage(n);
  if (runs.size() != n) return false;
  fill_runs(runs, first);
  ring.publish(n);
  return true;
}

/// Peek up to `max` keys, copy them out in ring order and release them.
std::vector<std::uint64_t> pop(SpscRing& ring, std::size_t max) {
  const SpscRing::Runs<const std::uint64_t> runs = ring.peek(max);
  std::vector<std::uint64_t> out(runs.first.begin(), runs.first.end());
  out.insert(out.end(), runs.second.begin(), runs.second.end());
  ring.release(out.size());
  return out;
}

TEST(SpscRing, FifoWithWraparound) {
  SpscRing ring(4);
  for (std::uint64_t round = 0; round < 10; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i)
      ASSERT_TRUE(push(ring, 1, round * 4 + i));
    EXPECT_FALSE(push(ring, 1, 999));  // full
    for (std::uint64_t i = 0; i < 4; ++i)
      EXPECT_EQ(pop(ring, 1), std::vector<std::uint64_t>{round * 4 + i});
    EXPECT_TRUE(pop(ring, 1).empty());  // empty
  }
}

TEST(SpscRing, EveryWrapOffsetStageSizeAndPeekSize) {
  // From every start offset, every stage size and every peek size: the
  // stage covers exactly the free slots in ring order (a second run only
  // past the array's end), nothing is visible before publish, a peek
  // hands out the oldest published keys in order, split the same way, and
  // leaves them in the ring until release — so a stage made while they
  // are held never hands out one of their slots.
  constexpr std::size_t kCap = 8;
  for (std::size_t offset = 0; offset < kCap; ++offset) {
    for (std::size_t n = 1; n <= kCap; ++n) {
      for (std::size_t m = 1; m <= kCap; ++m) {
        SCOPED_TRACE(testing::Message()
                     << "offset " << offset << " stage " << n << " peek " << m);
        SpscRing ring(kCap);
        ASSERT_TRUE(push(ring, offset, 0));
        ASSERT_EQ(pop(ring, kCap).size(), offset);
        const SpscRing::Runs<std::uint64_t> runs = ring.stage(n);
        ASSERT_EQ(runs.size(), n);
        EXPECT_EQ(runs.first.size(), std::min(n, kCap - offset));
        fill_runs(runs, 100);
        EXPECT_EQ(ring.size_approx(), 0u);
        EXPECT_EQ(ring.peek(kCap).size(), 0u);
        ring.publish(n);
        EXPECT_EQ(ring.size_approx(), n);

        const SpscRing::Runs<const std::uint64_t> held = ring.peek(m);
        const std::size_t k = std::min(n, m);
        ASSERT_EQ(held.size(), k);
        EXPECT_EQ(held.first.size(), std::min(k, kCap - offset));
        EXPECT_EQ(held.first.data(), runs.first.data());
        std::uint64_t want = 100;
        for (const std::uint64_t key : held.first) EXPECT_EQ(key, want++);
        for (const std::uint64_t key : held.second) EXPECT_EQ(key, want++);
        EXPECT_EQ(ring.size_approx(), n);  // peeked, still queued

        // Every slot is queued or held: no stage fits until a release.
        EXPECT_EQ(ring.stage(kCap - n + 1).size(), 0u);
        const SpscRing::Runs<std::uint64_t> spare = ring.stage(kCap - n);
        ASSERT_EQ(spare.size(), kCap - n);
        for (const auto& run : {spare.first, spare.second})
          for (const std::uint64_t& slot : run)
            for (const auto& kept : {held.first, held.second})
              EXPECT_FALSE(&slot >= kept.data() &&
                           &slot < kept.data() + kept.size());
        fill_runs(spare, 900);  // must not touch the held keys
        want = 100;
        for (const std::uint64_t key : held.first) EXPECT_EQ(key, want++);
        for (const std::uint64_t key : held.second) EXPECT_EQ(key, want++);

        ring.release(k);
        EXPECT_EQ(ring.size_approx(), n - k);
        EXPECT_EQ(ring.stage(kCap - n + k).size(), kCap - n + k);
        const std::vector<std::uint64_t> rest = pop(ring, kCap);
        ASSERT_EQ(rest.size(), n - k);
        for (std::size_t i = 0; i < rest.size(); ++i)
          EXPECT_EQ(rest[i], 100 + k + i);
      }
    }
  }
}

TEST(SpscRing, StageRefusesMoreThanTheFreeSlots) {
  SpscRing ring(8);
  ASSERT_TRUE(push(ring, 3, 0));
  SpscRing::Runs<std::uint64_t> runs = ring.stage(6);
  EXPECT_TRUE(runs.first.empty());
  EXPECT_TRUE(runs.second.empty());
  EXPECT_EQ(ring.stage(5).first.size(), 5u);
  EXPECT_TRUE(ring.stage(9).first.empty());  // above capacity
  // A peeked key is still queued: its slot stays out of reach until the
  // consumer releases it.
  EXPECT_EQ(ring.peek(3).size(), 3u);
  EXPECT_TRUE(ring.stage(6).first.empty());
  ring.release(2);
  EXPECT_EQ(ring.stage(7).size(), 7u);
  EXPECT_TRUE(ring.stage(8).first.empty());
}

TEST(SpscRing, UnpublishedStageIsOverwrittenByTheNextStage) {
  SpscRing ring(8);
  ASSERT_TRUE(push(ring, 1, 1));
  fill_runs(ring.stage(4), 500);  // a refused append: never published
  const SpscRing::Runs<std::uint64_t> runs = ring.stage(3);
  ASSERT_EQ(runs.first.size(), 3u);
  fill_runs(runs, 2);
  ring.publish(3);
  ASSERT_TRUE(push(ring, 1, 5));
  const std::vector<std::uint64_t> out = pop(ring, 8);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(SpscRing, CrossThreadStressKeepsSequence) {
  // Random stage and peek sizes on a small ring: the consumer applies
  // each block where it lies, in order, while the producer stages into
  // the slots it released.
  constexpr std::uint64_t kItems = 200'000;
  constexpr std::size_t kCap = 64;
  SpscRing ring(kCap);
  std::thread producer([&] {
    Rng rng(7);
    std::uint64_t next = 0;
    while (next < kItems) {
      const std::size_t n = std::min<std::uint64_t>(1 + rng() % kCap,
                                                    kItems - next);
      const SpscRing::Runs<std::uint64_t> runs = ring.stage(n);
      if (runs.size() < n) {
        std::this_thread::yield();
        continue;
      }
      fill_runs(runs, next);
      ring.publish(n);
      next += n;
    }
  });
  Rng rng(11);
  std::uint64_t expected = 0;
  while (expected < kItems) {
    const SpscRing::Runs<const std::uint64_t> block =
        ring.peek(1 + rng() % kCap);
    for (const std::uint64_t key : block.first) ASSERT_EQ(key, expected++);
    for (const std::uint64_t key : block.second) ASSERT_EQ(key, expected++);
    ring.release(block.size());
    if (block.size() == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_EQ(ring.size_approx(), 0u);
}

// ---------------------------- IngestPipeline -------------------------------

SheConfig bf_cfg(std::uint64_t window) {
  SheConfig cfg;
  cfg.window = window;
  cfg.cells = 1 << 14;
  cfg.group_cells = 64;
  cfg.alpha = 3.0;
  return cfg;
}

IngestPipeline<SheBloomFilter>::Factory bf_factory(std::size_t shards,
                                                   std::uint64_t window) {
  return [shards, window](std::size_t s) {
    SheConfig cfg = bf_cfg(window / shards);
    cfg.seed = static_cast<std::uint32_t>(s);
    return SheBloomFilter(cfg, 8);
  };
}

TEST(IngestPipeline, ValidatesOptions) {
  PipelineOptions opt;
  opt.shards = 0;
  EXPECT_THROW(IngestPipeline<SheBloomFilter>(opt, bf_factory(1, 1024)),
               std::invalid_argument);
}

TEST(IngestPipeline, ShardCountIsCappedAtTheRouteByte) {
  PipelineOptions opt;
  opt.shards = PipelineOptions::kMaxShards;
  EXPECT_NO_THROW(opt.validate());
  EXPECT_EQ(opt.shards, 256u);
  opt.shards = 257;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  EXPECT_THROW(IngestPipeline<SheBloomFilter>(opt, bf_factory(257, 1 << 16)),
               std::invalid_argument);
}

TEST(IngestPipeline, ProducerIndexAtOrAboveProducersThrowsBeforeRouting) {
  PipelineOptions opt;
  opt.shards = 2;
  opt.producers = 2;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(2, 1 << 14));
  pipe.start();
  const std::vector<std::uint64_t> keys = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_EQ(pipe.push_bulk(1, keys), keys.size());
  ASSERT_TRUE(pipe.sync(false));
  const obs::Registry& reg = pipe.metrics_registry();
  const std::uint64_t produced = reg.sum("she_pipeline_produced_total");
  const std::uint64_t inserted = reg.sum("she_pipeline_inserted_total");
  EXPECT_THROW((void)pipe.push_bulk(2, keys), std::out_of_range);
  EXPECT_THROW((void)pipe.push(7, 9), std::out_of_range);
  ASSERT_TRUE(pipe.sync(false));
  EXPECT_EQ(reg.sum("she_pipeline_produced_total"), produced);
  EXPECT_EQ(reg.sum("she_pipeline_inserted_total"), inserted);
  pipe.close();
  EXPECT_EQ(reg.sum("she_pipeline_inserted_total"), keys.size());
}

TEST(IngestPipeline, SingleProducerDrainBitIdenticalToSequential) {
  // One producer, bounded queues: per-shard order equals arrival order, so
  // each shard's final state must serialize to exactly the bytes the
  // sequential Sharded<T> routing produces.
  constexpr std::uint64_t kWindow = 8192;
  constexpr std::size_t kShards = 4;
  auto trace = stream::distinct_trace(4 * kWindow, 5);

  Sharded<SheBloomFilter> seq(kShards, [&](std::size_t s) {
    SheConfig cfg = bf_cfg(kWindow / kShards);
    cfg.seed = static_cast<std::uint32_t>(s);
    return SheBloomFilter(cfg, 8);
  });
  for (auto k : trace) seq.insert(k);

  PipelineOptions opt;
  opt.shards = kShards;
  opt.producers = 1;
  opt.queue_capacity = 256;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(kShards, kWindow));
  pipe.start();
  EXPECT_EQ(pipe.push_bulk(0, trace), trace.size());
  pipe.close();

  for (std::size_t s = 0; s < kShards; ++s) {
    std::vector<char> expected;
    BinaryWriter w(expected);
    seq.shard(s).save(w);

    std::vector<char> got;
    BinaryWriter gw(got);
    pipe.snapshot(s).save(gw);
    ASSERT_EQ(got, expected) << "shard " << s;
  }

  const obs::Registry& reg = pipe.metrics_registry();
  EXPECT_EQ(reg.sum("she_pipeline_inserted_total"), trace.size());
  EXPECT_EQ(reg.sum("she_pipeline_produced_total"), trace.size());
  EXPECT_EQ(reg.sum("she_pipeline_dropped_total"), 0u);
  EXPECT_GT(reg.sum("she_pipeline_publishes_total"), 0u);
}

TEST(IngestPipeline, SyncBarrierSnapshotsCoverEveryAcceptedPush) {
  // Regression: the worker's "rings are empty" observation used to predate
  // its acquire-load of the sync request, so a stale ring view could ack
  // the flush barrier with items still queued — sync() returned true while
  // the published snapshots were short a late chunk of the stream.  The
  // race window is a few microseconds, hence many short rounds.
  constexpr std::uint64_t kWindow = 8192;
  constexpr std::size_t kShards = 2;
  for (int round = 0; round < 40; ++round) {
    std::vector<std::uint64_t> trace(20000);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      trace[i] = (i * 7 + static_cast<std::uint64_t>(round)) % 4000;
    }
    PipelineOptions opt;
    opt.shards = kShards;
    opt.producers = 2;
    IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(kShards, kWindow));
    pipe.start();
    ASSERT_EQ(pipe.push_bulk(0, trace), trace.size());
    ASSERT_TRUE(pipe.sync(/*with_checkpoint=*/false));
    std::uint64_t seen = 0;
    for (std::size_t s = 0; s < kShards; ++s) seen += pipe.snapshot(s).time();
    ASSERT_EQ(seen, trace.size()) << "round " << round;
    pipe.close();
  }
}

TEST(IngestPipeline, BatchedDrainMatchesSequentialUnderConcurrentReads) {
  // The worker drain now hands whole blocks to StreamMonitor::insert_batch
  // (which fans out to the estimators' pipelined insert_batch).  With one
  // producer the per-shard arrival order is deterministic, so the drained
  // state must serialize byte-identically to scalar routing — while a
  // reader thread queries the shared published views mid-ingest (the
  // surface `ctest -L tsan` sweeps) and the tiny rings force
  // backpressure so the stall counters are exercised.
  constexpr std::uint64_t kWindow = 1 << 14;
  constexpr std::size_t kShards = 2;
  auto trace = stream::distinct_trace(1 << 16, 11);

  auto factory = [](std::size_t s) {
    MonitorConfig m;
    m.window = kWindow / kShards;
    m.memory_bytes = 1 << 17;
    m.heavy_hitter_slots = 8;
    m.seed = static_cast<std::uint32_t>(s);
    return StreamMonitor(m);
  };

  PipelineOptions opt;
  opt.shards = kShards;
  opt.producers = 1;
  opt.queue_capacity = 64;  // keep the producer ahead of the drain
  IngestPipeline<StreamMonitor> pipe(opt, factory);
  pipe.start();

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t last[kShards] = {};
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t s = 0; s < kShards; ++s) {
        const auto snap = pipe.view(s);
        ASSERT_GE(snap->time(), last[s]);  // clock never runs backwards
        last[s] = snap->time();
        (void)snap->seen(trace[0]);
        (void)snap->frequency(trace[0]);
      }
    }
  });

  std::vector<StreamMonitor> seq;
  for (std::size_t s = 0; s < kShards; ++s) seq.push_back(factory(s));
  for (auto k : trace) seq[pipe.shard_of(k)].insert(k);

  EXPECT_EQ(pipe.push_bulk(0, trace), trace.size());
  pipe.close();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  for (std::size_t s = 0; s < kShards; ++s) {
    std::vector<char> expected, got;
    BinaryWriter ew(expected), gw(got);
    seq[s].save(ew);
    pipe.snapshot(s).save(gw);
    ASSERT_EQ(got, expected) << "shard " << s;
  }

  const obs::Registry& reg = pipe.metrics_registry();
  EXPECT_EQ(reg.sum("she_pipeline_inserted_total"), trace.size());
  EXPECT_EQ(reg.sum("she_pipeline_dropped_total"), 0u);
  // stall_ns only accumulates inside a counted stall episode.
  if (reg.sum("she_pipeline_stall_ns_total") > 0) {
    EXPECT_GT(reg.sum("she_pipeline_stall_events_total"), 0u);
  }
}

TEST(IngestPipeline, BlockPolicyLosesNothingThroughTinyQueues) {
  constexpr std::uint64_t kItems = 100'000;
  PipelineOptions opt;
  opt.shards = 2;
  opt.producers = 2;
  opt.queue_capacity = 16;  // force constant backpressure
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(2, 1 << 16));
  pipe.start();
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kItems / 2; ++i)
        ASSERT_TRUE(pipe.push(p, i * 2 + p));
    });
  }
  for (auto& t : producers) t.join();
  pipe.close();
  const obs::Registry& reg = pipe.metrics_registry();
  EXPECT_EQ(reg.sum("she_pipeline_produced_total"), kItems);
  EXPECT_EQ(reg.sum("she_pipeline_inserted_total"), kItems);
  EXPECT_EQ(reg.sum("she_pipeline_dropped_total"), 0u);
  EXPECT_GE(max_queue_hwm(reg), 1);
  EXPECT_LE(max_queue_hwm(reg), 16);
  // Pushing is far cheaper than draining into SHE-BF, so the 16-slot rings
  // must fill: every full-ring wait increments stall_events exactly once.
  EXPECT_GT(reg.sum("she_pipeline_stall_events_total"), 0u);
}

TEST(IngestPipeline, QueriesUnderLoadNeverSeeTornEstimator) {
  // A reader continuously loads the published views while two producers
  // ingest.  A view mixing two publishes would break SHE-BF's invariants;
  // we assert clock monotonicity and the no-false-negative guarantee for a
  // key that is always deep in every shard window.
  constexpr std::uint64_t kWindow = 1 << 14;
  constexpr std::size_t kShards = 2;
  constexpr std::uint64_t kHot = 0xB00F;
  constexpr std::uint64_t kItems = 120'000;

  PipelineOptions opt;
  opt.shards = kShards;
  opt.producers = 2;
  opt.queue_capacity = 1024;
  opt.publish_interval = 512;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(kShards, kWindow));
  pipe.start();

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last_time[kShards] = {0, 0};
    const std::size_t hot_shard = pipe.shard_of(kHot);
    while (!done.load(std::memory_order_acquire)) {
      for (std::size_t s = 0; s < kShards; ++s) {
        const auto snap = pipe.view(s);
        ASSERT_GE(snap->time(), last_time[s]) << "clock went backwards";
        last_time[s] = snap->time();
        // kHot arrives every ~8 global items, so once the hot shard has
        // seen a full window the one-sided guarantee applies.
        if (s == hot_shard && snap->time() > kWindow / kShards) {
          ASSERT_TRUE(snap->contains(kHot));
        }
      }
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(1234 + p);
      for (std::uint64_t i = 0; i < kItems / 2; ++i) {
        pipe.push(p, i % 4 == 0 ? kHot : (rng() | 1ull << 33));
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  pipe.close();
  EXPECT_EQ(pipe.metrics_registry().sum("she_pipeline_inserted_total"), kItems);
}

TEST(IngestPipeline, SupervisorFeedsRateGaugeWithoutStats) {
  // Nothing but the supervisor feeds the windowed rate: a busy pipeline's
  // registry must not read she_pipeline_rate_items_per_sec 0.
  PipelineOptions opt;
  opt.shards = 2;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(2, 1 << 14));
  pipe.start();
  std::vector<std::uint64_t> batch(4096);
  std::uint64_t next = 0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(600);
  while (std::chrono::steady_clock::now() < until) {
    for (auto& k : batch) k = next++;
    ASSERT_EQ(pipe.push_bulk(0, batch), batch.size());
  }
  std::int64_t rate = -1;
  for (const obs::Registry::Entry& e : pipe.metrics_registry().entries())
    if (e.name == "she_pipeline_rate_items_per_sec") rate = e.gauge->value();
  EXPECT_GT(rate, 0);
  pipe.close();
}

// ----------------------------- Commit lanes --------------------------------

/// An "estimator" that records every key in drain order, so a test can
/// check exactly what each shard's lane admitted and in which order.
struct RecordingEstimator {
  std::vector<std::uint64_t> keys;
  void insert(std::uint64_t k) { keys.push_back(k); }
  void insert_batch(std::span<const std::uint64_t> ks) {
    keys.insert(keys.end(), ks.begin(), ks.end());
  }
  void save(BinaryWriter& w) const { w.u64_vector(keys); }
  static RecordingEstimator load(BinaryReader& r) {
    RecordingEstimator e;
    e.keys = r.u64_vector();
    return e;
  }
};

const IngestPipeline<RecordingEstimator>::Factory kRecorder =
    [](std::size_t) { return RecordingEstimator{}; };

std::int64_t steady_ns_from_now(std::chrono::milliseconds d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             (std::chrono::steady_clock::now() + d).time_since_epoch())
      .count();
}

TEST(CommitLane, ShedSubBatchReplaysExactlyOnce) {
  // Regression: without the WAL, push_bulk used to record a sub-batch's
  // (client_id, client_seq) before enqueueing it, so a sub-batch shed by
  // a request deadline was still recorded and its replay was acked as a
  // duplicate with its keys never applied.
  PipelineOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 64;
  IngestPipeline<RecordingEstimator> pipe(opt, kRecorder);

  std::vector<std::uint64_t> fill(64), extra(10);
  std::iota(fill.begin(), fill.end(), 0);
  std::iota(extra.begin(), extra.end(), 1000);
  // Worker not started: the first batch fills the ring exactly ...
  ASSERT_EQ(pipe.push_bulk(0, fill, 7, 1), fill.size());
  // ... so the next one is shed with nothing enqueued or recorded.
  EXPECT_EQ(pipe.push_bulk(0, extra, 7, 2,
                           steady_ns_from_now(std::chrono::milliseconds(20))),
            0u);
  const obs::Registry& reg = pipe.metrics_registry();
  EXPECT_EQ(reg.sum("she_pipeline_push_timeouts_total"), 1u);

  pipe.start();
  ASSERT_TRUE(pipe.sync(false));  // the worker drained the full ring
  EXPECT_EQ(pipe.push_bulk(0, extra, 7, 2), extra.size());  // the replay
  EXPECT_EQ(pipe.push_bulk(0, extra, 7, 2), extra.size());  // a duplicate
  pipe.close();

  EXPECT_EQ(reg.sum("she_pipeline_inserted_total"), fill.size() + extra.size());
  std::vector<std::uint64_t> want = fill;
  want.insert(want.end(), extra.begin(), extra.end());
  EXPECT_EQ(pipe.snapshot(0).keys, want);
}

TEST(CommitLane, DeadlineNeverSplitsAnAdmittedSubBatch) {
  // A sub-batch larger than the ring used to be cut mid-way by the request
  // deadline: the enqueued prefix was acked as a partial count with the
  // sequence unrecorded, so the client's replay re-applied that prefix
  // (64 accepted, then 1064 applied).  Now the deadline bounds admission
  // only; once ring space for the first min(n, capacity) keys is there,
  // the whole sub-batch goes in.
  PipelineOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 64;
  IngestPipeline<RecordingEstimator> pipe(opt, kRecorder);
  std::vector<std::uint64_t> keys(1000);
  std::iota(keys.begin(), keys.end(), 0);

  // The worker is not running yet, so the tail waits for it; start it
  // well past the 20 ms deadline.
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    pipe.start();
  });
  EXPECT_EQ(pipe.push_bulk(0, keys, 9, 1,
                           steady_ns_from_now(std::chrono::milliseconds(20))),
            keys.size());
  starter.join();
  ASSERT_TRUE(pipe.sync(false));
  // The replay is a duplicate: acked in full, nothing applied twice.
  EXPECT_EQ(pipe.push_bulk(0, keys, 9, 1), keys.size());
  pipe.close();

  const obs::Registry& reg = pipe.metrics_registry();
  EXPECT_EQ(reg.sum("she_pipeline_push_timeouts_total"), 0u);
  EXPECT_EQ(reg.sum("she_pipeline_inserted_total"), keys.size());
  EXPECT_EQ(pipe.snapshot(0).keys, keys);
}

/// Several threads push seq-tagged bulk batches through the *same*
/// producer index.  Totals must be exact, and every per-shard sub-batch
/// must reach its shard contiguously and in arrival order — including
/// sub-batches larger than the ring, whose tails follow the live drain.
void same_producer_lanes_keep_sub_batches_contiguous(WalMode wal) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBatches = 120;
  constexpr std::size_t kQueue = 128;
  PipelineOptions opt;
  opt.shards = 2;
  opt.producers = 1;
  opt.queue_capacity = kQueue;
  opt.publish_interval = 1024;
  std::string dir;
  if (wal != WalMode::kOff) {
    dir = ::testing::TempDir() + "/lane_contiguous";
    std::filesystem::remove_all(dir);
    opt.checkpoint_dir = dir;
    opt.wal_mode = wal;
  }
  IngestPipeline<RecordingEstimator> pipe(opt, kRecorder);
  pipe.start();

  // Key = thread << 40 | batch << 20 | index: the sub-batch id and the
  // arrival position are both recoverable from the drained key.
  const auto batch_size = [](std::size_t b) {
    return b % 10 == 9 ? 3 * kQueue : 1 + (b * 37) % 200;  // some oversize
  };
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::uint64_t> keys;
      for (std::size_t b = 0; b < kBatches; ++b) {
        keys.resize(batch_size(b));
        for (std::size_t i = 0; i < keys.size(); ++i)
          keys[i] = (std::uint64_t{t} << 40) | (std::uint64_t{b} << 20) | i;
        accepted.fetch_add(pipe.push_bulk(0, keys, t + 1, b + 1),
                           std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  pipe.close();

  std::size_t total = 0;
  for (std::size_t b = 0; b < kBatches; ++b) total += kThreads * batch_size(b);
  const obs::Registry& reg = pipe.metrics_registry();
  EXPECT_EQ(accepted.load(), total);
  EXPECT_EQ(reg.sum("she_pipeline_produced_total"), total);
  EXPECT_EQ(reg.sum("she_pipeline_inserted_total"), total);
  EXPECT_EQ(reg.sum("she_pipeline_dropped_total"), 0u);
  EXPECT_LE(max_queue_hwm(reg), static_cast<std::int64_t>(kQueue));

  std::size_t drained = 0;
  for (std::size_t s = 0; s < opt.shards; ++s) {
    const std::vector<std::uint64_t> keys = pipe.snapshot(s).keys;
    drained += keys.size();
    std::set<std::uint64_t> finished;  // sub-batch ids whose run ended
    for (std::size_t j = 0; j < keys.size(); ++j) {
      ASSERT_EQ(pipe.shard_of(keys[j]), s);
      const std::uint64_t id = keys[j] >> 20;
      if (j > 0 && (keys[j - 1] >> 20) == id) {
        ASSERT_LT(keys[j - 1], keys[j]) << "order broken in shard " << s;
        continue;
      }
      if (j > 0) finished.insert(keys[j - 1] >> 20);
      ASSERT_EQ(finished.count(id), 0u)
          << "sub-batch " << id << " split in shard " << s;
    }
  }
  EXPECT_EQ(drained, total);
  if (!dir.empty()) std::filesystem::remove_all(dir);
}

TEST(CommitLane, SameProducerIndexFromManyThreadsWalOff) {
  same_producer_lanes_keep_sub_batches_contiguous(WalMode::kOff);
}

TEST(CommitLane, SameProducerIndexFromManyThreadsWalOn) {
  same_producer_lanes_keep_sub_batches_contiguous(WalMode::kAsync);
}

/// `n` keys drawn from `rng`, keeping only those `wanted` routes to a
/// shard `pipe` accepts: frames that starve some shards and flood others.
template <typename Wanted>
std::vector<std::uint64_t> keys_routed(
    const IngestPipeline<RecordingEstimator>& pipe, Rng& rng, std::size_t n,
    Wanted wanted) {
  std::vector<std::uint64_t> keys;
  while (keys.size() < n) {
    const std::uint64_t k = rng() % 50'000;  // repeats, as a real stream has
    if (wanted(pipe.shard_of(k))) keys.push_back(k);
  }
  return keys;
}

TEST(CommitLane, BulkRouteKeepsEachShardsOrderOfPerKeyPushes) {
  // push_bulk routes a frame once into one shard byte per key, and each
  // lane gathers its own keys by scanning those bytes.  Every shard must
  // apply exactly the keys, in exactly the order, that pushing the same
  // keys one at a time gives it: also for frames in which some shard
  // gets no key, or one shard gets every key, and for shard index 255.
  for (const std::size_t shards : {1u, 2u, 3u, 256u}) {
    SCOPED_TRACE(shards);
    PipelineOptions opt;
    opt.shards = shards;
    opt.queue_capacity = 256;  // frames larger than a ring follow the drain
    IngestPipeline<RecordingEstimator> bulk(opt, kRecorder);
    IngestPipeline<RecordingEstimator> single(opt, kRecorder);
    bulk.start();
    single.start();

    const std::size_t last = shards - 1;
    Rng rng(shards);
    std::vector<std::vector<std::uint64_t>> frames;
    frames.push_back(keys_routed(bulk, rng, 3000,
                                 [&](std::size_t s) { return s == last; }));
    frames.push_back(keys_routed(bulk, rng, 2500, [&](std::size_t s) {
      return shards == 1 || s != 0;  // shard 0 gets nothing
    }));
    frames.push_back(keys_routed(bulk, rng, 8192,
                                 [](std::size_t) { return true; }));
    frames.push_back({rng() % 50'000});
    for (const auto& f : frames) {
      ASSERT_EQ(bulk.push_bulk(0, f), f.size());
      for (const std::uint64_t k : f) ASSERT_TRUE(single.push(0, k));
    }
    bulk.close();
    single.close();

    std::size_t total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::vector<std::uint64_t> got = bulk.snapshot(s).keys;
      EXPECT_EQ(got, single.snapshot(s).keys) << "shard " << s;
      total += got.size();
    }
    std::size_t sent = 0;
    for (const auto& f : frames) sent += f.size();
    EXPECT_EQ(total, sent);
    EXPECT_GE(bulk.snapshot(last).keys.size(), frames[0].size());
  }
}

// ----------------------------- Park and wake -------------------------------

/// An "estimator" that folds every key, in drain order, into a count and an
/// order-sensitive digest: as exact a record as RecordingEstimator for a
/// known stream, and cheap to copy on every publish however long it runs.
struct DigestEstimator {
  std::uint64_t count = 0;
  std::uint64_t digest = 0;
  void insert(std::uint64_t k) {
    digest = digest * 0x9e3779b97f4a7c15ull + k + 1;
    ++count;
  }
  void save(BinaryWriter& w) const {
    w.u64(count);
    w.u64(digest);
  }
  static DigestEstimator load(BinaryReader& r) {
    DigestEstimator e;
    e.count = r.u64();
    e.digest = r.u64();
    return e;
  }
};

const IngestPipeline<DigestEstimator>::Factory kDigest =
    [](std::size_t) { return DigestEstimator{}; };

DigestEstimator digest_of(std::span<const std::uint64_t> keys) {
  DigestEstimator e;
  for (const std::uint64_t k : keys) e.insert(k);
  return e;
}

// One seeded script on a 2-shard pipeline: pushes (some sub-batches
// larger than the ring), syncs, and `pauses` pauses longer than the
// runtime's spin budget, each of which parks both workers; then a close()
// that races one more push.  Every accepted key must be applied, in order,
// to its shard, and close() must return.
void park_and_wake_script(std::uint64_t seed, int pauses) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  constexpr std::size_t kShards = 2;
  PipelineOptions opt;
  opt.shards = kShards;
  opt.queue_capacity = 64;
  IngestPipeline<DigestEstimator> pipe(opt, kDigest);
  pipe.start();
  std::vector<std::vector<std::uint64_t>> expect(kShards);
  Rng rng(seed);
  std::uint64_t next = 0;
  std::vector<std::uint64_t> batch;
  for (int step = 0; step < pauses; ++step) {
    batch.resize(1 + rng.below(160));
    for (std::uint64_t& k : batch) k = next++;
    ASSERT_EQ(pipe.push_bulk(0, batch), batch.size()) << "step " << step;
    for (const std::uint64_t k : batch) expect[pipe.shard_of(k)].push_back(k);
    if (rng.below(4) == 0) {
      ASSERT_TRUE(pipe.sync(false)) << "step " << step;
    }
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(Doorbell::kSpinNs + 100'000) +
        std::chrono::microseconds(rng.below(200)));
  }
  // Each shard's share of the racing push fits its ring, so a lane
  // accepts all of it or none.
  std::vector<std::uint64_t> last(64);
  for (std::uint64_t& k : last) k = next++;
  std::size_t accepted_last = 0;
  std::thread racer([&] { accepted_last = pipe.push_bulk(0, last); });
  pipe.close();
  racer.join();

  const obs::Registry& reg = pipe.metrics_registry();
  EXPECT_EQ(reg.sum("she_pipeline_inserted_total"),
            reg.sum("she_pipeline_produced_total"));
  EXPECT_EQ(reg.sum("she_pipeline_produced_total"),
            next - last.size() + accepted_last);
  std::size_t raced = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const DigestEstimator got = *pipe.view(s);
    ASSERT_GE(got.count, expect[s].size()) << "shard " << s;
    // Past the script's keys, the shard holds its share of the racing
    // push or nothing of it.
    const std::size_t extra = got.count - expect[s].size();
    for (const std::uint64_t k : last)
      if (extra > 0 && pipe.shard_of(k) == s) expect[s].push_back(k);
    const DigestEstimator want = digest_of(expect[s]);
    EXPECT_EQ(got.count, want.count) << "shard " << s;
    EXPECT_EQ(got.digest, want.digest) << "shard " << s;
    raced += extra;
  }
  EXPECT_EQ(raced, accepted_last);
  // Each worker waited through every pause.
  for (const obs::Registry::Entry& e : reg.entries()) {
    if (e.name == "she_pipeline_worker_idle_ns_total") {
      EXPECT_GE(e.counter->value(),
                static_cast<std::uint64_t>(pauses * Doorbell::kSpinNs));
    }
  }
}

// Idle workers, producers waiting for ring space and sync() callers park
// until something wakes them.  A lost wake-up strands keys in a ring, and
// in a count-based window every applied key moves the window.  Four
// pipelines run the script side by side, 1250 pauses each: 10 K parks in
// a quarter of the time one pipeline would take.
TEST(Runtime, ParkAndWakeRacesLoseNothing) {
  std::vector<std::thread> scripts;
  for (std::uint64_t seed = 49; seed < 53; ++seed)
    scripts.emplace_back(park_and_wake_script, seed, 1250);
  for (std::thread& t : scripts) t.join();
}

// A worker with nothing to do still beats its heartbeat: an idle pipeline
// held for two wedge timeouts counts no wedged worker.
TEST(Runtime, IdleWorkersAreNeverCountedWedged) {
  PipelineOptions opt;
  opt.shards = 2;
  IngestPipeline<DigestEstimator> pipe(opt, kDigest);
  pipe.start();
  const std::vector<std::uint64_t> keys = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_EQ(pipe.push_bulk(0, keys), keys.size());
  ASSERT_TRUE(pipe.sync(false));
  std::this_thread::sleep_for(
      std::chrono::milliseconds(2 * PipelineCore::kHeartbeatTimeoutMs));
  EXPECT_EQ(pipe.metrics_registry().sum("she_pipeline_worker_wedged_total"),
            0u);
  pipe.close();
}

// ---------------------------- Published views ------------------------------

std::string bytes_of(const SheBloomFilter& bf) {
  std::vector<char> image;
  serialize_to(image, bf);
  return std::string(image.begin(), image.end());
}

TEST(PipelineView, HeldViewSurvivesManyPublishes) {
  // A reader holding a view keeps reading exactly the state it loaded,
  // however many publishes replace the shard's view meanwhile.
  const auto trace = stream::distinct_trace(4096, 3);
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(1, 2048));
  pipe.start();
  const std::span<const std::uint64_t> keys(trace);
  ASSERT_EQ(pipe.push_bulk(0, keys.first(1000)), 1000u);
  ASSERT_TRUE(pipe.sync(/*with_checkpoint=*/false));

  const std::shared_ptr<const SheBloomFilter> held = pipe.view(0);
  const std::string before = bytes_of(*held);
  ASSERT_EQ(held->time(), 1000u);
  const obs::Registry& reg = pipe.metrics_registry();
  const std::uint64_t publishes_before =
      reg.sum("she_pipeline_publishes_total");
  // Every sync() publishes, so small pushes + syncs force >= 100 publishes.
  for (std::size_t i = 1000; i < keys.size(); i += 16) {
    const auto chunk = keys.subspan(i, std::min<std::size_t>(16, keys.size() - i));
    ASSERT_EQ(pipe.push_bulk(0, chunk), chunk.size());
    ASSERT_TRUE(pipe.sync(/*with_checkpoint=*/false));
  }
  EXPECT_GE(reg.sum("she_pipeline_publishes_total") - publishes_before, 100u);

  EXPECT_EQ(held->time(), 1000u);
  EXPECT_EQ(bytes_of(*held), before);
  const auto latest = pipe.view(0);
  EXPECT_NE(latest.get(), held.get());
  EXPECT_EQ(latest->time(), trace.size());
  pipe.close();
}

TEST(PipelineView, ReadersBetweenPublishesShareOneObject) {
  // Between two publishes every reader thread loads the same object: one
  // decoded copy per process, not one per reader.  The readers also query
  // it concurrently through SHE-CM, whose all-young counter is the only
  // field a const query writes — it must count every fallback without a
  // data race (k = 1, alpha = 1 makes about half the probes young).
  SheConfig cfg;
  cfg.window = 4096;
  cfg.cells = 1 << 12;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  IngestPipeline<SheCountMin> pipe(
      opt, [cfg](std::size_t) { return SheCountMin(cfg, 1); });
  pipe.start();
  const auto trace = stream::distinct_trace(3 * cfg.window, 7);
  ASSERT_EQ(pipe.push_bulk(0, trace), trace.size());
  ASSERT_TRUE(pipe.sync(/*with_checkpoint=*/false));  // idle: no more publishes
  const std::span<const std::uint64_t> keys =
      std::span<const std::uint64_t>(trace).last(2000);

  // Fallbacks in one pass over `keys`, counted on a private copy.
  const SheCountMin copy = pipe.snapshot(0);
  const std::uint64_t copy_base = copy.all_young_queries();
  for (std::uint64_t k : keys) (void)copy.frequency(k);
  const std::uint64_t per_pass = copy.all_young_queries() - copy_base;
  EXPECT_GT(per_pass, 0u);

  const std::uint64_t base = pipe.view(0)->all_young_queries();
  constexpr std::size_t kReaders = 4;
  std::vector<std::shared_ptr<const SheCountMin>> got(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      got[r] = pipe.view(0);
      for (std::uint64_t k : keys) (void)got[r]->frequency(k);
    });
  }
  for (auto& t : readers) t.join();
  const auto view = pipe.view(0);
  for (const auto& g : got) EXPECT_EQ(g.get(), view.get());
  EXPECT_EQ(view->all_young_queries(), base + kReaders * per_pass);
  pipe.close();
}

/// Records its keys and counts, across every instance, its copies.
struct CopyCounter {
  static inline std::atomic<std::uint64_t> copies{0};
  std::vector<std::uint64_t> keys;
  CopyCounter() = default;
  CopyCounter(const CopyCounter& o) : keys(o.keys) { copies.fetch_add(1); }
  CopyCounter(CopyCounter&&) = default;
  void insert(std::uint64_t k) { keys.push_back(k); }
  void save(BinaryWriter& w) const { w.u64_vector(keys); }
  static CopyCounter load(BinaryReader& r) {
    CopyCounter e;
    e.keys = r.u64_vector();
    return e;
  }
};

TEST(PipelineView, TypedViewCopiesOncePerPublishAndOutlivesThePipeline) {
  // Each publish copies the estimator exactly once (construction publishes
  // one initial copy per shard); view() hands out that copy, typed,
  // without another; and a held view stays readable after the pipeline is
  // gone, for IngestPipeline<E> and for ConcurrentMonitor alike.
  const auto trace = stream::distinct_trace(3000, 5);
  const std::span<const std::uint64_t> keys(trace);
  PipelineOptions opt;
  opt.shards = 2;
  opt.publish_interval = 64;
  std::shared_ptr<const CopyCounter> held;
  std::vector<std::uint64_t> want;
  {
    CopyCounter::copies = 0;
    IngestPipeline<CopyCounter> pipe(
        opt, [](std::size_t) { return CopyCounter{}; });
    EXPECT_EQ(CopyCounter::copies.load(), opt.shards);
    pipe.start();
    for (std::size_t i = 0; i < keys.size(); i += 250) {
      ASSERT_EQ(pipe.push_bulk(0, keys.subspan(i, 250)), 250u);
      ASSERT_TRUE(pipe.sync(/*with_checkpoint=*/false));
    }
    pipe.close();
    const std::uint64_t publishes =
        pipe.metrics_registry().sum("she_pipeline_publishes_total");
    EXPECT_GE(publishes, keys.size() / 250);
    EXPECT_EQ(CopyCounter::copies.load(), opt.shards + publishes);
    held = pipe.view(0);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(pipe.view(0).get(), held.get());
    EXPECT_EQ(CopyCounter::copies.load(), opt.shards + publishes);
    for (const std::uint64_t k : keys)
      if (pipe.shard_of(k) == 0) want.push_back(k);
  }
  EXPECT_EQ(held->keys, want);

  MonitorConfig mcfg;
  mcfg.window = 1 << 14;
  mcfg.memory_bytes = 64 << 10;
  std::shared_ptr<const StreamMonitor> shard0;
  {
    ConcurrentMonitor mon(mcfg, opt);
    mon.start();
    ASSERT_EQ(mon.push_bulk(0, keys), keys.size());
    ASSERT_TRUE(mon.flush());
    shard0 = mon.view(0);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(mon.view(0).get(), shard0.get());
    mon.close();
  }
  EXPECT_EQ(shard0->time(), want.size());
  for (const std::uint64_t k : want) ASSERT_TRUE(shard0->seen(k)) << k;
}

// --------------------------- ConcurrentMonitor -----------------------------

TEST(ConcurrentMonitor, QueriesUnderLoadStayWithinSingleThreadBounds) {
  // Mirrors test_sharded.cpp's accuracy bounds, but with ingestion and
  // queries actually concurrent: cardinality RE vs the exact oracle stays
  // under 0.15, hot keys dominate the merged top-k, and recent keys are
  // always seen (one-sided membership).
  constexpr std::uint64_t kWindow = 1 << 14;
  MonitorConfig mcfg;
  mcfg.window = kWindow;
  mcfg.memory_bytes = 1 << 20;
  mcfg.heavy_hitter_slots = 32;

  runtime::PipelineOptions pcfg;
  pcfg.shards = 4;
  pcfg.producers = 1;
  pcfg.queue_capacity = 2048;
  pcfg.publish_interval = 1024;

  ConcurrentMonitor mon(mcfg, pcfg);
  mon.start();

  // Noise plus two persistent heavy keys.
  auto noise = stream::distinct_trace(4 * kWindow, 23);
  constexpr std::uint64_t kHotA = 111, kHotB = 222;
  stream::WindowOracle oracle(kWindow);
  std::thread producer([&] {
    for (std::size_t i = 0; i < noise.size(); ++i) {
      std::uint64_t k = i % 8 == 0 ? kHotA : (i % 8 == 4 ? kHotB : noise[i]);
      ASSERT_TRUE(mon.push(0, k));
    }
  });
  // Concurrent reads: must never throw, items must be monotone.
  std::uint64_t last_items = 0;
  std::uint64_t reads = 0;
  while (true) {
    MonitorReport rep = mon.report(4);
    ASSERT_GE(rep.items, last_items);
    last_items = rep.items;
    ++reads;
    if (rep.items >= noise.size()) break;
    if (last_items == 0) std::this_thread::yield();
  }
  producer.join();
  mon.close();
  EXPECT_GT(reads, 1u);

  for (std::size_t i = 0; i < noise.size(); ++i) {
    std::uint64_t k = i % 8 == 0 ? kHotA : (i % 8 == 4 ? kHotB : noise[i]);
    oracle.insert(k);
  }

  MonitorReport rep = mon.report(4);
  ASSERT_TRUE(rep.cardinality.has_value());
  EXPECT_LT(relative_error(static_cast<double>(oracle.cardinality()),
                           *rep.cardinality),
            0.15);
  ASSERT_GE(rep.top.size(), 2u);
  EXPECT_TRUE((rep.top[0].key == kHotA && rep.top[1].key == kHotB) ||
              (rep.top[0].key == kHotB && rep.top[1].key == kHotA));
  EXPECT_GT(mon.frequency(kHotA), 100u);
  EXPECT_TRUE(mon.seen(kHotA));
  EXPECT_EQ(mon.metrics_registry().sum("she_pipeline_dropped_total"), 0u);
}

// Readers query the published views while both shard workers publish
// after every item, so each write clones cell frames that a view still
// shares and frames freed by readers are recycled under the writers (the
// tsan legs run this under ThreadSanitizer).  With `trim`, one more thread
// hands free frames back to the kernel all the while, so writers also
// clone into released frames.  The final state of each shard equals a
// sequential reference, byte for byte.
void readers_while_publishing_every_item(bool trim) {
  MonitorConfig mcfg;
  mcfg.window = 1 << 12;
  mcfg.memory_bytes = 256 << 10;
  mcfg.heavy_hitter_slots = 16;
  mcfg.seed = 9;
  PipelineOptions pcfg;
  pcfg.shards = 2;
  pcfg.producers = 1;
  pcfg.queue_capacity = 1024;
  pcfg.publish_interval = 1;
  ConcurrentMonitor mon(mcfg, pcfg);
  mon.start();

  std::vector<std::uint64_t> keys = stream::distinct_trace(30000, 31);
  for (std::uint64_t& k : keys) k %= 3000;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> started{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      started.fetch_add(1, std::memory_order_release);
      std::uint64_t answers = 0;
      for (std::size_t i = r; !done.load(std::memory_order_acquire); ++i) {
        const std::uint64_t k = keys[i % keys.size()];
        answers += (mon.seen(k) ? 1 : 0) + mon.frequency(k);
        answers += mon.report(4).items;
        StreamMonitor snap = mon.shard_snapshot(i % 2);  // a copy that writes
        snap.insert(k);
        answers += snap.frequency(k);
      }
      EXPECT_GT(answers, 0u);
    });
  }
  std::size_t released = 0;
  if (trim) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        released += frames::trim();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  // Ingest only once both readers run: a reader scheduled after the whole
  // stream was pushed would read nothing while the workers publish.
  while (started.load(std::memory_order_acquire) < 2) std::this_thread::yield();
  for (const std::uint64_t k : keys) ASSERT_TRUE(mon.push(0, k));
  ASSERT_TRUE(mon.flush());
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  if (trim) {
    // The readers' snapshots are gone: their frames sit free a whole
    // interval.
    frames::trim();
    released += frames::trim();
    EXPECT_GT(released, 0u);
  }
  mon.close();

  for (std::size_t s = 0; s < 2; ++s) {
    // ConcurrentMonitor's per-shard slice of the config.
    MonitorConfig c = mcfg;
    c.window = mcfg.window / 2;
    c.memory_bytes = mcfg.memory_bytes / 2;
    c.seed = mcfg.seed + static_cast<std::uint32_t>(s) * 0x9e3779b9u;
    StreamMonitor ref(c);
    std::vector<std::uint64_t> mine;
    for (const std::uint64_t k : keys)
      if (mon.shard_of(k) == s) mine.push_back(k);
    ref.insert_batch(mine);
    std::vector<char> got, want;
    serialize_to(got, *mon.view(s));
    serialize_to(want, ref);
    EXPECT_EQ(got, want) << "shard " << s;
  }
}

TEST(ConcurrentMonitor, ReadersWhilePublishingEveryItem) {
  readers_while_publishing_every_item(false);
}

TEST(ConcurrentMonitor, FrameTrimsRacePublishesAndReaders) {
  readers_while_publishing_every_item(true);
}

// Every shard's slice of the budget must hold the full heavy-hitter
// table: 256 KB over 256 shards is 1024 bytes a shard, below 1500 slots.
// Such a monitor must not build, since its checkpoints could not load.
TEST(ConcurrentMonitor, ShardBudgetBelowTheHeavyHitterSlotsIsRefused) {
  MonitorConfig mcfg;
  mcfg.window = 1 << 16;
  mcfg.memory_bytes = 256 << 10;
  mcfg.heavy_hitter_slots = 1500;
  EXPECT_NO_THROW(mcfg.validate());
  PipelineOptions pcfg;
  pcfg.shards = 256;
  pcfg.queue_capacity = 64;
  EXPECT_THROW((void)ConcurrentMonitor(mcfg, pcfg), std::invalid_argument);
  pcfg.shards = 128;  // 2048 bytes a shard
  EXPECT_NO_THROW((void)ConcurrentMonitor(mcfg, pcfg));
}

// A create/ingest/read/close loop returns every cell frame to the pool,
// and reuses pooled frames instead of carving new ones round after round.
TEST(ConcurrentMonitor, CreateDropLoopReusesPooledFrames) {
  const auto in_use = [] {
    const frames::PoolStats s = frames::pool_stats();
    return s.frames - s.free - s.released;
  };
  const std::size_t baseline = in_use();
  std::size_t carved = 0;
  std::vector<std::uint64_t> keys = stream::distinct_trace(6000, 5);
  for (int round = 0; round < 6; ++round) {
    {
      MonitorConfig mcfg;
      mcfg.window = 1 << 12;
      mcfg.memory_bytes = 256 << 10;
      PipelineOptions pcfg;
      pcfg.shards = 2;
      pcfg.publish_interval = 64;
      ConcurrentMonitor mon(mcfg, pcfg);
      mon.start();
      std::thread reader([&] {
        for (int i = 0; i < 50; ++i) (void)mon.shard_snapshot(i % 2).report(2);
      });
      for (const std::uint64_t k : keys) ASSERT_TRUE(mon.push(0, k));
      reader.join();
      mon.close();
    }
    EXPECT_EQ(in_use(), baseline) << "round " << round;
    if (round == 1) carved = frames::pool_stats().frames;
    // How many frames are live at once varies with the reader's timing, so
    // the pool may still grow a little, but not round after round.
    if (round > 1) {
      EXPECT_LE(frames::pool_stats().frames, 2 * carved) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace she::runtime
