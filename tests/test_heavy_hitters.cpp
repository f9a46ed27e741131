// HeavyHitters tests: top-k recovery against the exact oracle on skewed
// streams, window decay of past heavy hitters, candidate-table bounds, and
// the batched insert path held byte-for-byte to the per-key algorithm.
#include "she/heavy_hitters.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/io.hpp"
#include "common/simd.hpp"
#include "obs/she_metrics.hpp"
#include "she/monitor.hpp"
#include "stream/oracle.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she {
namespace {

/// The per-key heavy-hitter algorithm the batched path must reproduce:
/// scalar SHE-CM insert, then a refresh of every candidate once per
/// `capacity` inserts, then admission with a scalar post-insert estimate.
class ReferenceHeavyHitters {
 public:
  ReferenceHeavyHitters(const SheConfig& cfg, unsigned hashes,
                        std::size_t capacity)
      : sketch_(cfg, hashes), capacity_(capacity) {
    candidates_.reserve(capacity + 1);
  }

  void insert(std::uint64_t key) {
    sketch_.insert(key);
    if (++since_refresh_ >= capacity_) {
      since_refresh_ = 0;
      for (auto& [cand, est] : candidates_) est = sketch_.frequency(cand);
    }
    maybe_admit(key, sketch_.frequency(key));
  }

  [[nodiscard]] std::vector<HeavyHitters::Entry> candidates() const {
    std::vector<HeavyHitters::Entry> out;
    for (const auto& [key, est] : candidates_) out.push_back({key, est});
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    return out;
  }

  [[nodiscard]] std::vector<HeavyHitters::Entry> top(std::size_t k) const {
    std::vector<HeavyHitters::Entry> out;
    for (const auto& [key, stale] : candidates_)
      out.push_back({key, sketch_.frequency(key)});
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.estimate != b.estimate ? a.estimate > b.estimate : a.key < b.key;
    });
    if (out.size() > k) out.resize(k);
    return out;
  }

  [[nodiscard]] const SheCountMin& sketch() const { return sketch_; }

 private:
  void maybe_admit(std::uint64_t key, std::uint64_t estimate) {
    auto it = candidates_.find(key);
    if (it != candidates_.end()) {
      it->second = estimate;
      return;
    }
    if (candidates_.size() < capacity_) {
      candidates_.emplace(key, estimate);
      return;
    }
    auto weakest = candidates_.begin();
    for (auto cand = candidates_.begin(); cand != candidates_.end(); ++cand)
      if (std::pair(cand->second, cand->first) <
          std::pair(weakest->second, weakest->first))
        weakest = cand;
    if (estimate > weakest->second) {
      candidates_.erase(weakest);
      candidates_.emplace(key, estimate);
    }
  }

  SheCountMin sketch_;
  std::size_t capacity_;
  std::size_t since_refresh_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> candidates_;
};

template <typename T>
std::string serialized(const T& est) {
  std::stringstream ss;
  BinaryWriter w(ss);
  est.save(w);
  return ss.str();
}

bool same_entries(const std::vector<HeavyHitters::Entry>& a,
                  const std::vector<HeavyHitters::Entry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.key == y.key && x.estimate == y.estimate;
                    });
}

/// Zipf keys over a universe a few times the window: enough repeats for
/// real heavy hitters, enough churn to evict.
std::vector<std::uint64_t> skewed_stream(std::size_t length,
                                         std::uint64_t universe,
                                         std::uint64_t seed) {
  stream::ZipfTraceConfig tc;
  tc.length = length;
  tc.universe = universe;
  tc.skew = 1.1;
  tc.seed = seed;
  return stream::zipf_trace(tc);
}

/// Feed `keys` in chunks of `batch` keys, cycling through `extra` sizes
/// too so consecutive calls start at every phase of the refresh period.
template <typename Insert>
void feed_in_chunks(std::span<const std::uint64_t> keys, std::size_t batch,
                    Insert&& insert) {
  const std::size_t sizes[] = {batch, 1, batch, 5, batch, 37};
  std::size_t at = 0;
  for (std::size_t i = 0; at < keys.size(); ++i) {
    const std::size_t n = std::min(sizes[i % 6], keys.size() - at);
    insert(keys.subspan(at, n));
    at += n;
  }
}

SheConfig hh_config(std::uint64_t window) {
  SheConfig cfg;
  cfg.window = window;
  cfg.cells = 1 << 15;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  return cfg;
}

TEST(HeavyHitters, RejectsZeroCapacity) {
  EXPECT_THROW(HeavyHitters(hh_config(1000), 8, 0), std::invalid_argument);
}

TEST(HeavyHitters, CapacityBoundRespected) {
  HeavyHitters hh(hh_config(1000), 8, 16);
  auto trace = stream::distinct_trace(5000, 3);
  for (auto k : trace) hh.insert(k);
  EXPECT_LE(hh.candidate_count(), 16u);
}

TEST(HeavyHitters, RecoversTopKeysOnZipfStream) {
  constexpr std::uint64_t kWindow = 4096;
  HeavyHitters hh(hh_config(kWindow), 8, 64);
  stream::WindowOracle oracle(kWindow);

  stream::ZipfTraceConfig tc;
  tc.length = 4 * kWindow;
  tc.universe = 2 * kWindow;
  tc.skew = 1.1;
  tc.seed = 5;
  auto trace = stream::zipf_trace(tc);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    hh.insert(trace[i]);
    oracle.insert(trace[i]);
  }

  // True top-5 of the window.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> truth(
      oracle.counts().begin(), oracle.counts().end());
  std::partial_sort(truth.begin(), truth.begin() + 5, truth.end(),
                    [](const auto& a, const auto& b) { return a.second > b.second; });

  auto reported = hh.top(10);
  ASSERT_GE(reported.size(), 5u);
  std::unordered_set<std::uint64_t> reported_keys;
  for (const auto& e : reported) reported_keys.insert(e.key);
  // All of the true top-5 must appear in the reported top-10.
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(reported_keys.count(truth[static_cast<std::size_t>(i)].first))
        << "missing true top key #" << i;
}

TEST(HeavyHitters, EstimatesNeverBelowTruthForReportedKeys) {
  constexpr std::uint64_t kWindow = 4096;
  HeavyHitters hh(hh_config(kWindow), 8, 32);
  stream::WindowOracle oracle(kWindow);
  stream::ZipfTraceConfig tc;
  tc.length = 3 * kWindow;
  tc.universe = kWindow;
  tc.skew = 1.0;
  tc.seed = 7;
  auto trace = stream::zipf_trace(tc);
  for (auto k : trace) {
    hh.insert(k);
    oracle.insert(k);
  }
  for (const auto& e : hh.top(10))
    EXPECT_GE(e.estimate + 2, oracle.frequency(e.key)) << "key " << e.key;
}

TEST(HeavyHitters, FormerHittersDecayOut) {
  constexpr std::uint64_t kWindow = 2048;
  HeavyHitters hh(hh_config(kWindow), 8, 16);
  // Phase 1: key A dominates.  Phase 2: key B dominates for many windows.
  for (int i = 0; i < 2000; ++i) {
    hh.insert(0xAAAA);
    hh.insert(hash64(static_cast<std::uint64_t>(i), 1));
  }
  auto before = hh.top(1);
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(before[0].key, 0xAAAAu);

  for (int i = 0; i < 20000; ++i) {
    hh.insert(0xBBBB);
    hh.insert(hash64(static_cast<std::uint64_t>(i), 2));
  }
  auto after = hh.top(1);
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after[0].key, 0xBBBBu);
  // A's re-estimated frequency must have decayed to near zero.
  EXPECT_LT(hh.frequency(0xAAAA), 100u);
}

TEST(HeavyHitters, TopIsSortedAndDeterministic) {
  HeavyHitters hh(hh_config(1024), 8, 32);
  for (int rep = 0; rep < 300; ++rep)
    for (std::uint64_t k = 0; k < 10; ++k)
      for (std::uint64_t copy = 0; copy < k + 1; ++copy) hh.insert(k);
  auto top = hh.top(10);
  for (std::size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(top[i - 1].estimate, top[i].estimate);
  auto again = hh.top(10);
  ASSERT_EQ(top.size(), again.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].key, again[i].key);
    EXPECT_EQ(top[i].estimate, again[i].estimate);
  }
}

TEST(HeavyHitters, ClearResets) {
  HeavyHitters hh(hh_config(1024), 4, 8);
  hh.insert(1);
  hh.clear();
  EXPECT_EQ(hh.candidate_count(), 0u);
  EXPECT_EQ(hh.time(), 0u);
}

// ------------------------------------------ batched path vs. per-key path --

SheConfig small_config(std::uint64_t window, std::size_t cells, double alpha) {
  SheConfig cfg;
  cfg.window = window;
  cfg.cells = cells;
  cfg.group_cells = 64;
  cfg.alpha = alpha;
  cfg.seed = 3;
  return cfg;
}

TEST(HeavyHittersBatch, FusedEstimateMatchesInsertThenFrequency) {
  // Window 16, Tcycle 32: every 32-key block wraps a cycle, and all-young
  // probes (the fallback branch) happen every few hundred keys at k = 8.
  // k = kSlotBudget + 1 does not fit the block stage, so the batch call
  // loops over insert_at and frequency; it must answer the same.
  const SheConfig cfg = small_config(16, 1024, 1.0);
  const auto keys = skewed_stream(6000, 300, 4);
  const auto tally = [] {
    obs::SheMetrics& m = obs::she_metrics();
    return std::vector<std::uint64_t>{
        m.queries.value(), m.query_cells_young.value(),
        m.query_cells_perfect.value(), m.query_cells_aged.value(),
        m.cm_all_young_queries.value(), m.groupclock_lazy_clean.value()};
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);

  for (const unsigned hashes : {8u, unsigned{batch::kSlotBudget + 1}}) {
    SCOPED_TRACE("hashes " + std::to_string(hashes));
    SheCountMin ref(cfg, hashes);
    std::vector<std::uint64_t> want;
    const auto ref_before = tally();
    for (std::uint64_t k : keys) {
      ref.insert_at(k, ref.time() + 1);
      want.push_back(ref.frequency(k));
    }
    const auto ref_after = tally();
    if (hashes == 8) {
      ASSERT_GT(ref.all_young_queries(), 0u) << "stream never hit the fallback";
    }

    for (const bool scalar : {false, true}) {
      const simd::ScopedForceScalar pin(scalar);
      SheCountMin cm(cfg, hashes);
      std::vector<std::uint64_t> got(keys.size());
      const auto before = tally();
      feed_in_chunks(keys, 37, [&](std::span<const std::uint64_t> chunk) {
        const auto at = static_cast<std::size_t>(chunk.data() - keys.data());
        cm.insert_batch_estimates(
            chunk, std::span<std::uint64_t>(got).subspan(at, chunk.size()));
      });
      const auto after = tally();
      SCOPED_TRACE(scalar ? "forced scalar" : "native");
      EXPECT_EQ(got, want);
      EXPECT_EQ(serialized(cm), serialized(ref));
      EXPECT_EQ(cm.all_young_queries(), ref.all_young_queries());
      for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(after[i] - before[i], ref_after[i] - ref_before[i])
            << "telemetry counter " << i;
    }
  }
  obs::set_enabled(was_enabled);

  SheCountMin cm(cfg, 8);
  std::vector<std::uint64_t> small(1);
  EXPECT_THROW(cm.insert_batch_estimates(keys, small), std::invalid_argument);
}

TEST(HeavyHittersBatch, MatchesPerKeyAlgorithmByteForByte) {
  struct Case {
    std::uint64_t window;
    std::size_t cells;
    double alpha;
  };
  const Case cases[] = {{16, 1024, 1.0}, {100, 4096, 0.5}, {4096, 1 << 14, 1.0}};
  std::uint64_t all_young_seen = 0;
  for (const Case& c : cases) {
    const SheConfig cfg = small_config(c.window, c.cells, c.alpha);
    const auto keys = skewed_stream(std::max<std::size_t>(4 * c.window, 6000),
                                    4 * c.window + 500, c.window);
    for (const std::size_t capacity : {1u, 3u, 64u, 200u}) {
      for (const std::size_t batch : {1u, 5u, 37u, 256u, 8192u}) {
        for (const bool scalar : {false, true}) {
          const simd::ScopedForceScalar pin(scalar);
          SCOPED_TRACE("window " + std::to_string(c.window) + " capacity " +
                       std::to_string(capacity) + " batch " +
                       std::to_string(batch) + (scalar ? " scalar" : ""));
          // Lock-step: the candidate table self-heals, so a divergence in
          // the middle of the stream could vanish by its end.
          ReferenceHeavyHitters ref(cfg, 8, capacity);
          HeavyHitters hh(cfg, 8, capacity);
          std::size_t diverged = 0;
          feed_in_chunks(keys, batch, [&](std::span<const std::uint64_t> ch) {
            for (std::uint64_t k : ch) ref.insert(k);
            hh.insert_batch(ch);
            if (!same_entries(hh.candidates(), ref.candidates()) ||
                hh.sketch().all_young_queries() !=
                    ref.sketch().all_young_queries())
              ++diverged;
          });
          EXPECT_EQ(diverged, 0u) << "chunks whose state differed";
          EXPECT_EQ(serialized(hh.sketch()), serialized(ref.sketch()));
          EXPECT_EQ(hh.sketch().all_young_queries(),
                    ref.sketch().all_young_queries());
          EXPECT_TRUE(same_entries(hh.top(10), ref.top(10)));
          if (batch == 1 && !scalar)
            all_young_seen += ref.sketch().all_young_queries();
        }
      }
    }
  }
  EXPECT_GT(all_young_seen, 0u) << "no case exercised the all-young corner";
}

TEST(HeavyHittersBatch, SingleInsertIsABatchOfOne) {
  const SheConfig cfg = small_config(100, 4096, 0.5);
  const auto keys = skewed_stream(3000, 900, 8);
  ReferenceHeavyHitters ref(cfg, 8, 3);
  HeavyHitters hh(cfg, 8, 3);
  for (std::uint64_t k : keys) {
    ref.insert(k);
    hh.insert(k);
  }
  EXPECT_EQ(serialized(hh.sketch()), serialized(ref.sketch()));
  EXPECT_TRUE(same_entries(hh.candidates(), ref.candidates()));
}

TEST(HeavyHittersBatch, StreamMonitorMatchesPerKeyFrequencyPath) {
  // 32K / 512 KiB is one shard of the e2e bench spec; window 100 wraps
  // the frequency clock's cycle inside a block.
  struct Case {
    std::uint64_t window;
    std::size_t budget;
    std::size_t slots;
  };
  const Case cases[] = {{100, 16 << 10, 3}, {32768, 512 << 10, 64}};
  for (const Case& c : cases) {
    MonitorConfig mc;
    mc.window = c.window;
    mc.memory_bytes = c.budget;
    mc.heavy_hitter_slots = c.slots;
    mc.seed = 9;
    const SheCountMin geometry = StreamMonitor(mc).heavy_hitters()->sketch();
    const auto keys = skewed_stream(std::max<std::size_t>(3 * c.window, 6000),
                                    2 * c.window + 500, 17);
    ReferenceHeavyHitters ref(geometry.config(), geometry.hash_count(),
                              c.slots);
    for (std::uint64_t k : keys) ref.insert(k);
    const std::string ref_bytes = serialized(ref.sketch());
    const auto ref_candidates = ref.candidates();
    const auto ref_top = ref.top(10);
    for (const std::size_t batch : {1u, 37u, 8192u}) {
      for (const bool scalar : {false, true}) {
        const simd::ScopedForceScalar pin(scalar);
        StreamMonitor mon(mc);
        feed_in_chunks(keys, batch, [&](std::span<const std::uint64_t> ch) {
          mon.insert_batch(ch);
        });
        SCOPED_TRACE("window " + std::to_string(c.window) + " batch " +
                     std::to_string(batch) + (scalar ? " scalar" : ""));
        // StreamMonitor::save writes exactly this sketch and table.
        const HeavyHitters& hh = *mon.heavy_hitters();
        EXPECT_EQ(serialized(hh.sketch()), ref_bytes);
        EXPECT_TRUE(same_entries(hh.candidates(), ref_candidates));
        EXPECT_TRUE(same_entries(mon.report(10).top, ref_top));
      }
    }
  }
}

}  // namespace
}  // namespace she
