// Sharded wrapper tests: routing determinism, bulk/per-key equivalence,
// query semantics across shards, and the window-edge blur bound.
#include "she/sharded.hpp"

#include "common/stats.hpp"
#include "she/she.hpp"
#include "stream/oracle.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she {
namespace {

SheConfig bf_cfg(std::uint64_t window) {
  SheConfig cfg;
  cfg.window = window;
  cfg.cells = 1 << 14;
  cfg.group_cells = 64;
  cfg.alpha = 3.0;
  return cfg;
}

Sharded<SheBloomFilter> make_sharded_bf(std::size_t shards,
                                        std::uint64_t global_window) {
  return Sharded<SheBloomFilter>(shards, [&](std::size_t s) {
    SheConfig cfg = bf_cfg(global_window / shards);
    cfg.seed = static_cast<std::uint32_t>(s);  // independent families
    return SheBloomFilter(cfg, 8);
  });
}

TEST(Sharded, RejectsZeroShards) {
  EXPECT_THROW(make_sharded_bf(0, 1024), std::invalid_argument);
}

TEST(Sharded, RoutingIsDeterministicAndBalanced) {
  auto s = make_sharded_bf(8, 8192);
  std::vector<std::size_t> counts(8, 0);
  for (std::uint64_t k = 0; k < 80000; ++k) {
    std::size_t a = s.shard_of(k);
    ASSERT_EQ(a, s.shard_of(k));  // deterministic
    ++counts[a];
  }
  for (std::size_t c : counts) {
    EXPECT_GT(c, 9000u);
    EXPECT_LT(c, 11000u);
  }
}

TEST(Sharded, ParallelBulkEqualsSequentialRouting) {
  constexpr std::uint64_t kWindow = 8192;
  auto seq = make_sharded_bf(4, kWindow);
  auto par = make_sharded_bf(4, kWindow);
  auto trace = stream::distinct_trace(4 * kWindow, 5);

  for (auto k : trace) seq.insert(k);
  par.insert_bulk(trace);

  // Identical answers on inserted keys and on absent probes.
  for (std::size_t i = 0; i < trace.size(); i += 17)
    ASSERT_EQ(sharded_contains(seq, trace[i]), sharded_contains(par, trace[i]));
  for (std::uint64_t p = 0; p < 3000; ++p) {
    std::uint64_t probe = (std::uint64_t{1} << 40) + p;
    ASSERT_EQ(sharded_contains(seq, probe), sharded_contains(par, probe));
  }
}

TEST(Sharded, BulkSingleThreadPathEquivalentToo) {
  constexpr std::uint64_t kWindow = 4096;
  auto seq = make_sharded_bf(3, kWindow);
  auto bulk = make_sharded_bf(3, kWindow);
  auto trace = stream::distinct_trace(2 * kWindow, 7);
  for (auto k : trace) seq.insert(k);
  bulk.insert_bulk(trace);
  for (std::size_t i = 0; i < trace.size(); i += 13)
    ASSERT_EQ(sharded_contains(seq, trace[i]), sharded_contains(bulk, trace[i]));
}

TEST(Sharded, DeepInWindowItemsAlwaysFound) {
  // Sharding blurs the window edge by O(sqrt(N/S)), but items within half
  // the window must still always be present.
  constexpr std::uint64_t kWindow = 1 << 15;
  constexpr std::size_t kShards = 8;
  auto s = make_sharded_bf(kShards, kWindow);
  auto trace = stream::distinct_trace(4 * kWindow, 11);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    s.insert(trace[i]);
    if (i % 101 == 0 && i > kWindow / 2) {
      ASSERT_TRUE(sharded_contains(s, trace[i - kWindow / 2])) << "i=" << i;
      ASSERT_TRUE(sharded_contains(s, trace[i - 1]));
    }
  }
}

TEST(Sharded, OutdatedItemsExpireAcrossShards) {
  constexpr std::uint64_t kWindow = 1 << 14;
  // Roomy per-shard filters so a stale answer would be retention, not an
  // ordinary false positive.
  Sharded<SheBloomFilter> s(4, [&](std::size_t idx) {
    SheConfig cfg = bf_cfg(kWindow / 4);
    cfg.cells = 1 << 17;
    cfg.seed = static_cast<std::uint32_t>(idx);
    return SheBloomFilter(cfg, 8);
  });
  s.insert(0xFEED);
  auto noise = stream::distinct_trace(10 * kWindow, 13);
  s.insert_bulk(noise);
  EXPECT_FALSE(sharded_contains(s, 0xFEED));
}

TEST(Sharded, CardinalitySumsAcrossShards) {
  constexpr std::uint64_t kWindow = 1 << 14;
  constexpr std::size_t kShards = 4;
  Sharded<SheBitmap> s(kShards, [&](std::size_t idx) {
    SheConfig cfg;
    cfg.window = kWindow / kShards;
    cfg.cells = 1 << 13;
    cfg.group_cells = 64;
    cfg.alpha = 0.2;
    cfg.seed = static_cast<std::uint32_t>(idx);
    return SheBitmap(cfg);
  });
  stream::WindowOracle oracle(kWindow);
  auto trace = stream::distinct_trace(4 * kWindow, 17);
  RunningStats err;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    s.insert(trace[i]);
    oracle.insert(trace[i]);
    if (i > 2 * kWindow && i % 1024 == 0)
      err.add(relative_error(static_cast<double>(oracle.cardinality()),
                             sharded_cardinality(s)));
  }
  EXPECT_LT(err.mean(), 0.12);
}

TEST(Sharded, FrequencyRoutesToOwner) {
  constexpr std::uint64_t kWindow = 1 << 14;
  Sharded<SheCountMin> s(4, [&](std::size_t idx) {
    SheConfig cfg;
    cfg.window = kWindow / 4;
    cfg.cells = 1 << 14;
    cfg.group_cells = 64;
    cfg.alpha = 1.0;
    cfg.seed = static_cast<std::uint32_t>(idx);
    return SheCountMin(cfg, 8);
  });
  // One hot key sprinkled through noise; the owner shard sees all of it.
  auto noise = stream::distinct_trace(2 * kWindow, 19);
  std::uint64_t hot_inserted = 0;
  for (std::size_t i = 0; i < noise.size(); ++i) {
    s.insert(noise[i]);
    if (i % 8 == 0) {
      s.insert(777);
      ++hot_inserted;
    }
  }
  // The hot key's shard-local window is N/4; it holds the most recent
  // ~N/4 shard items, of which the hot key is a steady fraction.
  std::uint64_t est = sharded_frequency(s, 777);
  EXPECT_GT(est, 100u);
}

TEST(Sharded, MemorySumsShards) {
  auto s = make_sharded_bf(4, 8192);
  EXPECT_GE(s.memory_bytes(), 4 * ((1u << 14) / 8));
}

}  // namespace
}  // namespace she
