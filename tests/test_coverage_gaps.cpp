// Edge-case coverage beyond the per-module suites: large-clock arithmetic,
// HLL-variant monitor checkpoints, and misc API corners surfaced by review.
#include <vector>

#include "common/bit_array.hpp"
#include "common/zipf.hpp"
#include "common/io.hpp"
#include "she/csm_soft.hpp"
#include "she/she.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she {
namespace {

TEST(LargeClock, GroupClockStableAtHugeTimes) {
  // Ages/marks must stay consistent far into a stream (t ~ 2^40).
  GroupClock c(64, (1u << 20) + 7);
  std::uint64_t t0 = std::uint64_t{1} << 40;
  for (std::size_t g = 0; g < 64; ++g) {
    std::uint64_t a0 = c.age(g, t0);
    EXPECT_LT(a0, c.tcycle());
    EXPECT_EQ(c.age(g, t0 + 1), (a0 + 1) % c.tcycle());
    // Mark flips exactly at the age wrap, even at huge t.
    std::uint64_t to_wrap = c.tcycle() - a0;
    EXPECT_NE(c.current_mark(g, t0 + to_wrap), c.current_mark(g, t0 + to_wrap - 1));
  }
}

TEST(LargeClock, EstimatorSurvivesHugeAdvance) {
  SheConfig cfg;
  cfg.window = 1000;
  cfg.cells = 1 << 14;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  SheBloomFilter bf(cfg, 4);
  bf.insert_at(7, std::uint64_t{1} << 40);
  EXPECT_TRUE(bf.contains(7));
  bf.advance_to((std::uint64_t{1} << 40) + 500);
  EXPECT_TRUE(bf.contains(7));
}

TEST(MonitorGaps, HllVariantCheckpointRoundTrip) {
  MonitorConfig cfg;
  cfg.window = 1 << 14;
  cfg.memory_bytes = 64 * 1024;
  cfg.use_hll = true;
  cfg.expected_cardinality = 8000;
  StreamMonitor mon(cfg);
  for (auto k : stream::distinct_trace(2 * cfg.window, 3)) mon.insert(k);

  std::vector<char> buf;
  BinaryWriter w(buf);
  mon.save(w);
  BinaryReader r(buf);
  StreamMonitor back = StreamMonitor::load(r);
  ASSERT_TRUE(back.report(1).cardinality.has_value());
  EXPECT_DOUBLE_EQ(*back.report(1).cardinality, *mon.report(1).cardinality);
}

TEST(MonitorGaps, CorruptedMonitorStreamRejected) {
  MonitorConfig cfg;
  cfg.window = 1024;
  cfg.memory_bytes = 16 * 1024;
  StreamMonitor mon(cfg);
  std::vector<char> buf;
  BinaryWriter w(buf);
  mon.save(w);
  std::string data(buf.begin(), buf.end());
  const std::string cut(data.substr(0, data.size() / 3));
  BinaryReader r(cut);
  EXPECT_THROW((void)StreamMonitor::load(r), std::runtime_error);
}

TEST(BitArrayGaps, MergeOperatorsRejectSizeMismatch) {
  BitArray a(64), b(128);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a &= b, std::invalid_argument);
}

TEST(BitArrayGaps, IntersectionWorks) {
  BitArray a(128), b(128);
  a.set(3);
  a.set(70);
  b.set(70);
  b.set(90);
  a &= b;
  EXPECT_FALSE(a.test(3));
  EXPECT_TRUE(a.test(70));
  EXPECT_FALSE(a.test(90));
}

TEST(HeavyHittersGaps, LoadKeepsPointQueriesAndCandidates) {
  SheConfig cfg;
  cfg.window = 2048;
  cfg.cells = 1 << 13;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  HeavyHitters hh(cfg, 8, 16);
  for (int i = 0; i < 500; ++i) hh.insert(42);
  hh.insert(7);

  std::vector<char> buf;
  BinaryWriter w(buf);
  hh.save(w);
  BinaryReader r(buf);
  HeavyHitters back = HeavyHitters::load(r, 16);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(back.frequency(42), hh.frequency(42));
  EXPECT_EQ(back.candidate_count(), 2u);
  ASSERT_EQ(back.top(1).size(), 1u);
  EXPECT_EQ(back.top(1)[0].key, 42u);
  back.insert(9);
  EXPECT_EQ(back.candidate_count(), 3u);

  // A table wider than the capacity it is loaded into is malformed.
  BinaryReader narrow(buf);
  EXPECT_THROW((void)HeavyHitters::load(narrow, 1), SerializeError);
}

TEST(ShardedGaps, OwnerAccessorsConsistent) {
  Sharded<SheBitmap> s(3, [](std::size_t idx) {
    SheConfig cfg;
    cfg.window = 1024;
    cfg.cells = 4096;
    cfg.group_cells = 64;
    cfg.alpha = 0.2;
    cfg.seed = static_cast<std::uint32_t>(idx);
    return SheBitmap(cfg);
  });
  const auto& cs = s;
  for (std::uint64_t k = 0; k < 100; ++k) {
    std::size_t shard = s.shard_of(k);
    EXPECT_EQ(&s.owner(k), &s.shard(shard));
    EXPECT_EQ(&cs.owner(k), &cs.shard(shard));
  }
}

TEST(ZipfGaps, PmfOutOfRangeThrows) {
  ZipfDistribution z(10, 1.0);
  EXPECT_THROW((void)z.pmf(10), std::out_of_range);
  EXPECT_NO_THROW((void)z.pmf(9));
}

TEST(SoftBloomGaps, TimeApiMatchesHardwareSemantics) {
  // SoftSheBloomFilter only exposes insert(); the csm soft engine provides
  // the time API — verify an insert-at-gap scenario through it instead.
  SheConfig cfg;
  cfg.window = 500;
  cfg.cells = 1 << 13;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  csm::SoftSlidingEstimator<csm::BloomPolicy> bf(cfg, csm::BloomPolicy{8, 0});
  bf.insert_at(123, 100);
  EXPECT_TRUE(csm::contains(bf, 123));
  bf.advance_to(100 + 3 * cfg.tcycle());
  EXPECT_FALSE(csm::contains(bf, 123));
}

}  // namespace
}  // namespace she
