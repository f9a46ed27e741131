// Generic software-sweep engine tests: parity with the hand-written
// SoftSheBloomFilter (same sweep arithmetic, same query) and the Sec. 3.2
// invariants for arbitrary policies.
#include "she/csm_soft.hpp"

#include "common/rng.hpp"
#include "she/she_bitmap.hpp"
#include "she/she_cm.hpp"
#include "she/soft_bloom.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she::csm {
namespace {

SheConfig soft_cfg(std::uint64_t window, std::size_t cells, double alpha,
                   std::uint32_t seed = 0) {
  SheConfig cfg;
  cfg.window = window;
  cfg.cells = cells;
  cfg.group_cells = 64;  // ignored by the sweep
  cfg.alpha = alpha;
  cfg.seed = seed;
  return cfg;
}

TEST(CsmSoft, MatchesHandWrittenSoftBloom) {
  SheConfig cfg = soft_cfg(1024, 1 << 13, 2.0, 5);
  SoftSlidingEstimator<BloomPolicy> generic(cfg, BloomPolicy{8, cfg.seed});
  SoftSheBloomFilter manual(cfg, 8);
  auto trace = stream::distinct_trace(6 * cfg.window, 3);
  Rng rng(7);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    generic.insert(trace[i]);
    manual.insert(trace[i]);
    if (i % 37 == 0) {
      std::uint64_t probe = rng();
      ASSERT_EQ(contains(generic, probe), manual.contains(probe)) << "i=" << i;
      ASSERT_EQ(contains(generic, trace[i]), manual.contains(trace[i]))
          << "i=" << i;
    }
  }
}

TEST(CsmSoft, CellAgesMatchHandWritten) {
  SheConfig cfg = soft_cfg(6, 12, 1.0);  // the paper's Fig. 3 geometry
  cfg.group_cells = 1;
  SoftSlidingEstimator<BitmapPolicy> generic(cfg, BitmapPolicy{});
  SoftSheBloomFilter manual(cfg, 1);
  for (int i = 0; i < 30; ++i) {
    generic.insert(static_cast<std::uint64_t>(i));
    manual.insert(static_cast<std::uint64_t>(i));
  }
  for (std::size_t pos = 0; pos < 12; ++pos)
    ASSERT_EQ(generic.cell_age(pos), manual.cell_age(pos)) << "pos " << pos;
}

TEST(CsmSoft, AdvanceToSweepsDuringGaps) {
  SheConfig cfg = soft_cfg(100, 1000, 1.0);  // Tcycle = 200
  SoftSlidingEstimator<BloomPolicy> bf(cfg, BloomPolicy{4, 0});
  bf.insert_at(42, 10);
  EXPECT_TRUE(contains(bf, 42));
  bf.advance_to(10 + 5 * cfg.tcycle());  // silence: sweep wipes everything
  EXPECT_FALSE(contains(bf, 42));
}

TEST(CsmSoft, LongGapWholeArrayWipe) {
  SheConfig cfg = soft_cfg(100, 1000, 1.0);
  SoftSlidingEstimator<CountMinPolicy> cm(cfg, CountMinPolicy{4, 0});
  for (int i = 0; i < 50; ++i) cm.insert(7);
  bool any_nonzero = false;
  cm.advance_to(cm.time() + 10 * cfg.tcycle());
  for (unsigned i = 0; i < 4; ++i)
    if (cm.probe(7, i).value != 0) any_nonzero = true;
  EXPECT_FALSE(any_nonzero);
}

TEST(CsmSoft, BackwardsTimeRejected) {
  SheConfig cfg = soft_cfg(100, 1000, 1.0);
  SoftSlidingEstimator<BloomPolicy> bf(cfg, BloomPolicy{4, 0});
  bf.insert_at(1, 50);
  EXPECT_THROW(bf.advance_to(49), std::invalid_argument);
}

TEST(CsmSoft, ClearResets) {
  SheConfig cfg = soft_cfg(100, 1000, 1.0);
  SoftSlidingEstimator<BloomPolicy> bf(cfg, BloomPolicy{4, 0});
  bf.insert(1);
  bf.clear();
  EXPECT_EQ(bf.time(), 0u);
}

}  // namespace
}  // namespace she::csm
