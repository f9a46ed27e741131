// CSM engine tests: the same policy must hold identical cells on the
// default one-Cell-per-slot store and on the packed store its estimator
// class uses, and user-defined policies must get sliding-window behaviour,
// batch path included.
#include "she/csm.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/io.hpp"
#include "common/simd.hpp"
#include "she/she.hpp"
#include "stream/oracle.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she::csm {
namespace {

SheConfig cfg_of(std::uint64_t window, std::size_t cells, std::size_t w,
                 double alpha, std::uint32_t seed = 0) {
  SheConfig cfg;
  cfg.window = window;
  cfg.cells = cells;
  cfg.group_cells = w;
  cfg.alpha = alpha;
  cfg.seed = seed;
  return cfg;
}

/// The same state, byte for byte, through save().
template <typename A, typename B>
void expect_same_bytes(const A& a, const B& b, std::size_t at) {
  std::vector<char> sa, sb;
  BinaryWriter wa(sa), wb(sb);
  a.save(wa);
  b.save(wb);
  ASSERT_EQ(sa, sb) << "i=" << at;
}

/// Cell-for-cell agreement: value, age and age class of every cell.
template <typename A, typename B>
void expect_same_cells(const A& a, const B& b, std::size_t at) {
  ASSERT_EQ(a.time(), b.time()) << "i=" << at;
  ASSERT_EQ(a.cell_count(), b.cell_count());
  for (std::size_t pos = 0; pos < a.cell_count(); ++pos) {
    const auto va = a.view(pos);
    const auto vb = b.view(pos);
    ASSERT_EQ(va.value, vb.value) << "i=" << at << " pos=" << pos;
    ASSERT_EQ(va.age, vb.age) << "i=" << at << " pos=" << pos;
    ASSERT_EQ(va.age_class, vb.age_class) << "i=" << at << " pos=" << pos;
  }
}

// The same policy on the default one-Cell-per-slot store and on the packed
// store the estimator class uses must hold identical cells throughout.  A
// derived policy that names VectorStore picks the default store.  SHE-CM and
// SHE-MH already store one Cell per slot: their classes must save the bare
// engine's bytes.
struct VecBloom : BloomPolicy {
  using Store = VectorStore<Cell>;
};
struct VecBitmap : BitmapPolicy {
  using Store = VectorStore<Cell>;
};
struct VecHll : HllPolicy {
  using Store = VectorStore<Cell>;
};

TEST(Csm, BloomEquivalentToSpecialized) {
  SheConfig cfg = cfg_of(1024, 1 << 13, 64, 2.0, 7);
  SlidingEstimator<VecBloom> generic(cfg, VecBloom{{8, cfg.seed}});
  SlidingEstimator<BloomPolicy> specialized(cfg, BloomPolicy{8, cfg.seed});

  auto trace = stream::distinct_trace(6 * cfg.window, 3);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    generic.insert(trace[i]);
    specialized.insert(trace[i]);
    if (i % 101 == 0) expect_same_cells(generic, specialized, i);
  }
}

TEST(Csm, BitmapEquivalentToSpecialized) {
  SheConfig cfg = cfg_of(2048, 1 << 14, 64, 0.2, 5);
  SlidingEstimator<VecBitmap> generic(cfg, VecBitmap{{cfg.seed}});
  SlidingEstimator<BitmapPolicy> specialized(cfg, BitmapPolicy{cfg.seed});

  auto trace = stream::distinct_trace(6 * cfg.window, 9);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    generic.insert(trace[i]);
    specialized.insert(trace[i]);
    if (i % 509 == 0) expect_same_cells(generic, specialized, i);
  }
}

TEST(Csm, HllEquivalentToSpecialized) {
  SheConfig cfg = cfg_of(4096, 1024, 1, 0.2, 11);
  SlidingEstimator<VecHll> generic(cfg, VecHll{{cfg.seed}});
  SlidingEstimator<HllPolicy> specialized(cfg, HllPolicy{cfg.seed});

  auto trace = stream::distinct_trace(5 * cfg.window, 13);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    generic.insert(trace[i]);
    specialized.insert(trace[i]);
    if (i % 997 == 0) expect_same_cells(generic, specialized, i);
  }
}

TEST(Csm, CountMinEquivalentToSpecialized) {
  SheConfig cfg = cfg_of(1024, 1 << 13, 64, 1.0, 3);
  SlidingEstimator<CountMinPolicy> generic(cfg, CountMinPolicy{8, cfg.seed});
  SheCountMin specialized(cfg, 8);

  stream::ZipfTraceConfig tc;
  tc.length = 6 * cfg.window;
  tc.universe = cfg.window;
  tc.skew = 1.0;
  tc.seed = 21;
  auto trace = stream::zipf_trace(tc);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    generic.insert(trace[i]);
    specialized.insert(trace[i]);
    if (i % 211 == 0) expect_same_bytes(generic, specialized, i);
  }
}

TEST(Csm, MinHashEquivalentToSpecialized) {
  SheConfig cfg = cfg_of(2048, 256, 1, 0.2, 17);
  SlidingEstimator<MinHashPolicy> ga(cfg, MinHashPolicy{cfg.seed});
  SheMinHash sa(cfg);

  auto pair = stream::relevant_pair(5 * cfg.window, 2 * cfg.window, 0.6, 0.8, 7);
  for (std::size_t i = 0; i < pair.a.size(); ++i) {
    ga.insert(pair.a[i]);
    sa.insert(pair.a[i]);
    if (i % 499 == 0) expect_same_bytes(ga, sa, i);
  }
}

TEST(Csm, MinHashIncompatibilityChecks) {
  SheConfig a_cfg = cfg_of(100, 64, 1, 0.5, 1);
  SheConfig b_cfg = cfg_of(100, 64, 1, 0.5, 2);  // different hash family
  SheMinHash a(a_cfg), b(b_cfg);
  EXPECT_THROW((void)SheMinHash::jaccard(a, b), std::invalid_argument);
}

TEST(Csm, CellViewsClassifyAges) {
  SheConfig cfg = cfg_of(100, 256, 16, 1.0);
  SlidingEstimator<BitmapPolicy> est(cfg, BitmapPolicy{});
  for (std::uint64_t i = 0; i < 500; ++i) est.insert(hash64(i));
  std::size_t young = 0, perfect = 0, aged = 0;
  for (std::size_t pos = 0; pos < est.cell_count(); pos += cfg.group_cells) {
    switch (est.view(pos).age_class) {
      case CellAge::kYoung: ++young; break;
      case CellAge::kPerfect: ++perfect; break;
      case CellAge::kAged: ++aged; break;
    }
  }
  // Tcycle = 2N: roughly half the groups young, half aged.
  EXPECT_GT(young, 0u);
  EXPECT_GT(aged, 0u);
  EXPECT_LE(perfect, 2u);
}

// --- a user-defined policy: sliding "maximum value" sketch ------------------
//
// Tracks the maximum of a per-item 16-bit payload over the window per hashed
// cell — the kind of custom aggregate the CSM framework admits without
// touching SHE internals.  F(x, y) = max(payload(x), y).
struct MaxPolicy {
  using Cell = std::uint16_t;
  std::uint32_t seed = 0;

  [[nodiscard]] unsigned probes(std::size_t) const { return 2; }
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned i,
                                     std::size_t cells) const {
    return BobHash32(seed + i)(key) % cells;
  }
  [[nodiscard]] Cell update(std::uint64_t key, unsigned, Cell old) const {
    auto payload = static_cast<Cell>(key >> 48);  // payload rides in high bits
    return payload > old ? payload : old;
  }
  static Cell empty_cell() { return 0; }
  static std::size_t cell_bits() { return 16; }
};
static_assert(CsmPolicy<MaxPolicy>);

/// A policy whose Cell is a struct with no operator== (the engine must not
/// compare cells): per hashed cell, a saturating count and the payload of
/// the latest item.
struct TallyPolicy {
  struct Cell {
    std::uint16_t count;
    std::uint16_t last;
  };

  [[nodiscard]] unsigned probes(std::size_t) const { return 3; }
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned i,
                                     std::size_t cells) const {
    return BobHash32(i)(key) % cells;
  }
  [[nodiscard]] Cell update(std::uint64_t key, unsigned, Cell old) const {
    const auto count = static_cast<std::uint16_t>(
        old.count == 0xFFFF ? old.count : old.count + 1);
    return {count, static_cast<std::uint16_t>(key >> 48)};
  }
  static Cell empty_cell() { return {0, 0}; }
  static std::size_t cell_bits() { return 32; }
};
static_assert(CsmPolicy<TallyPolicy>);

void expect_same_tallies(const SlidingEstimator<TallyPolicy>& a,
                         const SlidingEstimator<TallyPolicy>& b, bool scalar) {
  ASSERT_EQ(a.time(), b.time());
  for (std::size_t pos = 0; pos < a.cell_count(); ++pos) {
    const auto va = a.view(pos);
    const auto vb = b.view(pos);
    ASSERT_EQ(va.value.count, vb.value.count) << scalar << " pos=" << pos;
    ASSERT_EQ(va.value.last, vb.value.last) << scalar << " pos=" << pos;
    ASSERT_EQ(va.age, vb.age) << scalar << " pos=" << pos;
  }
}

TEST(Csm, CustomPolicyWorks) {
  SheConfig cfg = cfg_of(1000, 4096, 64, 1.0);
  SlidingEstimator<MaxPolicy> est(cfg, MaxPolicy{});

  // Insert a burst of items with payload <= 100, then one spike of 60000,
  // then keep streaming low payloads for several windows.
  auto low_key = [](std::uint64_t i, std::uint64_t payload) {
    return (payload << 48) | (hash64(i) & 0xFFFFFFFFFFFFULL);
  };
  for (std::uint64_t i = 0; i < 500; ++i) est.insert(low_key(i, i % 100));
  est.insert(low_key(12345, 60000));

  // Immediately after: the spike is visible through its mature probes.
  std::uint16_t seen_max = 0;
  for (unsigned p = 0; p < 2; ++p)
    seen_max = std::max(seen_max, est.probe(low_key(12345, 60000), p).value);
  EXPECT_EQ(seen_max, 60000);

  // Several windows later, the spike has been cleaned away.
  for (std::uint64_t i = 0; i < 8000; ++i) est.insert(low_key(i + 1000, i % 100));
  std::uint16_t later_max = 0;
  for (std::size_t pos = 0; pos < est.cell_count(); ++pos)
    later_max = std::max(later_max, est.view(pos).value);
  EXPECT_LT(later_max, 60000);

  // The batch path: a policy with no stage-1 hook gets the generic stage
  // (position() per probe), and insert_batch / insert_at_batch must leave
  // the same cells — hence the same answers — as the per-key loop, on the
  // vector kernels and on the scalar tails alike.  The short window makes
  // lazy cleans fire inside blocks.  TallyPolicy runs the same check with
  // a struct cell.
  const SheConfig small = cfg_of(100, 1000, 16, 0.5);
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> times;
  std::uint64_t t = 0;
  for (std::uint64_t i = 0; i < 6000; ++i) {
    keys.push_back(low_key(i % 1500, (i * 37) % 5000));
    t += i % 3;
    if (i % 1000 == 999) t += 400;  // a gap past a whole cycle
    times.push_back(t);
  }
  for (const bool scalar : {false, true}) {
    const simd::ScopedForceScalar pin(scalar);
    SlidingEstimator<MaxPolicy> per_key(small, MaxPolicy{});
    SlidingEstimator<MaxPolicy> per_key_at(small, MaxPolicy{});
    SlidingEstimator<MaxPolicy> batched(small, MaxPolicy{});
    SlidingEstimator<MaxPolicy> batched_at(small, MaxPolicy{});
    SlidingEstimator<TallyPolicy> tally_per_key(small), tally_batched(small);
    SlidingEstimator<TallyPolicy> tally_per_key_at(small),
        tally_batched_at(small);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      per_key.insert(keys[i]);
      per_key_at.insert_at(keys[i], times[i]);
      tally_per_key.insert(keys[i]);
      tally_per_key_at.insert_at(keys[i], times[i]);
    }
    for (std::size_t i = 0; i < keys.size(); i += 97) {
      const std::size_t n = std::min<std::size_t>(97, keys.size() - i);
      const std::span<const std::uint64_t> k(keys.data() + i, n);
      const std::span<const std::uint64_t> t(times.data() + i, n);
      batched.insert_batch(k);
      batched_at.insert_at_batch(k, t);
      tally_batched.insert_batch(k);
      tally_batched_at.insert_at_batch(k, t);
    }
    expect_same_cells(per_key, batched, scalar);
    expect_same_cells(per_key_at, batched_at, scalar);
    expect_same_tallies(tally_per_key, tally_batched, scalar);
    expect_same_tallies(tally_per_key_at, tally_batched_at, scalar);
  }
}

TEST(Csm, ClearResets) {
  SheConfig cfg = cfg_of(100, 1024, 64, 1.0);
  SlidingEstimator<BloomPolicy> est(cfg, BloomPolicy{4, 0});
  est.insert(42);
  est.clear();
  EXPECT_EQ(est.time(), 0u);
}

TEST(Csm, MemoryModelCountsPolicyBits) {
  SheConfig cfg = cfg_of(100, 1024, 64, 1.0);
  SlidingEstimator<BloomPolicy> bf(cfg, BloomPolicy{4, 0});
  // 1024 1-bit cells = 128 B + 16 marks.
  EXPECT_LE(bf.memory_bytes(), 128u + 8u + 8u);
  SlidingEstimator<CountMinPolicy> cm(cfg, CountMinPolicy{4, 0});
  EXPECT_GE(cm.memory_bytes(), 4096u);
}

}  // namespace
}  // namespace she::csm
