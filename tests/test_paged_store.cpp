// Copy-on-write cell pages (common/paged_array.hpp): a copy of an
// estimator shares its cell frames, and the writer clones a frame on its
// first write after the copy.  Publishing a view is exactly such a copy, so
// every test here checks the two sides of that contract:
//
//   * a copy's save() bytes stay frozen while its source keeps inserting;
//   * the source's bytes equal those of a twin that was never copied;
//
// for each of the five estimators and for StreamMonitor, natively and with
// the SIMD kernels forced scalar.  The frame pool is checked too: frames
// drawn by a lineage of estimators and views all come back, and frames
// that stay free a whole trim interval go back to the kernel.
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/io.hpp"
#include "common/packed_array.hpp"
#include "common/paged_array.hpp"
#include "common/simd.hpp"
#include "she/monitor.hpp"
#include "she/she.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she {
namespace {

template <typename T>
std::string bytes_of(const T& x) {
  std::vector<char> buf;
  BinaryWriter w(buf);
  x.save(w);
  return std::string(buf.begin(), buf.end());
}

/// Keys with repeats, so counters and ranks move more than once.
std::vector<std::uint64_t> keys(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> out = stream::distinct_trace(n, seed);
  for (std::uint64_t& k : out) k %= 1500;
  return out;
}

/// Feed `ks` alternating per-key inserts and batches of uneven size, so
/// both write paths (and the block pipeline's tail) run after a copy.
template <typename T>
void feed(T& est, const std::vector<std::uint64_t>& ks) {
  std::size_t i = 0;
  for (std::size_t round = 0; i < ks.size(); ++round) {
    if (round % 3 == 0) {
      est.insert(ks[i++]);
      continue;
    }
    const std::size_t n = std::min<std::size_t>(37 + round % 50, ks.size() - i);
    est.insert_batch(std::span<const std::uint64_t>(ks.data() + i, n));
    i += n;
  }
}

SheConfig base_config(std::size_t cells, std::size_t group_cells) {
  SheConfig cfg;
  cfg.window = 1000;  // short, so groups are cleaned after each copy too
  cfg.cells = cells;
  cfg.group_cells = group_cells;
  cfg.alpha = 1.0;
  cfg.seed = 7;
  return cfg;
}

// Each case builds one estimator spanning several 4 KiB frames.
struct BloomCase {
  static SheBloomFilter make() {
    return SheBloomFilter(base_config(1u << 17, 64), 4);  // 4 frames
  }
  static constexpr std::size_t kKeys = 6000;
};
struct BitmapCase {
  static SheBitmap make() { return SheBitmap(base_config(1u << 17, 64)); }
  static constexpr std::size_t kKeys = 6000;
};
struct HllCase {
  static SheHyperLogLog make() {
    return SheHyperLogLog(base_config(1u << 14, 1));  // 3 frames
  }
  static constexpr std::size_t kKeys = 6000;
};
struct CountMinCase {
  static SheCountMin make() { return SheCountMin(base_config(1u << 13, 64), 4); }
  static constexpr std::size_t kKeys = 6000;
};
struct MinHashCase {
  static SheMinHash make() { return SheMinHash(base_config(2048, 1)); }
  static constexpr std::size_t kKeys = 1500;  // every key probes every slot
};
struct MonitorCase {
  static StreamMonitor make() {
    MonitorConfig mc;
    mc.window = 2000;
    mc.memory_bytes = 256u << 10;
    mc.track_similarity = true;
    mc.similarity_slots = 1024;
    mc.seed = 3;
    return StreamMonitor(mc);
  }
  static constexpr std::size_t kKeys = 6000;
};
struct MonitorHllCase {
  static StreamMonitor make() {
    MonitorConfig mc;
    mc.window = 2000;
    mc.memory_bytes = 256u << 10;
    mc.use_hll = true;
    mc.seed = 5;
    return StreamMonitor(mc);
  }
  static constexpr std::size_t kKeys = 6000;
};

template <typename Case>
class PagedStoreTest : public ::testing::Test {};
using Cases = ::testing::Types<BloomCase, BitmapCase, HllCase, CountMinCase,
                               MinHashCase, MonitorCase, MonitorHllCase>;
TYPED_TEST_SUITE(PagedStoreTest, Cases);

TYPED_TEST(PagedStoreTest, PublishedCopiesStayFrozen) {
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "forced scalar" : "native");
    const simd::ScopedForceScalar force(scalar);
    auto src = TypeParam::make();
    auto twin = TypeParam::make();
    const std::vector<std::uint64_t> ks = keys(TypeParam::kKeys, 11);
    // A copy after every chunk, as the ingest runtime publishes a view.
    using T = decltype(src);
    std::vector<std::pair<T, std::string>> copies;
    constexpr std::size_t kEvery = 97;
    for (std::size_t i = 0; i < ks.size(); i += kEvery) {
      const std::vector<std::uint64_t> chunk(
          ks.begin() + static_cast<std::ptrdiff_t>(i),
          ks.begin() + static_cast<std::ptrdiff_t>(std::min(i + kEvery, ks.size())));
      feed(src, chunk);
      feed(twin, chunk);
      copies.emplace_back(src, bytes_of(src));
    }
    for (std::size_t c = 0; c < copies.size(); ++c)
      ASSERT_EQ(bytes_of(copies[c].first), copies[c].second) << "copy " << c;
    EXPECT_EQ(bytes_of(src), bytes_of(twin));
  }
}

TYPED_TEST(PagedStoreTest, CopyOfACopyAndCopyAssignment) {
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "forced scalar" : "native");
    const simd::ScopedForceScalar force(scalar);
    const std::size_t n = TypeParam::kKeys / 4;
    auto src = TypeParam::make();
    auto twin_src = TypeParam::make();
    auto twin_c1 = TypeParam::make();
    const std::vector<std::uint64_t> a = keys(n, 1), b = keys(n, 2),
                                     c = keys(n, 3), d = keys(n, 4);
    feed(src, a);
    feed(twin_src, a);
    feed(twin_c1, a);

    auto c1 = src;  // a copy that goes on writing
    auto c2 = c1;   // a copy of a copy
    const std::string frozen = bytes_of(c2);
    feed(c1, b);
    feed(twin_c1, b);
    feed(src, c);
    feed(twin_src, c);
    EXPECT_EQ(bytes_of(c2), frozen);
    EXPECT_EQ(bytes_of(c1), bytes_of(twin_c1));
    EXPECT_EQ(bytes_of(src), bytes_of(twin_src));

    // Assignment drops the target's own frames and shares the source's.
    auto assigned = TypeParam::make();
    feed(assigned, d);
    assigned = src;
    const std::string at_assign = bytes_of(src);
    EXPECT_EQ(bytes_of(assigned), at_assign);
    feed(src, d);
    feed(twin_src, d);
    EXPECT_EQ(bytes_of(assigned), at_assign);
    EXPECT_EQ(bytes_of(src), bytes_of(twin_src));
    feed(assigned, b);
    auto twin_assigned = TypeParam::make();
    feed(twin_assigned, a);
    feed(twin_assigned, c);
    feed(twin_assigned, b);
    EXPECT_EQ(bytes_of(assigned), bytes_of(twin_assigned));
    EXPECT_EQ(bytes_of(c2), frozen);
  }
}

TYPED_TEST(PagedStoreTest, ClearAfterACopy) {
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "forced scalar" : "native");
    const simd::ScopedForceScalar force(scalar);
    const std::size_t n = TypeParam::kKeys / 3;
    auto src = TypeParam::make();
    feed(src, keys(n, 5));
    const auto copy = src;
    const std::string frozen = bytes_of(copy);
    src.clear();
    EXPECT_EQ(bytes_of(src), bytes_of(TypeParam::make()));
    EXPECT_EQ(bytes_of(copy), frozen);
    auto fresh = TypeParam::make();
    feed(src, keys(n, 6));
    feed(fresh, keys(n, 6));
    EXPECT_EQ(bytes_of(src), bytes_of(fresh));
    EXPECT_EQ(bytes_of(copy), frozen);
  }
}

// SHE-HLL's 5-bit register 6553 holds bits 32765..32769: its low three bits
// end the first 4 KiB frame and its high two start the second.
TEST(PagedStore, HllRegisterStraddlingAFrameBoundary) {
  constexpr std::size_t kStraddle = 6553;
  static_assert(kStraddle * 5 < 4096 * 8 && kStraddle * 5 + 5 > 4096 * 8);
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "forced scalar" : "native");
    const simd::ScopedForceScalar force(scalar);
    SheHyperLogLog src = HllCase::make();
    SheHyperLogLog twin = HllCase::make();
    std::vector<std::uint64_t> hits;
    for (std::uint64_t k = 0; hits.size() < 24; ++k)
      if (src.position(k, 0) == kStraddle) hits.push_back(k);
    const std::vector<std::uint64_t> warm = keys(500, 9);
    feed(src, warm);
    feed(twin, warm);
    const SheHyperLogLog copy = src;
    const std::string frozen = bytes_of(copy);
    const std::uint32_t before = src.view(kStraddle).value;
    // Per-key and batched writes to the straddling register, each right
    // after a fresh copy, so the write clones both of its frames.
    const BobHash32 rank_hash(src.config().seed + csm::HllPolicy::kRankSeed);
    std::vector<SheHyperLogLog> views;
    std::uint32_t best = before;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      views.push_back(src);
      if (i % 2 == 0) {
        src.insert(hits[i]);
        twin.insert(hits[i]);
      } else {
        src.insert_batch(std::span<const std::uint64_t>(&hits[i], 1));
        twin.insert_batch(std::span<const std::uint64_t>(&hits[i], 1));
      }
      best = std::max(best, csm::HllPolicy::rank_of(rank_hash(hits[i])));
    }
    EXPECT_GT(best, before);
    EXPECT_EQ(bytes_of(copy), frozen);
    EXPECT_EQ(bytes_of(src), bytes_of(twin));
    EXPECT_EQ(src.view(kStraddle).value, best);
    EXPECT_EQ(copy.view(kStraddle).value, before);
  }
}

// The packed store against the flat PackedArray it replaced, cell by cell
// and byte for byte, around both frame boundaries of a 3-frame array.
TEST(PagedStore, PackedCellsMatchTheFlatLayout) {
  constexpr std::size_t kCells = 1u << 14;
  csm::PackedStore<std::uint8_t, 5> store(kCells, 0);
  PackedArray flat(kCells, 5);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t round = 0; round < 4; ++round) {
    const csm::PackedStore<std::uint8_t, 5> shared = store;  // all frames shared
    const std::string frozen = bytes_of(shared);
    for (std::size_t i = 6540; i < 6570; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const auto v = static_cast<std::uint8_t>((x >> 59) & 31);
      for (const std::size_t cell : {i, i + 6554}) {
        store.own(cell);
        store.update(cell, [v](std::uint8_t) { return v; });
        flat.set(cell, v);
      }
    }
    for (std::size_t i = 0; i < kCells; ++i)
      ASSERT_EQ(store.get(i), flat.get(i)) << "cell " << i;
    EXPECT_EQ(bytes_of(store), bytes_of(flat));
    EXPECT_EQ(bytes_of(shared), frozen);
  }
}

// Every frame a lineage of estimators and views draws goes back to the
// pool when the last of them dies, and a create/drop loop reuses frames
// instead of carving new ones.
TEST(PagedStore, FramePoolAccounting) {
  const auto in_use = [] {
    const frames::PoolStats s = frames::pool_stats();
    return s.frames - s.free - s.released;
  };
  const std::size_t baseline = in_use();
  std::size_t carved = 0;
  for (int round = 0; round < 12; ++round) {
    {
      StreamMonitor live = MonitorCase::make();
      std::vector<std::shared_ptr<const StreamMonitor>> views;
      const std::vector<std::uint64_t> ks = keys(3000, 20);
      for (std::size_t i = 0; i < ks.size(); i += 256) {
        live.insert_batch(std::span<const std::uint64_t>(
            ks.data() + i, std::min<std::size_t>(256, ks.size() - i)));
        views.push_back(std::make_shared<const StreamMonitor>(live));
        if (views.size() > 3) views.erase(views.begin());
      }
      StreamMonitor snapshot = *views.back();  // a copy that writes
      snapshot.insert(42);
      EXPECT_GT(in_use(), baseline);
    }
    EXPECT_EQ(in_use(), baseline) << "round " << round;
    if (round == 1) carved = frames::pool_stats().frames;
    if (round > 1) {
      EXPECT_EQ(frames::pool_stats().frames, carved) << "round " << round;
    }
    // Odd rounds start from released frames only: reusing them carves
    // nothing either.
    if (round % 2 == 0) {
      frames::trim();
      frames::trim();
    }
  }
}

// Whether the page holding `p` is resident.
bool resident(const void* p) {
  unsigned char vec = 0;
  EXPECT_EQ(::mincore(const_cast<void*>(p), frames::kBytes, &vec), 0);
  return (vec & 1) != 0;
}

// Leave the pool with released frames only (a few at least): the first
// trim ends an interval, so the second finds every free frame cold.
void release_all_free() {
  std::vector<frames::Frame*> some(8);
  for (frames::Frame*& f : some) f = frames::acquire();
  for (frames::Frame* f : some) frames::release(f);
  frames::trim();
  frames::trim();
  ASSERT_EQ(frames::pool_stats().free, 0u);
}

bool releases_frames() { return ::sysconf(_SC_PAGESIZE) == 4096; }

// A frame that stays free through one whole trim interval goes back to the
// kernel; the trim that ends the interval it was recycled in keeps it.
TEST(FramePool, TrimReleasesFramesFreeForAWholeInterval) {
  if (!releases_frames()) GTEST_SKIP() << "pages are not 4 KiB";
  frames::Frame* f = frames::acquire();
  std::memset(f->bytes, 0xab, frames::kBytes);
  frames::release(f);
  ASSERT_TRUE(resident(f->bytes));
  frames::trim();  // f was acquired in this interval
  EXPECT_TRUE(resident(f->bytes));
  const std::size_t released = frames::pool_stats().released;
  EXPECT_GT(frames::trim(), 0u);  // f sat free through the whole interval
  EXPECT_FALSE(resident(f->bytes));
  EXPECT_GT(frames::pool_stats().released, released);
}

// A frame acquired during the interval is not released, and it is the
// next frame handed out.
TEST(FramePool, TrimKeepsFramesUsedInTheInterval) {
  if (!releases_frames()) GTEST_SKIP() << "pages are not 4 KiB";
  release_all_free();
  frames::Frame* f = frames::acquire();  // a released frame, faulted back in
  std::memset(f->bytes, 0xcd, frames::kBytes);
  frames::release(f);
  EXPECT_EQ(frames::trim(), 0u);
  EXPECT_TRUE(resident(f->bytes));
  frames::Frame* again = frames::acquire();
  EXPECT_EQ(again, f);
  EXPECT_EQ(again->bytes[frames::kBytes - 1], std::byte{0xcd});
  frames::release(again);
}

// Released frames are handed out again once no resident frame is left:
// building an array and cloning a shared frame both draw them, and every
// element reads back.
TEST(FramePool, ReleasedFramesCloneAndReadBack) {
  if (!releases_frames()) GTEST_SKIP() << "pages are not 4 KiB";
  release_all_free();
  const std::size_t released = frames::pool_stats().released;
  ASSERT_GE(released, 4u);
  using Array = PagedArray<std::uint32_t>;
  constexpr std::size_t kN = 3 * Array::kPerFrame;
  Array a(kN, 7);
  for (std::size_t i = 0; i < kN; i += 5) a.at(i) = static_cast<std::uint32_t>(i);
  Array b = a;
  b.own(Array::kPerFrame + 1);  // clones the middle frame
  b.at(Array::kPerFrame + 1) = 99;
  EXPECT_EQ(frames::pool_stats().released, released - 4);
  for (std::size_t i = 0; i < kN; ++i) {
    const std::uint32_t want = i % 5 == 0 ? static_cast<std::uint32_t>(i) : 7;
    ASSERT_EQ(a.get(i), want) << i;
    ASSERT_EQ(b.get(i), i == Array::kPerFrame + 1 ? 99u : want) << i;
  }
}

}  // namespace
}  // namespace she
