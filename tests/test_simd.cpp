// Differential SIMD-vs-scalar equivalence (docs/INTERNALS.md §13).
//
// Every estimator has one batch body, the block stage; SHE_FORCE_SCALAR
// (ScopedForceScalar here) only picks the scalar tails of its kernels.
// The vector lanes must be *bit-identical* to those tails, not merely
// statistically close: SHE's accuracy claims ride on the exact BobHash32
// family and the exact CheckGroup ordering.  (The per-key methods are the
// reference both dispatch outcomes answer to; tests/test_batch.cpp holds
// the batch calls to them.)  Three layers are pinned here:
//
//   1. kernels — simd::bobhash32_keys / bobhash32_seeds / hash64_keys lane
//      outputs equal the scalar hashes for every count (covering full
//      vectors plus misaligned tails), and FastDiv32 equals / and % for
//      adversarial divisors;
//   2. GroupClock staging — stage_marks / stage_marks_range /
//      stage_marks_ramp reproduce current_mark()/age() across cycle
//      boundaries and mark widths;
//   3. estimators — every SHE estimator inserted under native dispatch
//      serializes byte-identically to the same stream inserted under
//      SHE_FORCE_SCALAR (ScopedForceScalar), for insert_batch and
//      insert_at_batch, across chunk sizes that misalign every block.
//
// On hardware without a vector backend both sides run scalar and the suite
// degrades to a (still valid) self-consistency check.
#include <vector>

#include "common/bobhash.hpp"
#include "common/int_math.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/simd_hash.hpp"
#include "she/she.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she {
namespace {

template <typename T>
std::string serialized(const T& est) {
  std::vector<char> buf;
  BinaryWriter w(buf);
  est.save(w);
  return std::string(buf.begin(), buf.end());
}

// ----------------------------------------------------------------- kernels --

TEST(SimdKernels, Bobhash32KeysMatchesScalar) {
  Rng rng(1);
  for (std::size_t n = 0; n <= 40; ++n) {  // tails: every residue mod 8
    std::vector<std::uint64_t> keys(n);
    for (auto& k : keys) k = rng();
    const std::uint32_t seed = static_cast<std::uint32_t>(rng());
    std::vector<std::uint32_t> native(n), scalar(n);
    simd::bobhash32_keys(keys.data(), n, seed, native.data());
    {
      const simd::ScopedForceScalar pin;
      simd::bobhash32_keys(keys.data(), n, seed, scalar.data());
    }
    const BobHash32 ref(seed);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(native[i], ref(keys[i])) << "n=" << n << " i=" << i;
      ASSERT_EQ(scalar[i], ref(keys[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdKernels, Bobhash32SeedsMatchesScalar) {
  Rng rng(2);
  for (std::size_t n = 0; n <= 40; ++n) {
    const std::uint64_t key = rng();
    const std::uint32_t seed0 = static_cast<std::uint32_t>(rng());
    std::vector<std::uint32_t> native(n), scalar(n);
    simd::bobhash32_seeds(key, seed0, n, native.data());
    {
      const simd::ScopedForceScalar pin;
      simd::bobhash32_seeds(key, seed0, n, scalar.data());
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t ref =
          BobHash32(seed0 + static_cast<std::uint32_t>(i))(key);
      ASSERT_EQ(native[i], ref) << "n=" << n << " i=" << i;
      ASSERT_EQ(scalar[i], ref) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdKernels, Bobhash32KeysMultiMatchesScalar) {
  // The fused key-major kernel: out[b * k + h] == BobHash32(seed0 + h)(keys[b])
  // for every key count (tail residues) and probe count the estimators use.
  Rng rng(12);
  for (unsigned k : {1u, 3u, 8u, 11u, 16u}) {
    for (std::size_t n = 0; n <= 40; ++n) {
      std::vector<std::uint64_t> keys(n);
      for (auto& key : keys) key = rng();
      const std::uint32_t seed0 = static_cast<std::uint32_t>(rng());
      std::vector<std::uint32_t> native(n * k), scalar(n * k);
      simd::bobhash32_keys_multi(keys.data(), n, seed0, k, native.data());
      {
        const simd::ScopedForceScalar pin;
        simd::bobhash32_keys_multi(keys.data(), n, seed0, k, scalar.data());
      }
      for (std::size_t b = 0; b < n; ++b) {
        for (unsigned h = 0; h < k; ++h) {
          const std::uint32_t ref = BobHash32(seed0 + h)(keys[b]);
          ASSERT_EQ(native[b * k + h], ref) << "k=" << k << " b=" << b;
          ASSERT_EQ(scalar[b * k + h], ref) << "k=" << k << " b=" << b;
        }
      }
    }
  }
}

TEST(SimdKernels, Hash64KeysMatchesScalar) {
  Rng rng(3);
  for (std::size_t n = 0; n <= 20; ++n) {  // tails: every residue mod 4
    std::vector<std::uint64_t> keys(n);
    for (auto& k : keys) k = rng();
    const std::uint64_t seed = rng();
    std::vector<std::uint64_t> native(n), scalar(n);
    simd::hash64_keys(keys.data(), n, seed, native.data());
    {
      const simd::ScopedForceScalar pin;
      simd::hash64_keys(keys.data(), n, seed, scalar.data());
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(native[i], hash64(keys[i], seed)) << "n=" << n << " i=" << i;
      ASSERT_EQ(scalar[i], hash64(keys[i], seed)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdKernels, FastDiv32MatchesHardwareDivide) {
  // Adversarial divisors: 1, powers of two (and neighbours), primes, and
  // the extremes of the 32-bit range; numerators sweep the same corners
  // plus random draws.  The Lemire reciprocal is exact for all u32 n, d.
  const std::uint32_t divisors[] = {1u,       2u,          3u,
                                    7u,       64u,         65u,
                                    1000u,    4093u,       (1u << 16) - 1,
                                    1u << 16, (1u << 16) + 1, 0x7FFFFFFFu,
                                    0x80000000u, 0xFFFFFFFFu};
  const std::uint32_t corners[] = {0u, 1u, 2u, 0x7FFFFFFFu, 0x80000000u,
                                   0xFFFFFFFEu, 0xFFFFFFFFu};
  Rng rng(4);
  for (std::uint32_t d : divisors) {
    const FastDiv32 fd(d);
    for (std::uint32_t n : corners) {
      ASSERT_EQ(fd.div(n), n / d) << "n=" << n << " d=" << d;
      ASSERT_EQ(fd.mod(n), n % d) << "n=" << n << " d=" << d;
    }
    for (int i = 0; i < 10000; ++i) {
      const std::uint32_t n = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(fd.div(n), n / d) << "n=" << n << " d=" << d;
      ASSERT_EQ(fd.mod(n), n % d) << "n=" << n << " d=" << d;
    }
  }
}

TEST(SimdKernels, PositionsGroupsMatchesHardwareDivide) {
  // The fused hash -> cell -> group kernel against plain % and /, across
  // misaligned lengths, a unit group width (the HLL shape, where gid must
  // copy pos), and cell counts around power-of-two corners.
  const std::uint32_t cell_counts[] = {2u,          64u,      1009u,
                                       (1u << 20) - 1, 1u << 20, 0xFFFFFFFFu};
  const std::uint32_t group_widths[] = {1u, 2u, 64u, 1000u};
  Rng rng(11);
  for (std::uint32_t cells : cell_counts) {
    for (std::uint32_t w : group_widths) {
      const FastDiv32 mod_cells(cells);
      const FastDiv32 div_group(w);
      for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{8}, std::size_t{9}, std::size_t{32},
                            std::size_t{40}}) {
        std::vector<std::uint32_t> h(n), pos(n, 0xAAu), gid(n, 0xAAu);
        for (auto& v : h) v = static_cast<std::uint32_t>(rng());
        simd::positions_groups(h.data(), n, mod_cells, div_group, pos.data(),
                               gid.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(pos[i], h[i] % cells)
              << "cells=" << cells << " w=" << w << " i=" << i;
          ASSERT_EQ(gid[i], pos[i] / w)
              << "cells=" << cells << " w=" << w << " i=" << i;
        }
        const simd::ScopedForceScalar scalar_only;
        std::vector<std::uint32_t> pos2(n), gid2(n);
        simd::positions_groups(h.data(), n, mod_cells, div_group, pos2.data(),
                               gid2.data());
        ASSERT_EQ(pos, pos2);
        ASSERT_EQ(gid, gid2);
      }
    }
  }
}

// --------------------------------------------------------- GroupClock staging --

TEST(SimdGroupClock, StagedMarksMatchScalarQueries) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t groups = 1 + rng.below(300);
    const std::uint64_t window = 8 + rng.below(500);
    const double alpha = 0.1 + rng.uniform() * 3.0;
    const unsigned mark_bits = 1 + static_cast<unsigned>(rng.below(4));
    GroupClock clock(groups,
                     static_cast<std::uint64_t>(
                         static_cast<double>(window) * (1.0 + alpha)),
                     mark_bits);
    // Touch a few groups at scattered times so stored marks differ.
    std::uint64_t t = 0;
    for (int i = 0; i < 50; ++i) {
      t += 1 + rng.below(window);
      clock.touch(rng.below(groups), t);
    }
    // Staged values must equal the scalar per-group queries at several
    // probe times, including exact cycle boundaries.
    const std::uint64_t probes[] = {t, t + 1, t + clock.tcycle() - 1,
                                    t + clock.tcycle(),
                                    t + 3 * clock.tcycle() + rng.below(7)};
    std::vector<std::uint32_t> gids(groups);
    for (std::size_t g = 0; g < groups; ++g)
      gids[g] = static_cast<std::uint32_t>(rng.below(groups));
    std::vector<std::uint32_t> curs(groups);
    std::vector<std::uint64_t> ages(groups);
    for (std::uint64_t pt : probes) {
      const GroupClock::TimeParts p = clock.split(pt);
      clock.stage_marks(gids.data(), groups, p, curs.data(), ages.data());
      for (std::size_t i = 0; i < groups; ++i) {
        ASSERT_EQ(curs[i], clock.current_mark_at(p, gids[i]));
        ASSERT_EQ(ages[i], clock.age(gids[i], pt));
      }
      clock.stage_marks_range(0, groups, p, curs.data(), ages.data());
      for (std::size_t g = 0; g < groups; ++g) {
        ASSERT_EQ(curs[g], clock.current_mark_at(p, g));
        ASSERT_EQ(ages[g], clock.age(g, pt));
      }
      // Ramp kernel: one key per tick, valid while the block stays inside
      // the cycle (the MarkStager precondition).
      const std::int64_t room =
          static_cast<std::int64_t>(clock.tcycle()) - p.rem;
      const std::size_t n = std::min<std::size_t>(
          groups, room > 0 ? static_cast<std::size_t>(room) : 0);
      if (n > 0) {
        clock.stage_marks_ramp(gids.data(), n, p, curs.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(curs[i], clock.current_mark(gids[i], pt + i))
              << "ramp lane " << i << " at t=" << pt;
        }
        // Rep kernel: k probes per key, key b at time pt + b — the fused
        // insert shape.  Same in-cycle precondition, over keys.
        for (unsigned k : {1u, 3u, 8u}) {
          std::vector<std::uint32_t> rep_gids(n * k), rep_curs(n * k);
          for (auto& g : rep_gids)
            g = static_cast<std::uint32_t>(rng.below(groups));
          clock.stage_marks_rep(rep_gids.data(), n, k, p, rep_curs.data());
          for (std::size_t b = 0; b < n; ++b) {
            for (unsigned h = 0; h < k; ++h) {
              ASSERT_EQ(rep_curs[b * k + h],
                        clock.current_mark(rep_gids[b * k + h], pt + b))
                  << "rep key " << b << " probe " << h << " at t=" << pt;
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------- estimators --

/// Insert the same trace through `make()` twice — native dispatch vs
/// forced scalar — in `chunk`-sized insert_batch calls, and require
/// byte-identical serialized state.
template <typename Make>
void expect_batch_paths_identical(Make&& make, const stream::Trace& trace,
                                  std::size_t chunk) {
  auto native = make();
  auto scalar = make();
  std::size_t i = 0;
  while (i < trace.size()) {
    const std::size_t n = std::min(chunk, trace.size() - i);
    const std::span<const std::uint64_t> span(trace.data() + i, n);
    native.insert_batch(span);
    {
      const simd::ScopedForceScalar pin;
      scalar.insert_batch(span);
    }
    i += n;
  }
  ASSERT_EQ(serialized(native), serialized(scalar)) << "chunk=" << chunk;
}

/// Same, for insert_at_batch with clustered (repeating + jumping)
/// timestamps that force both the ramp fallback and advance() staging.
template <typename Make>
void expect_at_batch_paths_identical(Make&& make, const stream::Trace& trace,
                                     std::size_t chunk, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> times(trace.size());
  std::uint64_t t = 0;
  for (auto& ti : times) {
    if (rng.below(4) == 0) t += rng.below(50);  // bursts + gaps
    ti = t;
  }
  auto native = make();
  auto scalar = make();
  std::size_t i = 0;
  while (i < trace.size()) {
    const std::size_t n = std::min(chunk, trace.size() - i);
    const std::span<const std::uint64_t> keys(trace.data() + i, n);
    const std::span<const std::uint64_t> ts(times.data() + i, n);
    native.insert_at_batch(keys, ts);
    {
      const simd::ScopedForceScalar pin;
      scalar.insert_at_batch(keys, ts);
    }
    i += n;
  }
  ASSERT_EQ(serialized(native), serialized(scalar)) << "chunk=" << chunk;
}

/// Chunks that cover sub-block tails, primes misaligning every 8-lane
/// sweep, exact block multiples, and one whole-trace call.
const std::size_t kChunks[] = {1, 5, 8, 13, 32, 57, 256, 100000};

stream::Trace zipf(std::uint64_t seed, std::uint64_t len,
                   std::uint64_t universe) {
  stream::ZipfTraceConfig tc;
  tc.length = len;
  tc.universe = universe;
  tc.skew = 0.9;
  tc.seed = seed;
  return stream::zipf_trace(tc);
}

TEST(SimdDifferential, BloomBatchPaths) {
  // k > 1 probes per key exercises the hash-major sweep and the slot
  // budget; the adversarial trial uses 1-bit marks, a partial last group
  // and a tiny window so lazy cleans fire inside blocks (ramp fallback).
  for (int trial = 0; trial < 4; ++trial) {
    SheConfig cfg;
    const bool adversarial = trial % 2 == 1;
    cfg.window = adversarial ? 48 : 1 << 12;
    cfg.cells = adversarial ? 1009 : 1 << 14;
    cfg.group_cells = adversarial ? 16 : 64;
    cfg.alpha = adversarial ? 0.25 : 3.0;
    cfg.mark_bits = adversarial ? 1 : 4;
    cfg.seed = 77 + static_cast<std::uint32_t>(trial);
    const unsigned hashes = trial < 2 ? 8 : 11;  // 11: tail inside each key
    const auto trace = zipf(90 + trial, 4 * cfg.window, 3 * cfg.window);
    for (std::size_t chunk : kChunks) {
      expect_batch_paths_identical(
          [&] { return SheBloomFilter(cfg, hashes); }, trace, chunk);
      expect_at_batch_paths_identical(
          [&] { return SheBloomFilter(cfg, hashes); }, trace, chunk,
          1000 + trial);
    }
  }
}

TEST(SimdDifferential, BloomQueryPaths) {
  SheConfig cfg;
  cfg.window = 1 << 10;
  cfg.cells = 1 << 14;
  cfg.group_cells = 64;
  cfg.alpha = 3.0;
  cfg.seed = 11;
  SheBloomFilter bf(cfg, 8);
  const auto trace = zipf(17, 3 * cfg.window, 2 * cfg.window);
  bf.insert_batch(std::span<const std::uint64_t>(trace.data(), trace.size()));
  for (std::size_t n : {std::size_t{1}, std::size_t{13}, std::size_t{300}}) {
    std::vector<std::uint8_t> native(n), scalar(n);
    const std::span<const std::uint64_t> probes(trace.data(), n);
    bf.contains_batch(probes, std::span<std::uint8_t>(native));
    {
      const simd::ScopedForceScalar pin;
      bf.contains_batch(probes, std::span<std::uint8_t>(scalar));
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(native[i], scalar[i]) << "n=" << n << " i=" << i;
      ASSERT_EQ(native[i] != 0, bf.contains(probes[i])) << "i=" << i;
    }
  }
}

TEST(SimdDifferential, BitmapBatchPaths) {
  for (int trial = 0; trial < 4; ++trial) {
    SheConfig cfg;
    const bool adversarial = trial % 2 == 1;
    cfg.window = adversarial ? 48 : 1 << 12;
    cfg.cells = adversarial ? 1013 : 1 << 14;
    cfg.group_cells = adversarial ? 16 : 64;
    cfg.alpha = 0.2;
    cfg.mark_bits = adversarial ? 1 : 4;
    cfg.seed = 177 + static_cast<std::uint32_t>(trial);
    const auto trace = zipf(190 + trial, 4 * cfg.window, 3 * cfg.window);
    for (std::size_t chunk : kChunks) {
      expect_batch_paths_identical([&] { return SheBitmap(cfg); }, trace,
                                   chunk);
      expect_at_batch_paths_identical([&] { return SheBitmap(cfg); }, trace,
                                      chunk, 2000 + trial);
    }
  }
}

TEST(SimdDifferential, HllBatchPaths) {
  for (int trial = 0; trial < 4; ++trial) {
    SheConfig cfg;
    const bool adversarial = trial % 2 == 1;
    cfg.window = adversarial ? 48 : 1 << 12;
    cfg.cells = adversarial ? 997 : 2048;
    cfg.group_cells = 1;
    cfg.alpha = 0.2;
    cfg.mark_bits = adversarial ? 1 : 4;
    cfg.seed = 277 + static_cast<std::uint32_t>(trial);
    const auto trace = zipf(290 + trial, 4 * cfg.window, 3 * cfg.window);
    for (std::size_t chunk : kChunks) {
      expect_batch_paths_identical([&] { return SheHyperLogLog(cfg); }, trace,
                                   chunk);
      expect_at_batch_paths_identical([&] { return SheHyperLogLog(cfg); },
                                      trace, chunk, 3000 + trial);
    }
  }
}

TEST(SimdDifferential, CountMinBatchPaths) {
  for (int trial = 0; trial < 4; ++trial) {
    SheConfig cfg;
    const bool adversarial = trial % 2 == 1;
    cfg.window = adversarial ? 48 : 1 << 12;
    cfg.cells = adversarial ? 1019 : 1 << 14;
    cfg.group_cells = adversarial ? 16 : 64;
    cfg.alpha = 1.0;
    cfg.mark_bits = adversarial ? 1 : 4;
    cfg.seed = 377 + static_cast<std::uint32_t>(trial);
    const unsigned hashes = trial < 2 ? 8 : 5;
    const auto trace = zipf(390 + trial, 4 * cfg.window, 3 * cfg.window);
    for (std::size_t chunk : kChunks) {
      expect_batch_paths_identical([&] { return SheCountMin(cfg, hashes); },
                                   trace, chunk);
      expect_at_batch_paths_identical([&] { return SheCountMin(cfg, hashes); },
                                      trace, chunk, 4000 + trial);
    }
  }
}

TEST(SimdDifferential, CountMinQueryPaths) {
  SheConfig cfg;
  cfg.window = 1 << 10;
  cfg.cells = 1 << 14;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  cfg.seed = 13;
  SheCountMin cm(cfg, 8);
  const auto trace = zipf(19, 3 * cfg.window, 2 * cfg.window);
  cm.insert_batch(std::span<const std::uint64_t>(trace.data(), trace.size()));
  for (std::size_t n : {std::size_t{1}, std::size_t{13}, std::size_t{300}}) {
    std::vector<std::uint64_t> native(n), scalar(n);
    const std::span<const std::uint64_t> probes(trace.data(), n);
    cm.frequency_batch(probes, std::span<std::uint64_t>(native));
    {
      const simd::ScopedForceScalar pin;
      cm.frequency_batch(probes, std::span<std::uint64_t>(scalar));
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(native[i], scalar[i]) << "n=" << n << " i=" << i;
      ASSERT_EQ(native[i], cm.frequency(probes[i])) << "i=" << i;
    }
  }
}

TEST(SimdDifferential, MinHashBatchPaths) {
  // K = m slots per key: the slot budget drops the block to a few keys and
  // every insert sweeps the whole signature (seed-axis SIMD sweep).
  for (int trial = 0; trial < 4; ++trial) {
    SheConfig cfg;
    const bool adversarial = trial % 2 == 1;
    cfg.window = adversarial ? 48 : 1 << 10;
    cfg.cells = trial < 2 ? 64 : 37;  // 37: tail inside every seed sweep
    cfg.group_cells = 1;
    cfg.alpha = 0.2;
    cfg.mark_bits = adversarial ? 1 : 4;
    cfg.seed = 477 + static_cast<std::uint32_t>(trial);
    const auto trace = zipf(490 + trial, 4 * cfg.window, 3 * cfg.window);
    for (std::size_t chunk : kChunks) {
      expect_batch_paths_identical([&] { return SheMinHash(cfg); }, trace,
                                   chunk);
      expect_at_batch_paths_identical([&] { return SheMinHash(cfg); }, trace,
                                      chunk, 5000 + trial);
    }
  }
}

TEST(SimdDifferential, InsertAtBatchMatchesScalarInsertAt) {
  // The batched insert_at must equal the per-key insert_at loop, not just
  // the other batch path.
  SheConfig cfg;
  cfg.window = 256;
  cfg.cells = 1 << 12;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  cfg.seed = 23;
  const auto trace = zipf(29, 1024, 512);
  Rng rng(31);
  std::vector<std::uint64_t> times(trace.size());
  std::uint64_t t = 0;
  for (auto& ti : times) {
    if (rng.below(3) == 0) t += rng.below(20);
    ti = t;
  }
  SheCountMin batched(cfg, 8);
  SheCountMin scalar(cfg, 8);
  batched.insert_at_batch(
      std::span<const std::uint64_t>(trace.data(), trace.size()),
      std::span<const std::uint64_t>(times));
  for (std::size_t i = 0; i < trace.size(); ++i)
    scalar.insert_at(trace[i], times[i]);
  EXPECT_EQ(serialized(batched), serialized(scalar));
}

TEST(SimdDifferential, InsertAtBatchValidation) {
  SheConfig cfg;
  cfg.window = 64;
  cfg.cells = 1 << 10;
  cfg.group_cells = 16;
  cfg.alpha = 1.0;
  SheCountMin cm(cfg, 4);
  const std::uint64_t keys[3] = {1, 2, 3};
  const std::uint64_t short_times[2] = {1, 2};
  EXPECT_THROW(cm.insert_at_batch(std::span<const std::uint64_t>(keys),
                                  std::span<const std::uint64_t>(short_times)),
               std::invalid_argument);
  const std::uint64_t backwards[3] = {5, 4, 6};
  EXPECT_THROW(cm.insert_at_batch(std::span<const std::uint64_t>(keys),
                                  std::span<const std::uint64_t>(backwards)),
               std::invalid_argument);
  cm.advance_to(10);
  const std::uint64_t stale_start[3] = {9, 10, 11};
  EXPECT_THROW(cm.insert_at_batch(std::span<const std::uint64_t>(keys),
                                  std::span<const std::uint64_t>(stale_start)),
               std::invalid_argument);
  // A failed validation must not have advanced the clock or mutated state.
  EXPECT_EQ(cm.time(), 10u);
  const std::uint64_t ok_times[3] = {10, 12, 12};
  cm.insert_at_batch(std::span<const std::uint64_t>(keys),
                     std::span<const std::uint64_t>(ok_times));
  EXPECT_EQ(cm.time(), 12u);
}

TEST(SimdDifferential, ShardedRoutingUnchanged) {
  // insert_bulk's chunked hash64 routing must partition exactly like
  // shard_of() (scalar hash64) — verified against per-key sequential
  // routing at a non-power-of-two shard count.
  const auto trace = zipf(37, 20000, 5000);
  SheConfig cfg;
  cfg.window = 1 << 10;
  cfg.cells = 1 << 12;
  cfg.group_cells = 64;
  cfg.alpha = 3.0;
  const auto factory = [&](std::size_t) { return SheBloomFilter(cfg, 4); };
  Sharded<SheBloomFilter> bulk(5, factory);
  Sharded<SheBloomFilter> seq(5, factory);
  bulk.insert_bulk(std::span<const std::uint64_t>(trace.data(), trace.size()));
  for (std::uint64_t key : trace) seq.insert(key);
  for (std::size_t s = 0; s < 5; ++s)
    ASSERT_EQ(serialized(bulk.shard(s)), serialized(seq.shard(s))) << s;
}

}  // namespace
}  // namespace she
