// GroupClock tests — the correctness core of the hardware SHE version.
#include "she/group_clock.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/int_math.hpp"
#include "common/io.hpp"
#include "common/simd.hpp"
#include "she/config.hpp"

namespace she {
namespace {

TEST(GroupClock, RejectsBadArguments) {
  EXPECT_THROW(GroupClock(0, 100), std::invalid_argument);
  EXPECT_THROW(GroupClock(4, 0), std::invalid_argument);
  // Past 2^32 groups the two-constant offsets are no longer exact.
  EXPECT_THROW(GroupClock((std::size_t{1} << 32) + 1, 100),
               std::invalid_argument);
}

TEST(GroupClock, OffsetsEvenlySpacedAndNonPositive) {
  GroupClock c(4, 100);
  EXPECT_EQ(c.offset(0), 0);
  EXPECT_EQ(c.offset(1), -25);
  EXPECT_EQ(c.offset(2), -50);
  EXPECT_EQ(c.offset(3), -75);
}

TEST(GroupClock, AgeAlwaysInCycleRange) {
  GroupClock c(7, 113);
  for (std::uint64_t t = 0; t < 500; ++t) {
    for (std::size_t g = 0; g < 7; ++g) {
      EXPECT_LT(c.age(g, t), 113u);
    }
  }
}

TEST(GroupClock, AgeAdvancesByOnePerTickUntilWrap) {
  GroupClock c(4, 100);
  for (std::size_t g = 0; g < 4; ++g) {
    std::uint64_t prev = c.age(g, 10);
    for (std::uint64_t t = 11; t < 300; ++t) {
      std::uint64_t a = c.age(g, t);
      if (a != 0) {
        EXPECT_EQ(a, prev + 1) << "g=" << g << " t=" << t;
      }
      prev = a;
    }
  }
}

TEST(GroupClock, GroupZeroBoundariesAtCycleMultiples) {
  GroupClock c(4, 100);
  EXPECT_EQ(c.age(0, 0), 0u);
  EXPECT_EQ(c.age(0, 99), 99u);
  EXPECT_EQ(c.age(0, 100), 0u);
  EXPECT_EQ(c.age(0, 250), 50u);
}

TEST(GroupClock, MarkFlipsOncePerCycle) {
  GroupClock c(1, 50, 1);
  std::uint64_t flips = 0;
  std::uint64_t prev = c.current_mark(0, 0);
  for (std::uint64_t t = 1; t <= 500; ++t) {
    std::uint64_t m = c.current_mark(0, t);
    if (m != prev) ++flips;
    prev = m;
  }
  EXPECT_EQ(flips, 10u);  // 500 / 50
}

TEST(GroupClock, MarkBoundariesOffsetPerGroup) {
  GroupClock c(2, 100);
  // Group 1 has offset -50: its mark flips at t = 50, 150, ...
  std::uint64_t m_before = c.current_mark(1, 49);
  std::uint64_t m_after = c.current_mark(1, 50);
  EXPECT_NE(m_before, m_after);
  // Group 0 flips at t = 100.
  EXPECT_EQ(c.current_mark(0, 49), c.current_mark(0, 50));
  EXPECT_NE(c.current_mark(0, 99), c.current_mark(0, 100));
}

TEST(GroupClock, TouchDetectsExactlyBoundaryCrossings) {
  GroupClock c(4, 100);
  // Touch every group every tick: resets happen exactly once per cycle per
  // group.
  std::size_t resets = 0;
  for (std::uint64_t t = 1; t <= 1000; ++t)
    for (std::size_t g = 0; g < 4; ++g)
      if (c.touch(g, t)) ++resets;
  EXPECT_EQ(resets, 4u * 10u);
}

TEST(GroupClock, StaleAfterSkippedBoundary) {
  GroupClock c(1, 100);
  EXPECT_FALSE(c.stale(0, 50));
  EXPECT_TRUE(c.stale(0, 150));  // boundary at t=100 not touched
  EXPECT_TRUE(c.touch(0, 150));
  EXPECT_FALSE(c.stale(0, 150));
  EXPECT_FALSE(c.touch(0, 160));  // already current
}

TEST(GroupClock, OneBitMarkAliasesAfterTwoCycles) {
  // The on-demand cleaning failure mode (paper Sec. 5.1): untouched for two
  // full cycles, a 1-bit mark looks current again.
  GroupClock c1(1, 100, 1);
  EXPECT_FALSE(c1.stale(0, 250));  // 2 cycles skipped: aliased to "fresh"
  // A 2-bit mark still catches it.
  GroupClock c2(1, 100, 2);
  EXPECT_TRUE(c2.stale(0, 250));
  // ...until 4 cycles.
  EXPECT_FALSE(c2.stale(0, 450));
}

TEST(GroupClock, ResetRestoresTimeZeroState) {
  GroupClock c(4, 100);
  for (std::uint64_t t = 1; t < 321; ++t)
    for (std::size_t g = 0; g < 4; ++g) c.touch(g, t);
  c.reset();
  for (std::size_t g = 0; g < 4; ++g) EXPECT_FALSE(c.stale(g, 0));
}

TEST(GroupClock, MemoryBytesScalesWithMarkBits) {
  EXPECT_LE(GroupClock(64, 100, 1).memory_bytes(), 8u);
  EXPECT_GE(GroupClock(64, 100, 8).memory_bytes(), 64u);
}

// Copies, assignment and load() all give a clock that stages exactly what
// the original does; marks stay per copy.
TEST(GroupClock, CopiesAssignmentAndLoadStageAlike) {
  constexpr std::size_t kGroups = 1000;
  constexpr std::uint64_t kTcycle = 3000;
  GroupClock a(kGroups, kTcycle, 2);
  for (std::uint64_t t = 1; t < 5000; t += 7) a.touch(t % kGroups, t);
  const GroupClock b = a;
  GroupClock c(7, 10);
  c = a;
  EXPECT_EQ(b.memory_bytes(), a.memory_bytes());

  std::vector<char> buf;
  BinaryWriter w(buf);
  a.save(w);
  BinaryReader r(buf);
  const GroupClock loaded = GroupClock::load(r, kGroups, kTcycle, 2);
  for (std::size_t g = 0; g < kGroups; ++g)
    ASSERT_EQ(loaded.stored_mark(g), a.stored_mark(g)) << "g=" << g;

  constexpr std::size_t kN = 256;
  std::vector<std::uint32_t> gids(kN);
  for (std::size_t i = 0; i < kN; ++i)
    gids[i] = static_cast<std::uint32_t>((i * 37) % kGroups);
  const GroupClock::TimeParts now = a.split(4321);
  const GroupClock::TimeParts cycle_start = a.split(2 * kTcycle);
  const auto staged = [&](const GroupClock& clk) {
    std::vector<std::uint32_t> curs(4 * kN);
    std::vector<std::uint64_t> ages(2 * kN);
    clk.stage_marks(gids.data(), kN, now, curs.data(), ages.data());
    clk.stage_marks_range(100, kN, now, curs.data() + kN, ages.data() + kN);
    clk.stage_marks_ramp(gids.data(), kN, cycle_start, curs.data() + 2 * kN);
    clk.stage_marks_rep(gids.data(), kN / 4, 4, cycle_start,
                        curs.data() + 3 * kN);
    return std::make_pair(curs, ages);
  };
  const auto want = staged(a);
  EXPECT_EQ(staged(b), want);
  EXPECT_EQ(staged(c), want);
  EXPECT_EQ(staged(loaded), want);

  // Marks stay per copy: advancing one clock leaves the other untouched.
  GroupClock d = a;
  std::size_t differ = 0;
  for (std::size_t g = 0; g < kGroups; ++g) {
    const std::uint64_t before = a.stored_mark(g);
    d.touch(g, 9 * kTcycle + 1);
    EXPECT_EQ(a.stored_mark(g), before);
    differ += d.stored_mark(g) != before ? 1 : 0;
  }
  EXPECT_GT(differ, 0u);
}

// floor(Tcycle * gid / G) in 128 bits: the definition the clock's
// two-constant form must reproduce.
std::uint64_t wide_offset(std::uint64_t tcycle, std::uint64_t gid,
                          std::uint64_t groups) {
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(tcycle) * gid / groups);
}

// offset() and every stage_marks* entry point, native and scalar, against
// the 128-bit definition, over geometries whose Tcycle * gid wraps 64 bits
// and ones where G does not divide Tcycle.
TEST(GroupClock, OffsetsAndStagingMatchWideReference) {
  constexpr unsigned kBits = 3;
  constexpr std::uint64_t kMask = (1u << kBits) - 1;
  const std::uint64_t group_counts[] = {1,   2,   3,     64,    683,
                                        777, 32768, 65537, (1u << 20) + 7};
  std::mt19937_64 rng(2022);
  for (const std::uint64_t groups : group_counts) {
    const std::uint64_t tcycles[] = {groups - 1, groups,     groups + 1,
                                     3000,       98304,      (1ull << 31) + 1,
                                     3ull << 49};
    // The first and last gids, then random ones; 75 entries leave a
    // remainder past the 4-lane kernels.
    std::vector<std::uint32_t> gids;
    for (std::uint64_t g : {std::uint64_t{0}, std::uint64_t{1}, groups - 2,
                            groups - 1})
      if (g < groups) gids.push_back(static_cast<std::uint32_t>(g));
    while (gids.size() < 75)
      gids.push_back(static_cast<std::uint32_t>(rng() % groups));
    for (const std::uint64_t tcycle : tcycles) {
      if (tcycle == 0) continue;
      SCOPED_TRACE(testing::Message() << "G=" << groups << " T=" << tcycle);
      const GroupClock clock(groups, tcycle, kBits);
      const auto ref = [&](std::uint64_t g) {
        return wide_offset(tcycle, g, groups);
      };
      for (const std::uint32_t g : gids)
        ASSERT_EQ(clock.offset(g), -static_cast<std::int64_t>(ref(g)))
            << "gid=" << g;
      // A new clock holds the marks of time 0.
      for (std::uint64_t g = 0; g < std::min<std::uint64_t>(groups, 70); ++g)
        ASSERT_EQ(clock.stored_mark(g), clock.current_mark(g, 0)) << g;
      for (const std::uint32_t g : gids)
        ASSERT_EQ(clock.stored_mark(g), clock.current_mark(g, 0)) << g;
      const auto want_mark = [&](std::int64_t cycle, std::int64_t rem,
                                 std::uint64_t g) {
        const std::int64_t s = rem - static_cast<std::int64_t>(ref(g));
        return static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(cycle - (s < 0 ? 1 : 0)) & kMask);
      };
      const auto want_age = [&](std::int64_t rem, std::uint64_t g) {
        const std::int64_t s = rem - static_cast<std::int64_t>(ref(g));
        return static_cast<std::uint64_t>(
            s < 0 ? s + static_cast<std::int64_t>(tcycle) : s);
      };
      const std::int64_t last = static_cast<std::int64_t>(tcycle) - 1;
      const GroupClock::TimeParts times[] = {
          {0, 0}, {3, last}, {7, last / 2}};
      for (const bool scalar : {false, true}) {
        const simd::ScopedForceScalar pin(scalar);
        SCOPED_TRACE(scalar ? "scalar" : "native");
        const std::size_t n = gids.size();
        std::vector<std::uint32_t> curs(n);
        std::vector<std::uint64_t> ages(n);
        for (const GroupClock::TimeParts p : times) {
          clock.stage_marks(gids.data(), n, p, curs.data(), ages.data());
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(curs[i], want_mark(p.cycle, p.rem, gids[i])) << i;
            ASSERT_EQ(ages[i], want_age(p.rem, gids[i])) << i;
          }
          const std::size_t span = std::min<std::uint64_t>(groups, 37);
          for (const std::uint64_t first :
               {std::uint64_t{0}, groups - span, rng() % (groups - span + 1)}) {
            clock.stage_marks_range(first, span, p, curs.data(), ages.data());
            for (std::size_t i = 0; i < span; ++i) {
              ASSERT_EQ(curs[i], want_mark(p.cycle, p.rem, first + i));
              ASSERT_EQ(ages[i], want_age(p.rem, first + i));
            }
          }
        }
        // Ramp and rep run item b at rem0 + b, with rem0 + items <= Tcycle:
        // from the cycle's start and up to its very end.
        const std::size_t ramp_n = std::min<std::uint64_t>(n, tcycle);
        for (const std::int64_t rem0 :
             {std::int64_t{0},
              static_cast<std::int64_t>(tcycle - ramp_n)}) {
          clock.stage_marks_ramp(gids.data(), ramp_n, {5, rem0}, curs.data());
          for (std::size_t i = 0; i < ramp_n; ++i)
            ASSERT_EQ(curs[i],
                      want_mark(5, rem0 + static_cast<std::int64_t>(i), gids[i]))
                << i;
        }
        for (const unsigned k : {2u, 3u, 4u, 5u, 8u}) {
          const std::size_t nkeys = std::min<std::uint64_t>(n / k, tcycle);
          const auto rem0 = static_cast<std::int64_t>(tcycle - nkeys);
          clock.stage_marks_rep(gids.data(), nkeys, k, {2, rem0}, curs.data());
          for (std::size_t i = 0; i < nkeys * k; ++i)
            ASSERT_EQ(curs[i],
                      want_mark(2, rem0 + static_cast<std::int64_t>(i / k),
                                gids[i]))
                << "k=" << k << " i=" << i;
        }
      }
    }
  }
}

// A valid config whose Tcycle * gid passes 2^64: the offsets must still be
// the floor of the exact quotient, in (-Tcycle, 0] and non-increasing.
TEST(GroupClock, OffsetsExactWhereTcycleTimesGidWraps) {
  SheConfig cfg;
  cfg.window = std::uint64_t{1} << 50;
  cfg.cells = std::size_t{1} << 21;
  cfg.group_cells = 64;
  cfg.alpha = 0.5;
  ASSERT_NO_THROW(cfg.validate());
  const GroupClock clock(cfg.groups(), cfg.tcycle());
  const auto tcycle = static_cast<std::int64_t>(cfg.tcycle());
  std::int64_t prev = 1;
  for (std::size_t g = 0; g < cfg.groups(); ++g) {
    const std::int64_t d = clock.offset(g);
    ASSERT_EQ(d, -static_cast<std::int64_t>(
                     wide_offset(cfg.tcycle(), g, cfg.groups())))
        << "g=" << g;
    ASSERT_GT(d, -tcycle) << "g=" << g;
    ASSERT_LE(d, 0) << "g=" << g;
    ASSERT_LT(d, prev) << "g=" << g;
    prev = d;
  }
}

// load() takes only a clock of the geometry it is asked for.
TEST(GroupClock, LoadRejectsAnotherGeometry) {
  const GroupClock a(64, 1000, 2);
  std::vector<char> buf;
  BinaryWriter w(buf);
  a.save(w);
  const std::string bytes(buf.begin(), buf.end());
  const auto load = [&](std::size_t groups, std::uint64_t tcycle,
                        unsigned bits) {
    BinaryReader r(bytes);
    return GroupClock::load(r, groups, tcycle, bits);
  };
  EXPECT_NO_THROW(load(64, 1000, 2));
  EXPECT_THROW(load(65, 1000, 2), SerializeError);
  EXPECT_THROW(load(64, 1001, 2), SerializeError);
  EXPECT_THROW(load(64, 1000, 1), SerializeError);
}

// Parameterized consistency sweep: for arbitrary (G, Tcycle) geometry, the
// mark flips exactly when the age wraps to 0.
class ClockGeometry
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(ClockGeometry, MarkFlipCoincidesWithAgeWrap) {
  auto [groups, tcycle] = GetParam();
  GroupClock c(groups, tcycle);
  for (std::size_t g = 0; g < groups; ++g) {
    std::uint64_t prev_mark = c.current_mark(g, 0);
    std::uint64_t prev_age = c.age(g, 0);
    for (std::uint64_t t = 1; t < 3 * tcycle; ++t) {
      std::uint64_t mark = c.current_mark(g, t);
      std::uint64_t age = c.age(g, t);
      bool wrapped = age < prev_age;
      bool flipped = mark != prev_mark;
      ASSERT_EQ(wrapped, flipped) << "g=" << g << " t=" << t;
      prev_mark = mark;
      prev_age = age;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ClockGeometry,
    ::testing::Values(std::make_tuple(1u, 10u), std::make_tuple(2u, 10u),
                      std::make_tuple(3u, 10u), std::make_tuple(4u, 97u),
                      std::make_tuple(16u, 64u), std::make_tuple(5u, 123u),
                      std::make_tuple(7u, 7u), std::make_tuple(13u, 200u)));

}  // namespace
}  // namespace she
