// GroupClock tests — the correctness core of the hardware SHE version.
#include "she/group_clock.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/int_math.hpp"
#include "common/io.hpp"

namespace she {
namespace {

TEST(GroupClock, RejectsBadArguments) {
  EXPECT_THROW(GroupClock(0, 100), std::invalid_argument);
  EXPECT_THROW(GroupClock(4, 0), std::invalid_argument);
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

TEST(GroupClock, CopiesShareTheOffsetTable) {
  constexpr std::size_t kGroups = 1000;
  constexpr std::uint64_t kTcycle = 3000;
  GroupClock a(kGroups, kTcycle, 2);
  for (std::uint64_t t = 1; t < 5000; t += 7) a.touch(t % kGroups, t);
  const GroupClock b = a;
  GroupClock c(7, 10);
  c = a;
  EXPECT_EQ(b.offsets_data(), a.offsets_data());
  EXPECT_EQ(c.offsets_data(), a.offsets_data());
  EXPECT_EQ(b.memory_bytes(), a.memory_bytes());

  // A loaded clock takes the same table from the registry.
  std::vector<char> buf;
  BinaryWriter w(buf);
  a.save(w);
  BinaryReader r(buf);
  const GroupClock loaded = GroupClock::load(r, kGroups, kTcycle, 2);
  EXPECT_EQ(loaded.offsets_data(), a.offsets_data());

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
  EXPECT_EQ(d.offsets_data(), a.offsets_data());
}

// Every clock of one (groups, tcycle) geometry shares one offset table,
// whatever its mark width and however it was built; other geometries get
// their own, and the registry drops a table with its last clock.
TEST(GroupClock, OneOffsetTablePerGeometry) {
  constexpr std::size_t kGroups = 777;
  constexpr std::uint64_t kTcycle = 12345;
  constexpr std::size_t kTable = kGroups * sizeof(std::int64_t);
  const std::size_t baseline = GroupClock::shared_offset_bytes();
  {
    const GroupClock a(kGroups, kTcycle, 1);
    EXPECT_EQ(GroupClock::shared_offset_bytes(), baseline + kTable);
    const GroupClock b(kGroups, kTcycle, 4);
    EXPECT_EQ(b.offsets_data(), a.offsets_data());

    std::vector<char> buf;
    BinaryWriter w(buf);
    a.save(w);
    BinaryReader r(buf);
    const GroupClock loaded = GroupClock::load(r, kGroups, kTcycle, 1);
    EXPECT_EQ(loaded.offsets_data(), a.offsets_data());
    EXPECT_EQ(GroupClock::shared_offset_bytes(), baseline + kTable);

    const GroupClock more_groups(kGroups + 1, kTcycle);
    const GroupClock other_cycle(kGroups, kTcycle + 1);
    EXPECT_NE(more_groups.offsets_data(), a.offsets_data());
    EXPECT_NE(other_cycle.offsets_data(), a.offsets_data());
    EXPECT_EQ(other_cycle.offset(kGroups - 1),
              -static_cast<std::int64_t>((kTcycle + 1) * (kGroups - 1) / kGroups));
    EXPECT_EQ(GroupClock::shared_offset_bytes(),
              baseline + 2 * kTable + (kGroups + 1) * sizeof(std::int64_t));
  }
  EXPECT_EQ(GroupClock::shared_offset_bytes(), baseline);
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
