// PackedArray tests across all cell widths (cross-word packing is the
// subtle part: e.g. 5-bit HLL registers straddle 64-bit word boundaries).
#include "common/packed_array.hpp"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace she {
namespace {

TEST(PackedArray, RejectsBadWidths) {
  EXPECT_THROW(PackedArray(8, 0), std::invalid_argument);
  EXPECT_THROW(PackedArray(8, 65), std::invalid_argument);
  EXPECT_NO_THROW(PackedArray(8, 64));
}

TEST(PackedArray, MaxValue) {
  EXPECT_EQ(PackedArray(1, 1).max_value(), 1u);
  EXPECT_EQ(PackedArray(1, 5).max_value(), 31u);
  EXPECT_EQ(PackedArray(1, 18).max_value(), (1u << 18) - 1);
  EXPECT_EQ(PackedArray(1, 64).max_value(), ~std::uint64_t{0});
}

TEST(PackedArray, OutOfRangeThrows) {
  PackedArray a(10, 7);
  EXPECT_THROW((void)a.get(10), std::out_of_range);
  EXPECT_THROW(a.set(10, 0), std::out_of_range);
  EXPECT_THROW(a.clear_range(5, 6), std::out_of_range);
}

TEST(PackedArray, ValuesMaskedToWidth) {
  PackedArray a(4, 3);
  a.set(1, 0xFF);  // only low 3 bits kept
  EXPECT_EQ(a.get(1), 7u);
  EXPECT_EQ(a.get(0), 0u);
  EXPECT_EQ(a.get(2), 0u);
}

TEST(PackedArray, SaturatingAdd) {
  PackedArray a(2, 4);  // max 15
  a.add_saturating(0, 10);
  EXPECT_EQ(a.get(0), 10u);
  a.add_saturating(0, 10);
  EXPECT_EQ(a.get(0), 15u);  // clamped
  a.add_saturating(1);
  EXPECT_EQ(a.get(1), 1u);
}

TEST(PackedArray, ClearRange) {
  PackedArray a(20, 6);
  for (std::size_t i = 0; i < 20; ++i) a.set(i, i + 1);
  a.clear_range(5, 10);
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_EQ(a.get(i), (i >= 5 && i < 15) ? 0u : i + 1) << i;
}

// Parameterized over every cell width: write-read roundtrip with values that
// exercise word-boundary straddles at each width.
class PackedWidthTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PackedWidthTest, RoundTripAgainstReference) {
  unsigned bits = GetParam();
  constexpr std::size_t kCells = 137;  // odd size -> many straddles
  PackedArray a(kCells, bits);
  std::vector<std::uint64_t> ref(kCells, 0);
  std::uint64_t state = 0x12345678 + bits;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < kCells; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::uint64_t v = state & a.max_value();
      a.set(i, v);
      ref[i] = v;
    }
    for (std::size_t i = 0; i < kCells; ++i)
      ASSERT_EQ(a.get(i), ref[i]) << "width=" << bits << " cell=" << i;
  }
}

TEST_P(PackedWidthTest, NeighboursUndisturbed) {
  unsigned bits = GetParam();
  PackedArray a(99, bits);
  for (std::size_t i = 0; i < 99; ++i) a.set(i, a.max_value());
  a.set(50, 0);
  EXPECT_EQ(a.get(49), a.max_value());
  EXPECT_EQ(a.get(50), 0u);
  EXPECT_EQ(a.get(51), a.max_value());
}

// fill_max() equals a set() of max_value() per cell, whatever the run's
// alignment, and leaves the cells around it and the padding bits alone.
TEST_P(PackedWidthTest, FillMaxMatchesPerCellSet) {
  const unsigned bits = GetParam();
  constexpr std::size_t kCells = 137;
  for (const auto& [first, count] :
       {std::pair<std::size_t, std::size_t>{0, kCells}, {0, 0}, {1, 1},
        {3, 70}, {64, 73}, {kCells - 1, 1}}) {
    PackedArray a(kCells, bits);
    PackedArray want(kCells, bits);
    for (std::size_t i = 0; i < kCells; i += 3) {
      a.set(i, i & a.max_value());
      want.set(i, i & a.max_value());
    }
    a.fill_max(first, count);
    for (std::size_t i = first; i < first + count; ++i)
      want.set(i, want.max_value());
    std::vector<char> got_bytes, want_bytes;
    BinaryWriter got_out(got_bytes), want_out(want_bytes);
    a.save(got_out);
    want.save(want_out);
    EXPECT_EQ(got_bytes, want_bytes)
        << "width=" << bits << " first=" << first << " count=" << count;
  }
  PackedArray a(kCells, bits);
  EXPECT_THROW(a.fill_max(kCells - 1, 2), std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, PackedWidthTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           12u, 13u, 16u, 18u, 21u, 24u, 31u,
                                           32u, 33u, 40u, 48u, 63u, 64u));

TEST(PackedArray, MemoryBytes) {
  EXPECT_EQ(PackedArray(64, 1).memory_bytes(), 8u);
  EXPECT_EQ(PackedArray(12, 5).memory_bytes(), 8u);    // 60 bits -> 1 word
  EXPECT_EQ(PackedArray(13, 5).memory_bytes(), 16u);   // 65 bits -> 2 words
}

}  // namespace
}  // namespace she
