// Integer math helpers shared by every module.
//
// The SHE group clock uses *negative* time offsets (d_gid <= 0), so the mark
// and age computations need floored division/modulo rather than C++'s
// truncating operators. These helpers are the single source of truth for that
// arithmetic; GroupClock and the hardware pipeline model both build on them.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

namespace she {

/// Floored integer division: rounds toward negative infinity.
/// floor_div(-1, 8) == -1, floor_div(7, 8) == 0, floor_div(-8, 8) == -1.
constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  std::int64_t r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}

/// Floored modulo: result always has the sign of the divisor.
/// For positive b the result is in [0, b).  floor_mod(-1, 8) == 7.
constexpr std::int64_t floor_mod(std::int64_t a, std::int64_t b) {
  std::int64_t r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}

/// True if v is a power of two (v > 0).
constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Smallest power of two >= v (v >= 1).
constexpr std::uint64_t next_pow2(std::uint64_t v) {
  return v <= 1 ? 1 : std::uint64_t{1} << (64 - std::countl_zero(v - 1));
}

/// Ceiling division for non-negative integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// HyperLogLog rank: position of the leftmost 1-bit in the low `width` bits
/// of h, counting from 1; returns width+1 when those bits are all zero.
/// This equals (number of leading zero bits) + 1, the paper's l_zero + 1.
constexpr std::uint8_t hll_rank(std::uint64_t h, unsigned width) {
  h &= (width >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  if (h == 0) return static_cast<std::uint8_t>(width + 1);
  unsigned lz = static_cast<unsigned>(std::countl_zero(h)) - (64 - width);
  return static_cast<std::uint8_t>(lz + 1);
}

/// log2 of a power of two.
constexpr unsigned log2_pow2(std::uint64_t v) {
  return static_cast<unsigned>(std::countr_zero(v));
}

/// High 64 bits of the 128-bit product a * b.
constexpr std::uint64_t mulhi64(std::uint64_t a, std::uint64_t b) {
#if defined(__SIZEOF_INT128__)
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) >> 64);
#else
  // Portable 64x64->high-64 via 32-bit halves (no platform in CI hits this).
  const std::uint64_t al = a & 0xFFFFFFFFu, ah = a >> 32;
  const std::uint64_t bl = b & 0xFFFFFFFFu, bh = b >> 32;
  const std::uint64_t mid = ah * bl + ((al * bl) >> 32);
  const std::uint64_t mid2 = al * bh + (mid & 0xFFFFFFFFu);
  return ah * bh + (mid >> 32) + (mid2 >> 32);
#endif
}

/// Division and modulo by a runtime-constant 32-bit divisor without a divide
/// instruction (Lemire, Kaser & Kurz, "Faster remainder by direct
/// computation").  Precompute once per estimator (`d` = cells or group
/// width), then each `div`/`mod` is two multiplies — this is what keeps the
/// vector slot-staging loops free of per-probe `udiv`.
///
/// Exact for every n, d in [0, 2^32): with M = floor(2^64 / d) + 1,
///   n / d == mulhi64(M, n)  and  n % d == mulhi64(M * n, d).
/// d == 1 is special-cased because its magic constant would wrap to zero.
struct FastDiv32 {
  std::uint64_t magic = 0;
  std::uint32_t d = 1;

  FastDiv32() = default;
  constexpr explicit FastDiv32(std::uint32_t divisor) : d(divisor) {
    if (d > 1) magic = ~std::uint64_t{0} / d + 1;
  }

  [[nodiscard]] constexpr std::uint32_t div(std::uint32_t n) const {
    return d == 1 ? n : static_cast<std::uint32_t>(mulhi64(magic, n));
  }

  [[nodiscard]] constexpr std::uint32_t mod(std::uint32_t n) const {
    return d == 1 ? 0 : static_cast<std::uint32_t>(mulhi64(magic * n, d));
  }
};

}  // namespace she
