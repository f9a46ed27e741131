#include "she/group_clock.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/int_math.hpp"
#include "common/simd.hpp"
#include "obs/she_metrics.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define SHE_CLOCK_AVX2 1
#endif

namespace she {

namespace {

/// `groups`, once (groups, tcycle) is a geometry the clock supports: the
/// offset constants are exact only up to 2^32 groups.
std::size_t checked_groups(std::size_t groups, std::uint64_t tcycle) {
  if (groups == 0) throw std::invalid_argument("GroupClock: groups must be > 0");
  if (groups > (std::uint64_t{1} << 32))
    throw std::invalid_argument("GroupClock: groups must be <= 2^32");
  if (tcycle == 0) throw std::invalid_argument("GroupClock: tcycle must be > 0");
  return groups;
}

/// M = ceil((tcycle mod groups) * 2^64 / groups), below 2^64 since the
/// remainder is at most groups - 1.
std::uint64_t frac_step(std::uint64_t tcycle, std::uint64_t groups) {
  const unsigned __int128 scaled =
      static_cast<unsigned __int128>(tcycle % groups) << 64;
  return static_cast<std::uint64_t>((scaled + groups - 1) / groups);
}

}  // namespace

GroupClock::GroupClock(std::size_t groups, std::uint64_t tcycle, unsigned mark_bits)
    : GroupClock(tcycle,
                 PackedArray(checked_groups(groups, tcycle), mark_bits)) {
  reset();
}

GroupClock::GroupClock(std::uint64_t tcycle, PackedArray marks)
    : tcycle_(tcycle),
      step_(tcycle / marks.size()),
      frac_(frac_step(tcycle, marks.size())),
      marks_(std::move(marks)) {}

std::uint64_t GroupClock::current_mark(std::size_t gid, std::uint64_t t) const {
  std::int64_t shifted = static_cast<std::int64_t>(t) + offset(gid);
  std::int64_t cycle = floor_div(shifted, static_cast<std::int64_t>(tcycle_));
  // Power-of-two modulus: masking a two's-complement value equals the
  // floored modulo, so negative cycle indices (before a group's first
  // boundary) wrap correctly.
  return static_cast<std::uint64_t>(cycle) & marks_.max_value();
}

std::uint64_t GroupClock::age(std::size_t gid, std::uint64_t t) const {
  std::int64_t shifted = static_cast<std::int64_t>(t) + offset(gid);
  return static_cast<std::uint64_t>(
      floor_mod(shifted, static_cast<std::int64_t>(tcycle_)));
}

bool GroupClock::touch(std::size_t gid, std::uint64_t t) {
  return touch_precomputed(gid, current_mark(gid, t));
}

void GroupClock::record_clean(std::size_t gid, std::uint64_t cur) {
  const std::uint64_t stored = marks_.get(gid);
  marks_.set(gid, cur);
  if (obs::enabled()) {
    obs::SheMetrics& m = obs::she_metrics();
    m.groupclock_lazy_clean.inc();
    // Boundaries crossed since the last touch, modulo the mark space; with
    // b-bit marks a lag of exactly 2^b cycles is invisible (the aliasing
    // error of Sec. 5.1), so this undercounts precisely when that occurs.
    m.groupclock_mark_flips.inc((cur - stored) & marks_.max_value());
  }
}

// ---------------------------------------------------------------------------
// Batch mark/age staging.  Scalar loops are the reference; the AVX2 kernels
// compute the same (cycle - (s < 0)) & mask / s + (s < 0 ? T : 0) forms on
// 4 x i64 lanes, offsets included, and leave what is left past the last
// full four lanes to the scalar loop.  NEON dispatch intentionally uses the scalar loops: with
// only 2 x i64 lanes and division already hoisted out, the vector form has
// nothing left to win.
// ---------------------------------------------------------------------------
namespace {

#ifdef SHE_CLOCK_AVX2

// Pack the low dword of each 64-bit lane into the lower 128 bits.
__attribute__((target("avx2"), always_inline)) inline __m128i pack_low32(
    __m256i v) {
  const __m256i perm =
      _mm256_permutevar8x32_epi32(v, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
  return _mm256_castsi256_si128(perm);
}

// A clock's offset constants q and M, broadcast; _mm256_mul_epu32 reads the
// low dword of each lane, so *_lo hold the whole words and *_hi their high
// halves.
struct Spacing4 {
  __m256i q_lo, q_hi, m_lo, m_hi;
};

__attribute__((target("avx2"), always_inline)) inline Spacing4 spacing4(
    std::uint64_t step, std::uint64_t frac) {
  return {_mm256_set1_epi64x(static_cast<long long>(step)),
          _mm256_set1_epi64x(static_cast<long long>(step >> 32)),
          _mm256_set1_epi64x(static_cast<long long>(frac)),
          _mm256_set1_epi64x(static_cast<long long>(frac >> 32))};
}

// -d_gid = q * gid + mulhi64(M, gid) for gid < 2^32 in each lane: four
// half-word products, the mulhi in the fastdiv4 form of simd_hash.cpp.
__attribute__((target("avx2"), always_inline)) inline __m256i neg_offset4(
    __m256i gid, const Spacing4& c) {
  const __m256i whole =
      _mm256_add_epi64(_mm256_mul_epu32(c.q_lo, gid),
                       _mm256_slli_epi64(_mm256_mul_epu32(c.q_hi, gid), 32));
  const __m256i lo = _mm256_mul_epu32(c.m_lo, gid);
  const __m256i hi = _mm256_mul_epu32(c.m_hi, gid);
  return _mm256_add_epi64(
      whole, _mm256_srli_epi64(_mm256_add_epi64(hi, _mm256_srli_epi64(lo, 32)),
                               32));
}

// Entry i runs at rem + step * i: step 0 is one fixed time (stage_marks),
// step 1 one item per entry (stage_marks_ramp, whose caller guarantees
// rem + n <= tcycle so no lane wraps a cycle boundary).  Returns the
// entries staged, n rounded down to a multiple of 4.
__attribute__((target("avx2"))) std::size_t stage_gather_avx2(
    std::uint64_t q, std::uint64_t m, const std::uint32_t* gids, std::size_t n,
    std::int64_t cycle, std::int64_t rem, std::int64_t step,
    std::int64_t tcycle, std::uint64_t mask, std::uint32_t* curs,
    std::uint64_t* ages) noexcept {
  const Spacing4 spacing = spacing4(q, m);
  const __m256i vcyc = _mm256_set1_epi64x(cycle);
  const __m256i vtc = _mm256_set1_epi64x(tcycle);
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lanes = step != 0 ? _mm256_setr_epi64x(0, 1, 2, 3) : zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i gid = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(gids + i)));
    const __m256i vrem = _mm256_add_epi64(
        _mm256_set1_epi64x(rem + step * static_cast<std::int64_t>(i)), lanes);
    const __m256i s = _mm256_sub_epi64(vrem, neg_offset4(gid, spacing));
    const __m256i neg = _mm256_cmpgt_epi64(zero, s);  // all-ones where s < 0
    const __m256i cur =
        _mm256_and_si256(_mm256_add_epi64(vcyc, neg), vmask);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(curs + i), pack_low32(cur));
    if (ages != nullptr) {
      const __m256i age = _mm256_add_epi64(s, _mm256_and_si256(neg, vtc));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(ages + i), age);
    }
  }
  return i;
}

__attribute__((target("avx2"))) std::size_t stage_range_avx2(
    std::uint64_t q, std::uint64_t m, std::size_t first, std::size_t n,
    std::int64_t cycle, std::int64_t rem, std::int64_t tcycle,
    std::uint64_t mask, std::uint32_t* curs, std::uint64_t* ages) noexcept {
  const __m256i vrem = _mm256_set1_epi64x(rem);
  const Spacing4 spacing = spacing4(q, m);
  const __m256i vcyc = _mm256_set1_epi64x(cycle);
  const __m256i vtc = _mm256_set1_epi64x(tcycle);
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i zero = _mm256_setzero_si256();
  const __m256i four = _mm256_set1_epi64x(4);
  __m256i gid = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(first)),
      _mm256_setr_epi64x(0, 1, 2, 3));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i s = _mm256_sub_epi64(vrem, neg_offset4(gid, spacing));
    const __m256i neg = _mm256_cmpgt_epi64(zero, s);
    const __m256i cur =
        _mm256_and_si256(_mm256_add_epi64(vcyc, neg), vmask);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(curs + i), pack_low32(cur));
    if (ages != nullptr) {
      const __m256i age = _mm256_add_epi64(s, _mm256_and_si256(neg, vtc));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(ages + i), age);
    }
    gid = _mm256_add_epi64(gid, four);
  }
  return i;
}

// Stages h < k rounded down to a multiple of 4 for every key; returns that
// bound.
__attribute__((target("avx2"))) unsigned stage_rep_avx2(
    std::uint64_t q, std::uint64_t m, const std::uint32_t* gids, std::size_t nkeys,
    unsigned k, std::int64_t cycle, std::int64_t rem0, std::uint64_t mask,
    std::uint32_t* curs) noexcept {
  // Precondition (checked by the caller): rem0 + nkeys <= tcycle, so key b
  // runs at rem0 + b in [0, tcycle) and no lane wraps a cycle boundary.
  const unsigned vec = k & ~3u;
  const Spacing4 spacing = spacing4(q, m);
  const __m256i vcyc = _mm256_set1_epi64x(cycle);
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t b = 0; b < nkeys; ++b) {
    const __m256i vrem =
        _mm256_set1_epi64x(rem0 + static_cast<std::int64_t>(b));
    const std::uint32_t* g = gids + b * k;
    std::uint32_t* c = curs + b * k;
    for (unsigned h = 0; h < vec; h += 4) {
      const __m256i gid = _mm256_cvtepu32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(g + h)));
      const __m256i s = _mm256_sub_epi64(vrem, neg_offset4(gid, spacing));
      const __m256i neg = _mm256_cmpgt_epi64(zero, s);
      const __m256i cur =
          _mm256_and_si256(_mm256_add_epi64(vcyc, neg), vmask);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c + h), pack_low32(cur));
    }
  }
  return vec;
}

#endif  // SHE_CLOCK_AVX2

}  // namespace

void GroupClock::stage_marks(const std::uint32_t* gids, std::size_t n,
                             TimeParts p, std::uint32_t* curs,
                             std::uint64_t* ages) const {
  std::size_t i = 0;
#ifdef SHE_CLOCK_AVX2
  if (simd::active_isa() == simd::Isa::kAvx2)
    i = stage_gather_avx2(step_, frac_, gids, n, p.cycle, p.rem, 0,
                          static_cast<std::int64_t>(tcycle_),
                          marks_.max_value(), curs, ages);
#endif
  for (; i < n; ++i) {
    curs[i] = static_cast<std::uint32_t>(current_mark_at(p, gids[i]));
    if (ages != nullptr) ages[i] = age_at(p, gids[i]);
  }
}

void GroupClock::stage_marks_range(std::size_t first, std::size_t n,
                                   TimeParts p, std::uint32_t* curs,
                                   std::uint64_t* ages) const {
  std::size_t i = 0;
#ifdef SHE_CLOCK_AVX2
  if (simd::active_isa() == simd::Isa::kAvx2)
    i = stage_range_avx2(step_, frac_, first, n, p.cycle, p.rem,
                         static_cast<std::int64_t>(tcycle_),
                         marks_.max_value(), curs, ages);
#endif
  for (; i < n; ++i) {
    curs[i] = static_cast<std::uint32_t>(current_mark_at(p, first + i));
    if (ages != nullptr) ages[i] = age_at(p, first + i);
  }
}

void GroupClock::stage_marks_ramp(const std::uint32_t* gids, std::size_t n,
                                  TimeParts p0, std::uint32_t* curs) const {
  std::size_t i = 0;
#ifdef SHE_CLOCK_AVX2
  if (simd::active_isa() == simd::Isa::kAvx2)
    i = stage_gather_avx2(step_, frac_, gids, n, p0.cycle, p0.rem,
                          1, static_cast<std::int64_t>(tcycle_),
                          marks_.max_value(), curs, nullptr);
#endif
  // The precondition keeps p0.rem + i inside the cycle.
  TimeParts p{p0.cycle, p0.rem + static_cast<std::int64_t>(i)};
  for (; i < n; ++i) {
    curs[i] = static_cast<std::uint32_t>(current_mark_at(p, gids[i]));
    tick(p);
  }
}

void GroupClock::stage_marks_rep(const std::uint32_t* gids, std::size_t nkeys,
                                 unsigned k, TimeParts p0,
                                 std::uint32_t* curs) const {
  // One probe per key is the ramp shape, which vectorizes across keys.
  if (k == 1) {
    stage_marks_ramp(gids, nkeys, p0, curs);
    return;
  }
  unsigned h0 = 0;
#ifdef SHE_CLOCK_AVX2
  if (simd::active_isa() == simd::Isa::kAvx2)
    h0 = stage_rep_avx2(step_, frac_, gids, nkeys, k, p0.cycle,
                        p0.rem, marks_.max_value(), curs);
#endif
  if (h0 == k) return;
  TimeParts p = p0;
  for (std::size_t b = 0; b < nkeys; ++b) {
    for (unsigned h = h0; h < k; ++h) {
      curs[b * k + h] = static_cast<std::uint32_t>(
          current_mark_at(p, gids[b * k + h]));
    }
    tick(p);
  }
}

void GroupClock::reset() {
  // At time 0 a group's mark is (0 - (d_gid < 0)) & mask: 0 for the leading
  // groups with d_gid == 0, i.e. Tcycle * gid < G, and all ones for every
  // later one, since the offsets fall with gid.  Two word-wise passes.
  const std::size_t lead =
      std::min<std::uint64_t>(groups(), (groups() - 1) / tcycle_ + 1);
  marks_.clear();
  marks_.fill_max(lead, groups() - lead);
}

void GroupClock::save(BinaryWriter& out) const {
  out.tag("GCLK");
  out.u64(tcycle_);
  marks_.save(out);
}

GroupClock GroupClock::load(BinaryReader& in, std::size_t groups,
                            std::uint64_t tcycle, unsigned mark_bits) {
  checked_groups(groups, tcycle);
  in.expect_tag("GCLK");
  if (in.u64() != tcycle)
    throw SerializeError("GroupClock::load: tcycle mismatch");
  PackedArray marks = PackedArray::load(in);
  if (marks.size() != groups || marks.cell_bits() != mark_bits)
    throw SerializeError("GroupClock::load: mark shape mismatch");
  return GroupClock(tcycle, std::move(marks));
}

}  // namespace she
