#include "she/group_clock.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/int_math.hpp"
#include "common/simd.hpp"
#include "obs/she_metrics.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace she {

namespace {

using OffsetTable = std::vector<std::int64_t>;

/// The process's offset tables, one per (groups, tcycle): every clock of a
/// geometry shares one immutable table, and an entry dies with the last
/// clock holding it.
class OffsetTables {
 public:
  std::shared_ptr<const OffsetTable> get(std::size_t groups,
                                         std::uint64_t tcycle) {
    const Key key{groups, tcycle};
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = tables_.find(key);
      if (it != tables_.end())
        if (auto live = it->second.table.lock()) return live;
    }
    // Built outside the lock, whose holder a table's deleter would wait on.
    // d_gid = -floor(Tcycle * gid / G); gid < G keeps the magnitude below
    // Tcycle.  Cached: recomputing costs a 64-bit division on every access.
    auto built = std::make_unique<OffsetTable>(groups);
    for (std::size_t gid = 0; gid < groups; ++gid)
      (*built)[gid] = -static_cast<std::int64_t>(tcycle * gid / groups);
    const std::shared_ptr<const OffsetTable> table(
        built.release(), [this, key](const OffsetTable* t) {
          forget(key);
          delete t;
        });
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = tables_[key];
    // Another clock of this geometry may have won the race; `table` then
    // dies after the unlock.
    if (auto live = e.table.lock()) return live;
    e = {table, groups * sizeof(std::int64_t)};
    return table;
  }

  std::size_t bytes() {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto& [key, e] : tables_)
      if (!e.table.expired()) n += e.bytes;
    return n;
  }

 private:
  using Key = std::pair<std::size_t, std::uint64_t>;
  struct Entry {
    std::weak_ptr<const OffsetTable> table;
    // Kept here because bytes() must not lock() a table: under mu_ it could
    // become the table's last owner, whose deleter waits on mu_.
    std::size_t bytes = 0;
  };

  void forget(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = tables_.find(key);
    // A newer table of the geometry may already sit in the slot.
    if (it != tables_.end() && it->second.table.expired()) tables_.erase(it);
  }

  std::mutex mu_;
  std::map<Key, Entry> tables_;
};

// Never destroyed, so a clock that outlives static destruction can still
// drop its table.
OffsetTables& offset_tables() {
  static OffsetTables* t = new OffsetTables;
  return *t;
}

}  // namespace

GroupClock::GroupClock(std::size_t groups, std::uint64_t tcycle, unsigned mark_bits)
    : tcycle_(tcycle), marks_(groups, mark_bits) {
  if (groups == 0) throw std::invalid_argument("GroupClock: groups must be > 0");
  if (tcycle == 0) throw std::invalid_argument("GroupClock: tcycle must be > 0");
  offsets_ = offset_tables().get(groups, tcycle);
  reset();
}

std::size_t GroupClock::shared_offset_bytes() { return offset_tables().bytes(); }

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
// 4 x i64 lanes.  NEON dispatch intentionally uses the scalar loops: with
// only 2 x i64 lanes, no gather, and division already hoisted out, the
// vector form has nothing left to win.
// ---------------------------------------------------------------------------
namespace {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

// Pack the low dword of each 64-bit lane into the lower 128 bits.
__attribute__((target("avx2"), always_inline)) inline __m128i pack_low32(
    __m256i v) {
  const __m256i perm =
      _mm256_permutevar8x32_epi32(v, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
  return _mm256_castsi256_si128(perm);
}

// Entry i runs at rem + step * i: step 0 is one fixed time (stage_marks),
// step 1 one item per entry (stage_marks_ramp, whose caller guarantees
// rem + n <= tcycle so no lane wraps a cycle boundary).
__attribute__((target("avx2"))) void stage_gather_avx2(
    const std::int64_t* offsets, const std::uint32_t* gids, std::size_t n,
    std::int64_t cycle, std::int64_t rem, std::int64_t step,
    std::int64_t tcycle, std::uint64_t mask, std::uint32_t* curs,
    std::uint64_t* ages) noexcept {
  const __m256i vcyc = _mm256_set1_epi64x(cycle);
  const __m256i vtc = _mm256_set1_epi64x(tcycle);
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lanes = step != 0 ? _mm256_setr_epi64x(0, 1, 2, 3) : zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i idx = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(gids + i)));
    const __m256i off = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(offsets), idx, 8);
    const __m256i vrem = _mm256_add_epi64(
        _mm256_set1_epi64x(rem + step * static_cast<std::int64_t>(i)), lanes);
    const __m256i s = _mm256_add_epi64(vrem, off);
    const __m256i neg = _mm256_cmpgt_epi64(zero, s);  // all-ones where s < 0
    const __m256i cur =
        _mm256_and_si256(_mm256_add_epi64(vcyc, neg), vmask);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(curs + i), pack_low32(cur));
    if (ages != nullptr) {
      const __m256i age = _mm256_add_epi64(s, _mm256_and_si256(neg, vtc));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(ages + i), age);
    }
  }
  for (; i < n; ++i) {
    const std::int64_t s =
        rem + step * static_cast<std::int64_t>(i) + offsets[gids[i]];
    curs[i] = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(cycle - (s < 0 ? 1 : 0)) & mask);
    if (ages != nullptr)
      ages[i] = static_cast<std::uint64_t>(s < 0 ? s + tcycle : s);
  }
}

__attribute__((target("avx2"))) void stage_range_avx2(
    const std::int64_t* offsets, std::size_t first, std::size_t n,
    std::int64_t cycle, std::int64_t rem, std::int64_t tcycle,
    std::uint64_t mask, std::uint32_t* curs, std::uint64_t* ages) noexcept {
  const __m256i vrem = _mm256_set1_epi64x(rem);
  const __m256i vcyc = _mm256_set1_epi64x(cycle);
  const __m256i vtc = _mm256_set1_epi64x(tcycle);
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i off = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(offsets + first + i));
    const __m256i s = _mm256_add_epi64(vrem, off);
    const __m256i neg = _mm256_cmpgt_epi64(zero, s);
    const __m256i cur =
        _mm256_and_si256(_mm256_add_epi64(vcyc, neg), vmask);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(curs + i), pack_low32(cur));
    if (ages != nullptr) {
      const __m256i age = _mm256_add_epi64(s, _mm256_and_si256(neg, vtc));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(ages + i), age);
    }
  }
  for (; i < n; ++i) {
    const std::int64_t s = rem + offsets[first + i];
    curs[i] = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(cycle - (s < 0 ? 1 : 0)) & mask);
    if (ages != nullptr)
      ages[i] = static_cast<std::uint64_t>(s < 0 ? s + tcycle : s);
  }
}

__attribute__((target("avx2"))) void stage_rep_avx2(
    const std::int64_t* offsets, const std::uint32_t* gids, std::size_t nkeys,
    unsigned k, std::int64_t cycle, std::int64_t rem0, std::uint64_t mask,
    std::uint32_t* curs) noexcept {
  // Precondition (checked by the caller): rem0 + nkeys <= tcycle, so key b
  // runs at rem0 + b in [0, tcycle) and no lane wraps a cycle boundary.
  const __m256i vcyc = _mm256_set1_epi64x(cycle);
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t b = 0; b < nkeys; ++b) {
    const std::int64_t rem = rem0 + static_cast<std::int64_t>(b);
    const __m256i vrem = _mm256_set1_epi64x(rem);
    const std::uint32_t* g = gids + b * k;
    std::uint32_t* c = curs + b * k;
    unsigned h = 0;
    for (; h + 4 <= k; h += 4) {
      const __m256i idx = _mm256_cvtepu32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(g + h)));
      const __m256i off = _mm256_i64gather_epi64(
          reinterpret_cast<const long long*>(offsets), idx, 8);
      const __m256i s = _mm256_add_epi64(vrem, off);
      const __m256i neg = _mm256_cmpgt_epi64(zero, s);
      const __m256i cur =
          _mm256_and_si256(_mm256_add_epi64(vcyc, neg), vmask);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c + h), pack_low32(cur));
    }
    for (; h < k; ++h) {
      const std::int64_t s = rem + offsets[g[h]];
      c[h] = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(cycle - (s < 0 ? 1 : 0)) & mask);
    }
  }
}

#endif  // __x86_64__

}  // namespace

void GroupClock::stage_marks(const std::uint32_t* gids, std::size_t n,
                             TimeParts p, std::uint32_t* curs,
                             std::uint64_t* ages) const {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (simd::active_isa() == simd::Isa::kAvx2) {
    stage_gather_avx2(offsets_data(), gids, n, p.cycle, p.rem, 0,
                      static_cast<std::int64_t>(tcycle_), marks_.max_value(),
                      curs, ages);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    curs[i] = static_cast<std::uint32_t>(current_mark_at(p, gids[i]));
    if (ages != nullptr) ages[i] = age_at(p, gids[i]);
  }
}

void GroupClock::stage_marks_range(std::size_t first, std::size_t n,
                                   TimeParts p, std::uint32_t* curs,
                                   std::uint64_t* ages) const {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (simd::active_isa() == simd::Isa::kAvx2) {
    stage_range_avx2(offsets_data(), first, n, p.cycle, p.rem,
                     static_cast<std::int64_t>(tcycle_), marks_.max_value(),
                     curs, ages);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    curs[i] = static_cast<std::uint32_t>(current_mark_at(p, first + i));
    if (ages != nullptr) ages[i] = age_at(p, first + i);
  }
}

void GroupClock::stage_marks_ramp(const std::uint32_t* gids, std::size_t n,
                                  TimeParts p0, std::uint32_t* curs) const {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (simd::active_isa() == simd::Isa::kAvx2) {
    stage_gather_avx2(offsets_data(), gids, n, p0.cycle, p0.rem, 1,
                      static_cast<std::int64_t>(tcycle_), marks_.max_value(),
                      curs, nullptr);
    return;
  }
#endif
  TimeParts p = p0;
  for (std::size_t i = 0; i < n; ++i) {
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
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (simd::active_isa() == simd::Isa::kAvx2) {
    stage_rep_avx2(offsets_data(), gids, nkeys, k, p0.cycle, p0.rem,
                   marks_.max_value(), curs);
    return;
  }
#endif
  TimeParts p = p0;
  for (std::size_t b = 0; b < nkeys; ++b) {
    for (unsigned h = 0; h < k; ++h) {
      curs[b * k + h] = static_cast<std::uint32_t>(
          current_mark_at(p, gids[b * k + h]));
    }
    tick(p);
  }
}

void GroupClock::reset() {
  for (std::size_t g = 0; g < marks_.size(); ++g)
    marks_.set(g, current_mark(g, 0));
}

void GroupClock::save(BinaryWriter& out) const {
  out.tag("GCLK");
  out.u64(tcycle_);
  marks_.save(out);
}

GroupClock GroupClock::load(BinaryReader& in, std::size_t groups,
                            std::uint64_t tcycle, unsigned mark_bits) {
  in.expect_tag("GCLK");
  if (in.u64() != tcycle)
    throw SerializeError("GroupClock::load: tcycle mismatch");
  PackedArray marks = PackedArray::load(in);
  if (marks.size() != groups || marks.cell_bits() != mark_bits)
    throw SerializeError("GroupClock::load: mark shape mismatch");
  GroupClock clock(groups, tcycle, mark_bits);
  clock.marks_ = std::move(marks);
  return clock;
}

}  // namespace she
