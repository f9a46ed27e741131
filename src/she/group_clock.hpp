// GroupClock — the heart of SHE's hardware version (paper Sec. 3.3).
//
// The cell array is split into G groups.  Group gid carries a fixed time
// offset d_gid = -floor(Tcycle * gid / G), evenly spacing the groups'
// cleaning boundaries over one cycle, and a small stored time mark m[gid].
// The *current* mark of a group is
//
//     cur(gid, t) = floor((t + d_gid) / Tcycle) mod 2^mark_bits
//
// which flips once per Tcycle.  A group whose stored mark differs from the
// current mark has not been touched since its last cleaning boundary — its
// content is out-dated and must be reset before use (Algorithm 1's
// CheckGroup).  The *age* of a group,
//
//     age(gid, t) = (t + d_gid) mod Tcycle      (floored mod, in [0, Tcycle)),
//
// is the time since its most recent cleaning boundary and classifies its
// cells as young (< N), perfect (== N) or aged (> N).
//
// With the paper's 1-bit marks, a group untouched for two whole cycles
// aliases back to a "fresh" mark and retains stale content — the on-demand
// cleaning error analyzed in Sec. 5.1.  mark_bits > 1 suppresses that error
// exponentially and is provided for the ablation benches.
//
// The offsets are not stored: like the hardware's combinational logic, the
// clock computes d_gid from two constants, q = floor(Tcycle / G) and
// M = ceil((Tcycle mod G) * 2^64 / G), as
//
//     d_gid = -(q * gid + mulhi64(M, gid))
//
// which equals -floor(Tcycle * gid / G) for every gid < G <= 2^32: M's
// rounding error adds less than gid / 2^64 < 1/G to a fraction that is a
// multiple of 1/G below 1, so the floor never moves.  Neither term needs
// the Tcycle * gid product, which wraps 64 bits for large clocks.
//
// GroupClock owns only the marks; the estimator owning the cells performs
// the actual reset when touch() reports one is due.  Queries use stale() /
// age() and never mutate, so estimator query paths stay const.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/int_math.hpp"
#include "common/packed_array.hpp"

namespace she {

class GroupClock {
 public:
  /// `groups` groups, cleaning cycle of `tcycle` items, marks of
  /// `mark_bits` bits (1 = the paper's hardware design).  Throws
  /// std::invalid_argument unless 0 < groups <= 2^32 and tcycle > 0.
  GroupClock(std::size_t groups, std::uint64_t tcycle, unsigned mark_bits = 1);

  [[nodiscard]] std::size_t groups() const { return marks_.size(); }
  [[nodiscard]] std::uint64_t tcycle() const { return tcycle_; }

  /// Marks' memory footprint (counted toward the estimator's budget; the
  /// per-group offsets are derived constants, computed, as the hardware
  /// does, from two words per clock).
  [[nodiscard]] std::size_t memory_bytes() const { return marks_.memory_bytes(); }

  /// Fixed offset of a group: d_gid = -floor(Tcycle * gid / G), in
  /// (-Tcycle, 0].
  [[nodiscard]] std::int64_t offset(std::size_t gid) const {
    return -static_cast<std::int64_t>(step_ * gid + mulhi64(frac_, gid));
  }

  /// Warm the cache line holding group `gid`'s mark.  CheckGroup reads the
  /// mark before the cell, so batched inserts prefetch both; `write` is
  /// true on insert paths (touch may store) and false on query paths.
  void prefetch(std::size_t gid, bool write = true) const {
    marks_.prefetch(gid, write);
  }

  /// Current mark: floor((t + d_gid) / Tcycle) mod 2^mark_bits.
  [[nodiscard]] std::uint64_t current_mark(std::size_t gid, std::uint64_t t) const;

  /// Items since the group's latest cleaning boundary, in [0, Tcycle).
  [[nodiscard]] std::uint64_t age(std::size_t gid, std::uint64_t t) const;

  /// True if the stored mark lags the current mark, i.e. the group content
  /// predates its latest cleaning boundary and must be treated as zero.
  [[nodiscard]] bool stale(std::size_t gid, std::uint64_t t) const {
    return marks_.get(gid) != current_mark(gid, t);
  }

  /// Algorithm 1 CheckGroup: if the group is stale, record the current mark
  /// and return true — the caller must reset the group's cells.
  bool touch(std::size_t gid, std::uint64_t t);

  // --- Division-free batch staging -----------------------------------------
  //
  // current_mark()/age() each cost one 64-bit division, which dominates the
  // staged insert loop once hashing is vectorized.  The batch paths instead
  // carry the time in decomposed form, t = cycle * Tcycle + rem with
  // rem in [0, Tcycle): since every offset d_gid lies in (-Tcycle, 0],
  // s = rem + d_gid lies in (-Tcycle, Tcycle) and
  //
  //     current_mark = (cycle - (s < 0 ? 1 : 0)) mod 2^mark_bits
  //     age          = s < 0 ? s + Tcycle : s
  //
  // — one division per batch (in split()) instead of one per probe, and the
  // per-probe part is pure add/compare/mask, which is what the AVX2 kernels
  // below vectorize.  All of these produce bit-identical results to the
  // division forms; tests/test_simd.cpp asserts it.

  /// Time t decomposed as cycle * Tcycle + rem, rem in [0, Tcycle).
  struct TimeParts {
    std::int64_t cycle = 0;
    std::int64_t rem = 0;
  };

  [[nodiscard]] TimeParts split(std::uint64_t t) const {
    return {static_cast<std::int64_t>(t / tcycle_),
            static_cast<std::int64_t>(t % tcycle_)};
  }

  /// Advance decomposed time by one item (t -> t + 1).
  void tick(TimeParts& p) const {
    if (++p.rem == static_cast<std::int64_t>(tcycle_)) {
      p.rem = 0;
      ++p.cycle;
    }
  }

  /// Advance decomposed time from `from` to `to` (to >= from).  Small steps
  /// stay division-free; a jump of a full cycle or more re-splits.
  void advance(TimeParts& p, std::uint64_t from, std::uint64_t to) const {
    const std::uint64_t delta = to - from;
    if (delta >= tcycle_) {
      p = split(to);
      return;
    }
    p.rem += static_cast<std::int64_t>(delta);
    if (p.rem >= static_cast<std::int64_t>(tcycle_)) {
      p.rem -= static_cast<std::int64_t>(tcycle_);
      ++p.cycle;
    }
  }

  /// current_mark(gid, t) for p == split(t), division-free.
  [[nodiscard]] std::uint64_t current_mark_at(TimeParts p, std::size_t gid) const {
    const std::int64_t s = p.rem + offset(gid);
    return static_cast<std::uint64_t>(p.cycle - (s < 0 ? 1 : 0)) &
           marks_.max_value();
  }

  /// age(gid, t) for p == split(t), division-free and branch-free (the
  /// sign of s is a coin flip across groups): adds Tcycle exactly when
  /// s < 0, via the sign mask.
  [[nodiscard]] std::uint64_t age_at(TimeParts p, std::size_t gid) const {
    const std::int64_t s = p.rem + offset(gid);
    return static_cast<std::uint64_t>(
        s + (static_cast<std::int64_t>(tcycle_) & (s >> 63)));
  }

  /// The stored (possibly lagging) mark of a group.
  [[nodiscard]] std::uint64_t stored_mark(std::size_t gid) const {
    return marks_.get(gid);
  }

  /// CheckGroup against a mark precomputed by stage_marks*(): observable
  /// behavior (state + metrics) identical to touch(gid, t).  The fresh-mark
  /// case — all but one probe per group per cycle — is a single inline
  /// compare; only an actual cleaning takes the out-of-line path.
  bool touch_precomputed(std::size_t gid, std::uint64_t cur) {
    if (marks_.get(gid) == cur) return false;
    record_clean(gid, cur);
    return true;
  }

  /// curs[i] = current_mark_at(p, gids[i]); ages[i] = age_at(p, gids[i]) when
  /// `ages` is non-null.  Vectorized under AVX2 dispatch.
  void stage_marks(const std::uint32_t* gids, std::size_t n, TimeParts p,
                   std::uint32_t* curs, std::uint64_t* ages = nullptr) const;

  /// Same, over the contiguous group range [first, first + n) — the shape of
  /// full-array query scans and MinHash slot sweeps.
  void stage_marks_range(std::size_t first, std::size_t n, TimeParts p,
                         std::uint32_t* curs,
                         std::uint64_t* ages = nullptr) const;

  /// curs[i] = current mark of gids[i] at time t0 + i, where p0 == split(t0):
  /// the insert-batch shape, one item per slot.  Caller must guarantee
  /// p0.rem + n <= tcycle() so no lane wraps a cycle boundary (the estimators
  /// fall back to per-key staging when that fails, e.g. tiny test windows).
  void stage_marks_ramp(const std::uint32_t* gids, std::size_t n, TimeParts p0,
                        std::uint32_t* curs) const;

  /// curs[b * k + h] = current mark of gids[b * k + h] at time t0 + b, for b
  /// in [0, nkeys), h in [0, k): the k-probe insert shape, where key b's k
  /// slots all run at that key's time.  Same precondition as the ramp form,
  /// over keys: p0.rem + nkeys <= tcycle().
  void stage_marks_rep(const std::uint32_t* gids, std::size_t nkeys,
                       unsigned k, TimeParts p0, std::uint32_t* curs) const;

  /// Reset every mark to the state at time 0 (used by estimator clear()).
  void reset();

  /// Checkpoint to / restore from a binary stream.  load() reads a clock
  /// of the given geometry; it throws SerializeError, before building
  /// anything, when the stream's tcycle, group count or mark width differ,
  /// and keeps the loaded marks without resetting first.
  void save(BinaryWriter& out) const;
  static GroupClock load(BinaryReader& in, std::size_t groups,
                         std::uint64_t tcycle, unsigned mark_bits);

 private:
  /// A clock over `marks` as they are (no reset); the geometry is valid.
  GroupClock(std::uint64_t tcycle, PackedArray marks);

  /// Slow path of touch_precomputed(): store the new mark and account the
  /// cleaning in metrics.  Precondition: marks_.get(gid) != cur.
  void record_clean(std::size_t gid, std::uint64_t cur);

  std::uint64_t tcycle_;
  std::uint64_t step_;  // q = floor(Tcycle / G)
  std::uint64_t frac_;  // M = ceil((Tcycle mod G) * 2^64 / G)
  PackedArray marks_;
};

}  // namespace she
