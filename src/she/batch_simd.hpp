// Shared pieces of the block stage 1 (see docs/INTERNALS.md §13).
//
// Each estimator has one batch body: pipelined_blocks() with a block-wide
// stage 1 that hashes the whole block per probe (simd::bobhash32_keys and
// friends), reduces positions with division-free FastDiv32, and precomputes
// GroupClock marks (stage_marks_ramp) so stage 2 never divides.  The
// kernels dispatch per call: AVX2 / NEON lanes, or their scalar tails when
// no vector backend is present or SHE_FORCE_SCALAR pins them.  The tails
// are bit-identical to the lanes, and stage 2 is the same CheckGroup + F
// loop either way; tests/test_simd.cpp drives the two dispatch outcomes
// differentially, and tests/test_batch.cpp compares both against the
// per-key methods, which are the reference.
//
// This header carries the parts every estimator shares: timestamp
// validation for the batched insert_at, and the per-block mark stager that
// handles implicit (+1/key) and explicit timestamps.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "common/int_math.hpp"
#include "common/simd_hash.hpp"
#include "she/batch.hpp"
#include "she/group_clock.hpp"

namespace she::batch {

/// insert_at_batch argument validation, shared by all five estimators:
/// per-key timestamps must pair 1:1 with keys and never move backwards
/// (same contract, and same message, as scalar insert_at).  Validated up
/// front so the batch pipeline can assign times without re-checking.
inline void validate_insert_times(std::span<const std::uint64_t> keys,
                                  std::span<const std::uint64_t> times,
                                  std::uint64_t now, const char* who) {
  if (times.size() != keys.size())
    throw std::invalid_argument(std::string(who) +
                                ": insert_at_batch keys/times size mismatch");
  std::uint64_t prev = now;
  for (std::uint64_t t : times) {
    if (t < prev)
      throw std::invalid_argument(std::string(who) +
                                  ": time must not move backwards");
    prev = t;
  }
}

/// Stages current GroupClock marks for one block of an insert batch.
/// Key b of the batch runs at times[b] when explicit timestamps were given,
/// or t0 + b + 1 for plain insert_batch (t0 = stream time at batch entry).
///
/// The common shape — implicit times, no cycle boundary inside the block —
/// takes the vectorized ramp kernel; blocks that straddle a boundary (tiny
/// test windows) or carry explicit timestamps stage per key, still
/// division-free via TimeParts.
class MarkStager {
 public:
  MarkStager(const GroupClock& clock, std::uint64_t t0,
             const std::uint64_t* times)
      : clock_(clock), t0_(t0), times_(times) {}

  void stage(std::size_t begin, std::size_t n, const std::uint32_t* gids,
             std::uint32_t* curs) const {
    if (times_ == nullptr) {
      GroupClock::TimeParts p = clock_.split(t0_ + begin + 1);
      if (p.rem + static_cast<std::int64_t>(n) <=
          static_cast<std::int64_t>(clock_.tcycle())) {
        clock_.stage_marks_ramp(gids, n, p, curs);
        return;
      }
      for (std::size_t b = 0; b < n; ++b) {
        curs[b] =
            static_cast<std::uint32_t>(clock_.current_mark_at(p, gids[b]));
        clock_.tick(p);
      }
      return;
    }
    GroupClock::TimeParts p = clock_.split(times_[begin]);
    for (std::size_t b = 0; b < n; ++b) {
      if (b > 0) clock_.advance(p, times_[begin + b - 1], times_[begin + b]);
      curs[b] = static_cast<std::uint32_t>(clock_.current_mark_at(p, gids[b]));
    }
  }

  /// Key-major, k probes per key: curs[b * k + h] = current mark of
  /// gids[b * k + h] at key b's time.  The fused BF/CM stage calls this once
  /// per block instead of once per probe.
  void stage_rep(std::size_t begin, std::size_t n, unsigned k,
                 const std::uint32_t* gids, std::uint32_t* curs) const {
    if (times_ == nullptr) {
      GroupClock::TimeParts p = clock_.split(t0_ + begin + 1);
      if (p.rem + static_cast<std::int64_t>(n) <=
          static_cast<std::int64_t>(clock_.tcycle())) {
        clock_.stage_marks_rep(gids, n, k, p, curs);
        return;
      }
      for (std::size_t b = 0; b < n; ++b) {
        for (unsigned h = 0; h < k; ++h) {
          curs[b * k + h] = static_cast<std::uint32_t>(
              clock_.current_mark_at(p, gids[b * k + h]));
        }
        clock_.tick(p);
      }
      return;
    }
    GroupClock::TimeParts p = clock_.split(times_[begin]);
    for (std::size_t b = 0; b < n; ++b) {
      if (b > 0) clock_.advance(p, times_[begin + b - 1], times_[begin + b]);
      for (unsigned h = 0; h < k; ++h) {
        curs[b * k + h] = static_cast<std::uint32_t>(
            clock_.current_mark_at(p, gids[b * k + h]));
      }
    }
  }

  /// Time of key `index` of the batch (used by the all-slots MinHash stage,
  /// which re-splits per key because every slot shares that key's time).
  [[nodiscard]] std::uint64_t time_of(std::size_t index) const {
    return times_ != nullptr ? times_[index] : t0_ + index + 1;
  }

 private:
  const GroupClock& clock_;
  std::uint64_t t0_;
  const std::uint64_t* times_;
};

}  // namespace she::batch
