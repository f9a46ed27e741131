// The two-stage block pipeline behind every batched insert and point query
// (driven by csm::SlidingEstimator, csm.hpp).
//
// SHE's insert is a single-stage memory operation per hashed cell, so on a
// CPU the hot path is latency-bound: hash(key) -> load line -> update is one
// long dependency chain per item once the cell array outgrows the cache.
// Because the Common Sketch Model separates *where* an update lands
// (position(key, i), time-independent) from *what* it does (F and the
// CheckGroup against the current time), any CSM sketch can be software-
// pipelined the same way:
//
//   stage 1  hash a whole block of keys (the policy's hash hook, on the
//            kernels of common/simd_hash.hpp), stage every probe's GroupClock
//            mark, and prefetch the touched cell *and* mark lines
//            (CheckGroup reads the mark before the cell);
//   stage 2  replay the slots in arrival order, advancing the stream clock
//            once per key and applying CheckGroup + F exactly as the per-key
//            method would (or, for a query batch, evaluating the probes).
//
// Every kernel dispatches to AVX2 / NEON or to its scalar loop
// (SHE_FORCE_SCALAR pins the scalar ones; both are bit-identical), and
// positions never depend on time_, so hashing ahead changes nothing
// observable: the per-key methods are the reference tests/test_batch.cpp
// compares the bytes against.
//
// The stages are double-buffered: block i+1 is hashed and prefetched
// *before* block i is applied, so every prefetch has a full block's worth
// of updates to land behind.  The tail shorter than a block runs through
// the same stages.  kSlotBudget caps the scratch footprint so a high-K
// sketch degrades to small blocks instead of blowing the L1; kMaxBlock caps
// lookahead so prefetched lines are still resident when stage 2 reaches
// them.  See docs/INTERNALS.md §13.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "she/group_clock.hpp"

namespace she::batch {

/// One staged probe: the cell index, its group, and a precomputed word so
/// stage 2 never re-hashes or divides.  An insert stages the group's
/// current GroupClock mark in the high half of `aux` and the policy's
/// staged word (SHE-HLL's rank, SHE-MH's candidate minimum) in the low
/// half; a query stages age << 1 | stale.  Positions fit 32 bits on every
/// shape the block stage takes (stageable()).
struct Slot {
  std::uint32_t pos;
  std::uint32_t gid;
  std::uint64_t aux;
};

inline constexpr std::size_t kMaxBlock = 32;    ///< keys staged per block
inline constexpr std::size_t kSlotBudget = 256; ///< max staged slots per block

/// Keys per block for a sketch probing `k` cells per insert.
[[nodiscard]] constexpr std::size_t block_keys(unsigned k) {
  const std::size_t by_budget = kSlotBudget / std::max(1u, k);
  return std::clamp<std::size_t>(by_budget, 1, kMaxBlock);
}

/// Slots pipelined_blocks stages at once for `k` probes per key: two
/// blocks, stage b+1 while applying b.  At most 2 * kSlotBudget whenever
/// k <= kSlotBudget.
[[nodiscard]] constexpr std::size_t scratch_slots(unsigned k) {
  return 2 * block_keys(k) * k;
}

/// True when a sketch of `cells` cells probing `k` of them per key fits the
/// block stage: positions fit the kernels' 32-bit lanes, and one key's
/// probes fit the per-block stack buffers.  Any other shape (more than 2^32
/// cells, more than kSlotBudget hash functions) runs the per-key methods in
/// a plain loop instead.
[[nodiscard]] constexpr bool stageable(std::size_t cells, unsigned k = 1) {
  return cells <= std::size_t{0xFFFFFFFFu} && k <= kSlotBudget;
}

/// Arrays below this footprint are effectively cache-resident: prefetching
/// them spends request slots (and drops on TLB misses) without hiding any
/// latency, so estimators gate each warm target on its memory_bytes().
inline constexpr std::size_t kPrefetchFootprint = std::size_t{1} << 19;

/// Fetch the line holding `p`; `write` picks the exclusive-state hint so
/// query batches don't steal lines from concurrent writers.
inline void prefetch_addr(const void* p, bool write) {
#if defined(__GNUC__) || defined(__clang__)
  if (write)
    __builtin_prefetch(p, 1, 3);
  else
    __builtin_prefetch(p, 0, 3);
#else
  (void)p;
  (void)write;
#endif
}

/// The two-stage pipeline over `keys`, `k` probes per key.
///
///   stage(begin, n, out)   stage 1, once per block: fill out[0 .. n*k)
///                          key-major for keys[begin .. begin+n) and issue
///                          the block's prefetches
///   each(index, slots)     stage 2, once per key in arrival order, with
///                          that key's k staged slots (an insert advances
///                          the clock and applies CheckGroup + F; a query
///                          evaluates its probes)
///
/// `scratch` is caller-owned, so steady-state batches never allocate, and
/// holds the double buffer: at least scratch_slots(k) slots.
/// Always inlined: stage 2 must be fused into the caller's loop so its
/// captures stay in registers (an out-of-line copy reloads them per key).
template <typename StageFn, typename EachFn>
[[gnu::always_inline]] inline void pipelined_blocks(std::span<const std::uint64_t> keys, unsigned k,
                      std::span<Slot> scratch, StageFn&& stage,
                      EachFn&& each) {
  const std::size_t block = block_keys(k);
  const std::size_t nkeys = keys.size();

  // Block b+1 is hashed and prefetched *before* block b is applied, so its
  // prefetches have a whole block's worth of updates to land behind.
  std::size_t cur = 0;
  std::size_t cur_n = std::min(block, nkeys);
  std::size_t buf = 0;
  if (cur_n > 0) stage(cur, cur_n, scratch.data());
  while (cur < nkeys) {
    const std::size_t next = cur + cur_n;
    const std::size_t next_n = next < nkeys ? std::min(block, nkeys - next) : 0;
    if (next_n > 0) stage(next, next_n, scratch.data() + (1 - buf) * block * k);
    const Slot* in = scratch.data() + buf * block * k;
    for (std::size_t b = 0; b < cur_n; ++b) each(cur + b, in + b * k);
    cur = next;
    cur_n = next_n;
    buf = 1 - buf;
  }
}

/// insert_at_batch argument validation: per-key timestamps must pair 1:1
/// with keys and never move backwards (same contract, and same message, as
/// the per-key insert_at).  Validated up front so the pipeline can assign
/// times without re-checking.
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

/// Stages current GroupClock marks for one block of an insert batch, k
/// probes per key, key-major: curs[b * k + h] = current mark of
/// gids[b * k + h] at key b's time.  Key b of the batch runs at times[b]
/// when explicit timestamps were given, or t0 + b + 1 for plain
/// insert_batch (t0 = stream time at batch entry).
///
/// The common shape — implicit times, no cycle boundary inside the block —
/// takes the vectorized kernel; blocks that straddle a boundary (tiny test
/// windows) or carry explicit timestamps stage per key, still
/// division-free via TimeParts.
class MarkStager {
 public:
  MarkStager(const GroupClock& clock, std::uint64_t t0,
             const std::uint64_t* times)
      : clock_(clock), t0_(t0), times_(times) {}

  /// Time of key `index` of the batch.
  [[nodiscard]] std::uint64_t time_of(std::size_t index) const {
    return times_ != nullptr ? times_[index] : t0_ + index + 1;
  }

  void stage(std::size_t begin, std::size_t n, unsigned k,
             const std::uint32_t* gids, std::uint32_t* curs) const {
    GroupClock::TimeParts p = clock_.split(time_of(begin));
    if (times_ == nullptr && p.rem + static_cast<std::int64_t>(n) <=
                                 static_cast<std::int64_t>(clock_.tcycle())) {
      clock_.stage_marks_rep(gids, n, k, p, curs);
      return;
    }
    for (std::size_t b = 0; b < n; ++b) {
      if (b > 0) clock_.advance(p, time_of(begin + b - 1), time_of(begin + b));
      for (unsigned h = 0; h < k; ++h)
        curs[b * k + h] = static_cast<std::uint32_t>(
            clock_.current_mark_at(p, gids[b * k + h]));
    }
  }

 private:
  const GroupClock& clock_;
  std::uint64_t t0_;
  const std::uint64_t* times_;
};

}  // namespace she::batch
