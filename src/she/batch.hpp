// Generic hash-ahead + prefetch batching for every CSM instantiation.
//
// SHE's insert is a single-stage memory operation per hashed cell, so on a
// CPU the hot path is latency-bound: hash(key) -> load line -> update is one
// long dependency chain per item once the cell array outgrows the cache.
// Because the Common Sketch Model separates *where* an update lands
// (position(key, i), time-independent) from *what* it does (F and the
// CheckGroup against the current time), any CSM sketch can be software-
// pipelined the same way:
//
//   stage 1  hash a whole block of keys, record every (cell, aux) slot, and
//            issue prefetches for the touched cell words *and* the
//            GroupClock mark words (CheckGroup reads the mark before the
//            cell, so a cold mark line stalls the update just as surely as
//            a cold cell);
//   stage 2  replay the recorded slots in arrival order, advancing the
//            stream clock once per key and applying CheckGroup + F exactly
//            as the per-key method would (or, for a query batch, evaluating
//            each key's probes).
//
// There is one stage 1 per estimator: the block kernels of
// common/simd_hash.hpp and the GroupClock staging calls, which dispatch to
// AVX2 / NEON or to their scalar loops (SHE_FORCE_SCALAR pins the scalar
// ones; both are bit-identical).  Stage 2 never depends on which kernel ran,
// and positions never depend on time_, so hashing ahead changes nothing
// observable: the per-key insert_at / contains / frequency methods are the
// reference tests/test_batch.cpp compares the bytes against.
//
// The two stages are double-buffered: block i+1 is hashed and prefetched
// *before* block i is applied, so every prefetch has a full block's worth
// of updates (not just the staging loop) to land behind before its line is
// demanded.  The tail shorter than a block runs through the same two
// stages, so per-key metric accounting is uniform across block and tail.
//
// Block sizing: kSlotBudget caps the scratch footprint so a high-K sketch
// (SHE-MH probes every cell) degrades to small blocks instead of blowing
// the L1; kMaxBlock caps lookahead so prefetched lines are still resident
// when stage 2 reaches them.  See docs/INTERNALS.md "Batched hot path".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace she::batch {

/// One staged probe: the cell index plus a precomputed word (the staged
/// GroupClock mark and group id, SHE-HLL's rank, SHE-MH's candidate
/// minimum, or a query's age and staleness) so stage 2 never re-hashes.
struct Slot {
  std::size_t pos;
  std::uint64_t aux;
};

inline constexpr std::size_t kMaxBlock = 32;    ///< keys staged per block
inline constexpr std::size_t kSlotBudget = 256; ///< max staged slots per block

/// Keys per block for a sketch probing `k` cells per insert.
[[nodiscard]] constexpr std::size_t block_keys(unsigned k) {
  const std::size_t by_budget = kSlotBudget / std::max(1u, k);
  return std::clamp<std::size_t>(by_budget, 1, kMaxBlock);
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
/// `scratch` is caller-owned so steady-state batches never allocate.
template <typename StageFn, typename EachFn>
void pipelined_blocks(std::span<const std::uint64_t> keys, unsigned k,
                      std::vector<Slot>& scratch, StageFn&& stage,
                      EachFn&& each) {
  const std::size_t block = block_keys(k);
  scratch.resize(2 * block * k);  // double buffer: stage b+1 while applying b
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

}  // namespace she::batch
