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
//   stage 1  hash a block of keys, record every (cell, aux) slot, and issue
//            prefetches for the touched cell words *and* the GroupClock mark
//            words (CheckGroup reads the mark before the cell, so a cold
//            mark line stalls the update just as surely as a cold cell);
//   stage 2  replay the recorded slots in arrival order, advancing the
//            stream clock once per key and applying CheckGroup + F exactly
//            as the scalar path would.
//
// Stage 2 is byte-for-byte the scalar loop — positions never depend on
// time_, so hashing ahead changes nothing observable.  The two stages are
// double-buffered: block i+1 is hashed and prefetched *before* block i is
// applied, so every prefetch has a full block's worth of updates (not just
// the staging loop) to land behind before its line is demanded.  The tail
// shorter than a block runs through the same two stages, so per-key metric
// accounting is uniform across block and tail (one hash-call increment per
// batch, no scalar-path double counting).
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

/// One staged update: the cell index plus an optional precomputed value
/// (SHE-HLL stages the rank, SHE-MH the candidate minimum) so stage 2 never
/// re-hashes.
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

/// Default stage-2 completion hook: nothing to do once a key is applied.
struct NoFinish {
  void operator()(std::size_t, const Slot*) const noexcept {}
};

/// The two-stage pipeline over `keys`, `k` probes per key.
///
///   hash(key, probe) -> Slot        stage 1, once per (key, probe)
///   warm(slot)                      stage 1, issue prefetches
///   tick()                          stage 2, once per key, before its applies
///   apply(key, probe, slot)         stage 2, CheckGroup + F
///   finish(index, slots)            stage 2, once per key, after its applies
///                                   (SHE-CM reads its post-update estimate
///                                   from the k slots still in L1)
///
/// `scratch` is caller-owned so steady-state batches never allocate.
template <typename HashFn, typename WarmFn, typename TickFn, typename ApplyFn,
          typename FinishFn = NoFinish>
void pipelined(std::span<const std::uint64_t> keys, unsigned k,
               std::vector<Slot>& scratch, HashFn&& hash, WarmFn&& warm,
               TickFn&& tick, ApplyFn&& apply, FinishFn&& finish = {}) {
  const std::size_t block = block_keys(k);
  scratch.resize(2 * block * k);  // double buffer: stage b+1 while applying b
  const std::size_t nkeys = keys.size();

  auto stage = [&](std::size_t begin, std::size_t n, Slot* buf) {
    Slot* out = buf;
    for (std::size_t b = 0; b < n; ++b) {
      for (unsigned h = 0; h < k; ++h) {
        *out = hash(keys[begin + b], h);
        warm(*out);
        ++out;
      }
    }
  };
  auto drain = [&](std::size_t begin, std::size_t n, const Slot* in) {
    for (std::size_t b = 0; b < n; ++b, in += k) {
      tick();
      for (unsigned h = 0; h < k; ++h) apply(keys[begin + b], h, in[h]);
      finish(begin + b, in);
    }
  };

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
    drain(cur, cur_n, scratch.data() + buf * block * k);
    cur = next;
    cur_n = next_n;
    buf = 1 - buf;
  }
}

/// Block-stage variant of pipelined(): stage 1 receives the whole block
/// (`stage(begin, n, out)` must fill out[0 .. n*k) key-major and issue its
/// own prefetches) instead of one (key, probe) at a time.  This is the entry
/// point for the SIMD front-end — a lane-parallel stage hashes 8–16 keys per
/// instruction and precomputes GroupClock marks division-free — while stage 2
/// (tick + apply, the part that mutates cells in arrival order) remains the
/// exact scalar loop, so observable state is identical whichever stage-1
/// implementation ran.  Double-buffering and the `finish` hook are
/// unchanged.
template <typename StageFn, typename TickFn, typename ApplyFn,
          typename FinishFn = NoFinish>
void pipelined_blocks(std::span<const std::uint64_t> keys, unsigned k,
                      std::vector<Slot>& scratch, StageFn&& stage,
                      TickFn&& tick, ApplyFn&& apply, FinishFn&& finish = {}) {
  const std::size_t block = block_keys(k);
  scratch.resize(2 * block * k);
  const std::size_t nkeys = keys.size();

  auto drain = [&](std::size_t begin, std::size_t n, const Slot* in) {
    for (std::size_t b = 0; b < n; ++b, in += k) {
      tick();
      for (unsigned h = 0; h < k; ++h) apply(keys[begin + b], h, in[h]);
      finish(begin + b, in);
    }
  };

  std::size_t cur = 0;
  std::size_t cur_n = std::min(block, nkeys);
  std::size_t buf = 0;
  if (cur_n > 0) stage(cur, cur_n, scratch.data());
  while (cur < nkeys) {
    const std::size_t next = cur + cur_n;
    const std::size_t next_n = next < nkeys ? std::min(block, nkeys - next) : 0;
    if (next_n > 0) stage(next, next_n, scratch.data() + (1 - buf) * block * k);
    drain(cur, cur_n, scratch.data() + buf * block * k);
    cur = next;
    cur_n = next_n;
    buf = 1 - buf;
  }
}

/// Block-stage variant of pipelined_query(), same contract as
/// pipelined_blocks(): `stage(begin, n, out)` fills n*k slots key-major,
/// `eval(index, slots)` sees each key's k staged slots in arrival order.
template <typename StageFn, typename EvalFn>
void pipelined_query_blocks(std::span<const std::uint64_t> keys, unsigned k,
                            std::vector<Slot>& scratch, StageFn&& stage,
                            EvalFn&& eval) {
  const std::size_t block = block_keys(k);
  scratch.resize(2 * block * k);
  const std::size_t nkeys = keys.size();

  std::size_t cur = 0;
  std::size_t cur_n = std::min(block, nkeys);
  std::size_t buf = 0;
  if (cur_n > 0) stage(cur, cur_n, scratch.data());
  while (cur < nkeys) {
    const std::size_t next = cur + cur_n;
    const std::size_t next_n = next < nkeys ? std::min(block, nkeys - next) : 0;
    if (next_n > 0) stage(next, next_n, scratch.data() + (1 - buf) * block * k);
    const Slot* in = scratch.data() + buf * block * k;
    for (std::size_t b = 0; b < cur_n; ++b) eval(cur + b, in + b * k);
    cur = next;
    cur_n = next_n;
    buf = 1 - buf;
  }
}

/// Read-side variant: stage and prefetch a block of probe positions, then
/// hand each key's `k` staged slots to `eval` in arrival order.  Evaluation
/// sees exactly the slots the scalar query would probe; only the memory
/// timing differs.
template <typename HashFn, typename WarmFn, typename EvalFn>
void pipelined_query(std::span<const std::uint64_t> keys, unsigned k,
                     std::vector<Slot>& scratch, HashFn&& hash, WarmFn&& warm,
                     EvalFn&& eval) {
  const std::size_t block = block_keys(k);
  scratch.resize(2 * block * k);  // double buffer, as in pipelined()
  const std::size_t nkeys = keys.size();

  auto stage = [&](std::size_t begin, std::size_t n, Slot* out) {
    for (std::size_t b = 0; b < n; ++b) {
      for (unsigned h = 0; h < k; ++h) {
        *out = hash(keys[begin + b], h);
        warm(*out);
        ++out;
      }
    }
  };

  std::size_t cur = 0;
  std::size_t cur_n = std::min(block, nkeys);
  std::size_t buf = 0;
  if (cur_n > 0) stage(cur, cur_n, scratch.data());
  while (cur < nkeys) {
    const std::size_t next = cur + cur_n;
    const std::size_t next_n = next < nkeys ? std::min(block, nkeys - next) : 0;
    if (next_n > 0) stage(next, next_n, scratch.data() + (1 - buf) * block * k);
    const Slot* in = scratch.data() + buf * block * k;
    for (std::size_t b = 0; b < cur_n; ++b) eval(cur + b, in + b * k);
    cur = next;
    cur_n = next_n;
    buf = 1 - buf;
  }
}

}  // namespace she::batch
