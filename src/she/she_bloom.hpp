// SHE-BF — Bloom filter under the SHE framework (paper Sec. 4.2), the
// hardware (lazy group-cleaning) version.
//
// Insert sets the k hashed bits after CheckGroup-ing their groups.  Query
// *ignores young bits* (age < N) and requires every remaining probed bit to
// be 1; a stale group reads as all-zero.  This preserves the Bloom filter's
// one-sided error exactly: SHE-BF never reports a false negative (property-
// tested), and false positives shrink as memory grows or alpha approaches
// the Eq. (2) optimum.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_array.hpp"
#include "common/bobhash.hpp"
#include "she/batch.hpp"
#include "she/config.hpp"
#include "she/group_clock.hpp"

namespace she {

class SheBloomFilter {
 public:
  /// `cfg.cells` bits in groups of `cfg.group_cells`, probed by `hashes`
  /// hash functions.  Default alpha for SHE-BF should come from
  /// optimal_alpha_bf() (the paper uses ~3 at its default settings).
  SheBloomFilter(const SheConfig& cfg, unsigned hashes);

  /// Insert one item; advances the stream clock by one.
  void insert(std::uint64_t key);

  /// Insert a batch (bit-for-bit equivalent to insert() per key, in
  /// order).  Runs the generic she::batch pipeline: hashes are computed a
  /// block ahead and the touched bit and mark lines prefetched, hiding
  /// DRAM latency when the bit array outgrows the cache.  Under vector
  /// dispatch (common/simd.hpp) stage 1 hashes 8–16 keys per instruction;
  /// the scalar kernels it otherwise runs are bit-identical.  More than
  /// batch::kSlotBudget hash functions loop over insert() instead.
  void insert_batch(std::span<const std::uint64_t> keys);

  /// Time-based windows: insert at explicit timestamp `t` (monotone
  /// non-decreasing; throws std::invalid_argument if it moves backwards).
  /// With insert_at, `window` counts time units instead of items.
  void insert_at(std::uint64_t key, std::uint64_t t);

  /// Batched insert_at: key[i] inserted at times[i] (monotone
  /// non-decreasing, validated up front; throws like insert_at).  Runs the
  /// same batch pipeline as insert_batch, so time-based wrappers get the
  /// staged hot path instead of a per-item loop.
  void insert_at_batch(std::span<const std::uint64_t> keys,
                       std::span<const std::uint64_t> times);

  /// Advance the clock to `t` without inserting, so queries reflect the
  /// window (t - N, t] even during arrival gaps.
  void advance_to(std::uint64_t t);

  /// Membership of `key` in the last-N window.  One-sided: a `false` answer
  /// is always correct; `true` may be a false positive.
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return contains(key, cfg_.window);
  }

  /// Multi-window query: membership in the last `window` items for any
  /// window in [1, N] — one SHE structure answers every sub-window, with
  /// the same one-sided guarantee (cells of age >= window are usable; a
  /// zero such cell proves absence from the sub-window).  Smaller windows
  /// leave fewer usable probes, raising the FPR.
  [[nodiscard]] bool contains(std::uint64_t key, std::uint64_t window) const;

  /// Batched membership: answers are element-wise identical to
  /// contains(keys[i], window) but probe positions are hashed a block ahead
  /// with read-hinted prefetches (shared lines, nothing taken exclusive).
  /// out[i] != 0 means present.  Throws like contains() on a bad window.
  void contains_batch(std::span<const std::uint64_t> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch(keys, out, cfg_.window);
  }
  void contains_batch(std::span<const std::uint64_t> keys,
                      std::span<std::uint8_t> out, std::uint64_t window) const;

  /// Reset to the empty state at time 0.
  void clear();

  [[nodiscard]] std::uint64_t time() const { return time_; }
  [[nodiscard]] const SheConfig& config() const { return cfg_; }
  [[nodiscard]] unsigned hash_count() const { return hashes_; }

  /// Payload + time-mark bytes (the figures' memory axis).
  [[nodiscard]] std::size_t memory_bytes() const {
    return bits_.memory_bytes() + clock_.memory_bytes();
  }

  /// Checkpoint the full sliding-window state; load() resumes with
  /// identical answers.
  void save(BinaryWriter& out) const;
  static SheBloomFilter load(BinaryReader& in);

 private:
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned i) const {
    return BobHash32(cfg_.seed + i)(key) % cfg_.cells;
  }

  // Whether the batch calls take the block stage (batch::stageable) or
  // loop over the per-key methods.
  [[nodiscard]] bool stageable() const {
    return batch::stageable(cfg_.cells, hashes_);
  }

  // Shared batch-insert core: times == nullptr means +1 per key.
  void insert_many(std::span<const std::uint64_t> keys,
                   const std::uint64_t* times);

  SheConfig cfg_;
  unsigned hashes_;
  GroupClock clock_;
  BitArray bits_;
  std::uint64_t time_ = 0;
  std::vector<batch::Slot> scratch_;  // insert_batch staging (not state)
};

}  // namespace she
