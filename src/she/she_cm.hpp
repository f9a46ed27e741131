// SHE-CM — Count-Min sketch under the SHE framework (paper Sec. 4.4).
//
// Insert adds 1 to each of the k hashed 32-bit counters after CheckGroup-ing
// their groups.  The frequency query takes the minimum over the *mature*
// probed counters (age >= N); young counters are ignored because they may
// have lost in-window increments, which would break Count-Min's
// never-underestimate guarantee.  If every probe lands on a young group
// (probability (N/Tcycle)^k, e.g. 2^-8 at alpha = 1, k = 8) the query falls
// back to the minimum over all probes and may underestimate — the only
// two-sided corner, surfaced via `all_young_queries()`.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bobhash.hpp"
#include "she/batch.hpp"
#include "she/config.hpp"
#include "she/group_clock.hpp"

namespace she {

class SheCountMin {
 public:
  SheCountMin(const SheConfig& cfg, unsigned hashes);

  /// Insert one item; advances the stream clock by one.
  void insert(std::uint64_t key);

  /// Insert a batch (bit-for-bit equivalent to insert() per key, in
  /// order) via the generic she::batch pipeline: the k counter positions
  /// are hashed a block ahead and the counter + mark lines prefetched —
  /// the same latency-hiding win as SHE-BF once the table leaves cache.
  void insert_batch(std::span<const std::uint64_t> keys);

  /// insert_batch that also writes estimates[i] = frequency(keys[i]) as
  /// answered right after keys[i]'s own update: bit-identical to
  /// `insert(k); frequency(k)` per key, all_young_queries() and the
  /// age-class telemetry included.  The estimate is fused into stage 2 —
  /// it reads the k cells the update just wrote, so nothing is re-hashed.
  /// Throws std::invalid_argument when `estimates` is shorter than `keys`.
  void insert_batch_estimates(std::span<const std::uint64_t> keys,
                              std::span<std::uint64_t> estimates);

  /// Time-based windows: insert at explicit timestamp `t` (monotone
  /// non-decreasing; throws std::invalid_argument if it moves backwards).
  /// With insert_at, `window` counts time units instead of items.
  void insert_at(std::uint64_t key, std::uint64_t t);

  /// Batched insert_at: key[i] inserted at times[i] (monotone
  /// non-decreasing, validated up front; throws like insert_at).  Runs the
  /// same batch pipeline as insert_batch.
  void insert_at_batch(std::span<const std::uint64_t> keys,
                       std::span<const std::uint64_t> times);

  /// Advance the clock to `t` without inserting, so queries reflect the
  /// window (t - N, t] even during arrival gaps.
  void advance_to(std::uint64_t t);

  /// Estimated frequency of `key` in the last-N window.
  [[nodiscard]] std::uint64_t frequency(std::uint64_t key) const {
    return frequency(key, cfg_.window);
  }

  /// Multi-window query: frequency in the last `window` items for any
  /// window in [1, N] — counters with age >= window never under-count the
  /// sub-window; smaller windows include more aged overshoot.
  [[nodiscard]] std::uint64_t frequency(std::uint64_t key,
                                        std::uint64_t window) const;

  /// Batched frequency: answers are element-wise identical to
  /// frequency(keys[i], window) but the probe positions are hashed a block
  /// ahead with read-hinted prefetches.
  void frequency_batch(std::span<const std::uint64_t> keys,
                       std::span<std::uint64_t> out) const {
    frequency_batch(keys, out, cfg_.window);
  }
  void frequency_batch(std::span<const std::uint64_t> keys,
                       std::span<std::uint64_t> out,
                       std::uint64_t window) const;

  void clear();

  [[nodiscard]] std::uint64_t time() const { return time_; }
  [[nodiscard]] const SheConfig& config() const { return cfg_; }
  [[nodiscard]] unsigned hash_count() const { return hashes_; }

  /// Queries so far whose probes were all young (fallback path taken).
  [[nodiscard]] std::uint64_t all_young_queries() const {
    return all_young_.get();
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    return cells_.size() * sizeof(std::uint32_t) + clock_.memory_bytes();
  }

  /// Checkpoint the full sliding-window state; load() resumes with
  /// identical answers (the all-young diagnostic counter restarts at 0).
  void save(BinaryWriter& out) const;
  static SheCountMin load(BinaryReader& in);

 private:
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned i) const {
    return BobHash32(cfg_.seed + i)(key) % cfg_.cells;
  }

  // Whether the batch calls take the block stage (batch::stageable) or
  // loop over the per-key methods.
  [[nodiscard]] bool stageable() const {
    return batch::stageable(cfg_.cells, hashes_);
  }

  // Shared batch-insert core: times == nullptr means +1 per key; a non-null
  // `estimates` (implicit times only) receives each key's post-update
  // frequency.
  void insert_many(std::span<const std::uint64_t> keys,
                   const std::uint64_t* times, std::uint64_t* estimates);

  // frequency() of the key whose k staged slots are `slots`, evaluated
  // right after that key's update at `now` == split(time_).  Slot aux
  // holds the group id in its low 32 bits.
  [[nodiscard]] std::uint64_t estimate_staged(const batch::Slot* slots,
                                              GroupClock::TimeParts now) const;

  SheConfig cfg_;
  unsigned hashes_;
  GroupClock clock_;
  std::vector<std::uint32_t> cells_;
  std::uint64_t time_ = 0;

  /// The one field a const query writes.  A relaxed atomic, so concurrent
  /// queries on one shared estimator (a published pipeline view) count
  /// without a data race; copies carry the value.
  class QueryCounter {
   public:
    QueryCounter() = default;
    QueryCounter(const QueryCounter& o) noexcept : n_(o.get()) {}
    QueryCounter& operator=(const QueryCounter& o) noexcept {
      n_.store(o.get(), std::memory_order_relaxed);
      return *this;
    }
    void inc() { n_.fetch_add(1, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t get() const {
      return n_.load(std::memory_order_relaxed);
    }

   private:
    std::atomic<std::uint64_t> n_{0};
  };
  mutable QueryCounter all_young_;
  std::vector<batch::Slot> scratch_;  // insert_batch staging (not state)
};

}  // namespace she
