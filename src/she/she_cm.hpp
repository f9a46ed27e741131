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
//
// Inserts, time, save/load and the batch pipeline come from the engine
// (csm.hpp); this class adds the frequency query and the fused
// insert-then-estimate batch.  The engine is a private base: clear() must
// also reset the all-young counter, so no caller may reach the engine's.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "common/bobhash.hpp"
#include "she/csm.hpp"

namespace she {
namespace csm {

/// Count-Min: <counter, k, F(x,y) = y + 1>, saturating.
struct CountMinPolicy {
  using Cell = std::uint32_t;
  static constexpr const char* kName = "SheCountMin";
  static constexpr char kTag[5] = "SHCM";
  unsigned hashes = 8;
  std::uint32_t seed = 0;

  [[nodiscard]] unsigned probes(std::size_t) const { return hashes; }
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned i,
                                     std::size_t cells) const {
    return BobHash32(seed + i)(key) % cells;
  }
  [[nodiscard]] Cell update(std::uint64_t, unsigned, Cell old) const {
    return old == ~Cell{0} ? old : old + 1;
  }
  static Cell empty_cell() { return 0; }
  static std::size_t cell_bits() { return 32; }

  void hash_block(const std::uint64_t* keys, std::size_t n,
                  const BlockShape& shape, const StagedBlock& out) const {
    kprobe_hash_block(keys, n, seed, shape, out);
  }
  void save(BinaryWriter& out) const { out.u32(hashes); }
  static CountMinPolicy load(BinaryReader& in, const SheConfig& cfg) {
    return {in.u32(), cfg.seed};
  }
};

}  // namespace csm

class SheCountMin : private csm::SlidingEstimator<csm::CountMinPolicy> {
 public:
  using SlidingEstimator::advance_to, SlidingEstimator::config,
      SlidingEstimator::insert, SlidingEstimator::insert_at,
      SlidingEstimator::insert_at_batch, SlidingEstimator::insert_batch,
      SlidingEstimator::memory_bytes, SlidingEstimator::save,
      SlidingEstimator::time;

  SheCountMin(const SheConfig& cfg, unsigned hashes)
      : SlidingEstimator(cfg, csm::CountMinPolicy{hashes, cfg.seed}) {}

  /// insert_batch that also writes estimates[i] = frequency(keys[i]) as
  /// answered right after keys[i]'s own update: bit-identical to
  /// `insert(k); frequency(k)` per key, all_young_queries() and the
  /// age-class telemetry included.  The estimate is fused into stage 2 —
  /// it reads the k cells the update just wrote, so nothing is re-hashed.
  /// Throws std::invalid_argument when `estimates` is shorter than `keys`.
  void insert_batch_estimates(std::span<const std::uint64_t> keys,
                              std::span<std::uint64_t> estimates);

  /// Estimated frequency of `key` in the last-N window.
  [[nodiscard]] std::uint64_t frequency(std::uint64_t key) const {
    return frequency(key, config().window);
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
    frequency_batch(keys, out, config().window);
  }
  void frequency_batch(std::span<const std::uint64_t> keys,
                       std::span<std::uint64_t> out,
                       std::uint64_t window) const;

  /// Reset to the empty state at time 0 (the all-young counter included).
  void clear() {
    SlidingEstimator::clear();
    all_young_ = QueryCounter();
  }

  [[nodiscard]] unsigned hash_count() const { return policy().hashes; }

  /// Queries so far whose probes were all young (fallback path taken).
  [[nodiscard]] std::uint64_t all_young_queries() const {
    return all_young_.get();
  }

  /// load() resumes with identical answers; the all-young diagnostic
  /// counter restarts at 0.
  static SheCountMin load(BinaryReader& in) {
    return SheCountMin(SlidingEstimator::load(in));
  }

 private:
  explicit SheCountMin(SlidingEstimator est) : SlidingEstimator(std::move(est)) {}

  // frequency() of the key whose k staged slots are `slots`, evaluated
  // right after that key's update at `now` == split(time()).
  [[nodiscard]] std::uint64_t estimate_staged(const Slot* slots, unsigned k,
                                              GroupClock::TimeParts now) const;

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
};

extern template class csm::SlidingEstimator<csm::CountMinPolicy>;

}  // namespace she
