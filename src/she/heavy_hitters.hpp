// Sliding-window heavy hitters on top of SHE-CM.
//
// SHE-CM answers point frequency queries; finding the *heaviest* keys also
// needs a candidate set, since a sketch cannot be enumerated.  This wrapper
// keeps a bounded candidate table refreshed by the stream itself: every
// inserted key whose current SHE-CM estimate beats the weakest candidate
// enters the table (evicting the weakest: the smallest estimate, ties to
// the smallest key, so a restored table evicts as the original would).
// Because SHE-CM never under-estimates (up to the documented all-young
// corner), a true heavy hitter keeps re-qualifying itself on every
// arrival, while keys that left the window decay and are evicted on the
// next refresh.
//
// top(k) re-estimates every candidate at query time, so reported counts
// reflect the *current* window even if the candidate entered long ago.
//
// Inserts are batch-native: insert_batch() cuts the batch at refresh
// boundaries, feeds each chunk through SHE-CM's fused insert + estimate,
// then admits the chunk's keys in arrival order.  The result is
// bit-identical to inserting, estimating and admitting one key at a time.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "she/she_cm.hpp"

namespace she {

class HeavyHitters {
 public:
  struct Entry {
    std::uint64_t key;
    std::uint64_t estimate;
  };

  /// SHE-CM with `cfg`/`hashes`, candidate table of `capacity` keys
  /// (capacity should be a small multiple of the k you intend to query).
  HeavyHitters(const SheConfig& cfg, unsigned hashes, std::size_t capacity);

  /// Insert one stream item (a batch of one).
  void insert(std::uint64_t key) {
    insert_batch(std::span<const std::uint64_t>(&key, 1));
  }

  /// Insert a batch; identical to insert() per key, in order.
  void insert_batch(std::span<const std::uint64_t> keys);

  /// The current top-k candidates by re-estimated window frequency,
  /// sorted descending (ties by key for determinism).
  [[nodiscard]] std::vector<Entry> top(std::size_t k) const;

  /// Point estimate passthrough.
  [[nodiscard]] std::uint64_t frequency(std::uint64_t key) const {
    return sketch_.frequency(key);
  }

  void clear();

  /// Replace the underlying sketch (checkpoint restore).  The candidate
  /// table restarts empty and re-populates as the resumed stream flows;
  /// point queries are exact-as-before immediately, and the refresh phase
  /// continues where the saved stream left it.
  void restore_sketch(SheCountMin sketch) {
    sketch_ = std::move(sketch);
    candidates_.clear();
    floor_ = kNoFloor;
    since_refresh_ = refresh_phase();
  }

  /// The stored candidate table (admission/refresh-time estimates),
  /// sorted by key for deterministic serialization.
  [[nodiscard]] std::vector<Entry> candidates() const;

  /// Re-seed the candidate table after restore_sketch (entries beyond
  /// capacity are ignored), so top() answers survive a checkpoint.
  void restore_candidates(const std::vector<Entry>& entries);

  [[nodiscard]] std::uint64_t time() const { return sketch_.time(); }
  [[nodiscard]] std::size_t candidate_count() const { return candidates_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const SheCountMin& sketch() const { return sketch_; }

  /// Sketch + candidate-table footprint (16 B per candidate slot).
  [[nodiscard]] std::size_t memory_bytes() const {
    return sketch_.memory_bytes() + capacity_ * 16;
  }

 private:
  static constexpr std::uint64_t kNoFloor =
      std::numeric_limits<std::uint64_t>::max();

  /// Keys since the last refresh: inserts are count-based only, so the
  /// sketch's time is the item count.
  [[nodiscard]] std::size_t refresh_phase() const {
    return static_cast<std::size_t>(sketch_.time() % capacity_);
  }

  void maybe_admit(std::uint64_t key, std::uint64_t estimate);
  void refresh_candidates();

  SheCountMin sketch_;
  std::size_t capacity_;
  std::size_t since_refresh_ = 0;
  // Candidate set; values are the estimate at admission/refresh time and
  // are re-estimated on query.
  std::unordered_map<std::uint64_t, std::uint64_t> candidates_;
  // Lower bound on every stored candidate value (exact after a refresh or
  // a weakest-candidate scan).  A newcomer whose estimate does not exceed
  // it cannot evict anyone, so the scan is skipped.  Derived, not state.
  std::uint64_t floor_ = kNoFloor;
  // insert_batch/refresh staging (not state).
  std::vector<std::uint64_t> estimates_;
  std::vector<std::uint64_t> refresh_keys_;
};

}  // namespace she
