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
// The table is flat (keys ascending, their estimates alongside), so a copy
// (a published view) is two vectors and the sketch.
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
#include <vector>

#include "she/she_cm.hpp"

namespace she {

class HeavyHitters {
 public:
  struct Entry {
    std::uint64_t key;
    std::uint64_t estimate;
    /// The order of every top list: heavier first, ties by key.
    static bool heavier(const Entry& a, const Entry& b) {
      return a.estimate != b.estimate ? a.estimate > b.estimate : a.key < b.key;
    }
  };

  /// SHE-CM with `cfg`/`hashes`, candidate table of `capacity` keys
  /// (capacity should be a small multiple of the k you intend to query).
  HeavyHitters(const SheConfig& cfg, unsigned hashes, std::size_t capacity)
      : HeavyHitters(SheCountMin(cfg, hashes), capacity) {}

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

  /// The stored candidate table (admission/refresh-time estimates),
  /// sorted by key.
  [[nodiscard]] std::vector<Entry> candidates() const;

  /// Checkpoint / restore: the sketch, a u64 count, then (u64 key, u64
  /// estimate) by ascending key.  load() throws SerializeError for a
  /// malformed stream, a count above `capacity`, or keys that do not
  /// strictly increase; the refresh phase continues where the saved
  /// stream left it.
  void save(BinaryWriter& out) const;
  static HeavyHitters load(BinaryReader& in, std::size_t capacity);

  [[nodiscard]] std::uint64_t time() const { return sketch_.time(); }
  [[nodiscard]] std::size_t candidate_count() const { return keys_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const SheCountMin& sketch() const { return sketch_; }
  [[nodiscard]] const SheConfig& config() const { return sketch_.config(); }

  /// Sketch + candidate-table footprint (16 B per candidate slot).
  [[nodiscard]] std::size_t memory_bytes() const {
    return sketch_.memory_bytes() + capacity_ * 16;
  }

 private:
  static constexpr std::uint64_t kNoFloor =
      std::numeric_limits<std::uint64_t>::max();
  /// insert_batch stages this many fused estimates on the stack.
  static constexpr std::size_t kChunk = 256;

  HeavyHitters(SheCountMin sketch, std::size_t capacity);

  /// Keys since the last refresh: inserts are count-based only, so the
  /// sketch's time is the item count.
  [[nodiscard]] std::size_t refresh_phase() const {
    return static_cast<std::size_t>(sketch_.time() % capacity_);
  }

  /// Index of the first key in keys_ not below `key` (branch-free).
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const;

  void maybe_admit(std::uint64_t key, std::uint64_t estimate);
  void refresh_candidates();

  SheCountMin sketch_;
  std::size_t capacity_;
  std::size_t since_refresh_ = 0;
  // The candidate table: keys_ ascending, est_[i] the estimate of keys_[i]
  // at admission/refresh time (re-estimated on query).
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> est_;
  // Lower bound on every stored estimate (exact after a refresh or a
  // weakest-candidate scan).  A newcomer whose estimate does not exceed
  // it cannot evict anyone, so the scan is skipped.  Derived, not state.
  std::uint64_t floor_ = kNoFloor;
};

}  // namespace she
