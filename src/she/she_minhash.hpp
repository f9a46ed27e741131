// SHE-MH — MinHash under the SHE framework (paper Sec. 4.5).
//
// One SheMinHash holds the signature of one stream: M 24-bit min-value
// counters, each its own group (w = 1).  Insert CheckGroups every slot and
// keeps the minimum of H_i(x).  jaccard(a, b) compares two signatures built
// with the *same* configuration and hash seed over lock-step streams:
// slots whose age is legal on both sides are compared, and the similarity
// is (#equal legal slots) / (#legal slots).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bobhash.hpp"
#include "she/batch.hpp"
#include "she/config.hpp"
#include "she/group_clock.hpp"

namespace she {

class SheMinHash {
 public:
  /// `cfg.cells` signature slots; `cfg.group_cells` must be 1 (w = 1).
  explicit SheMinHash(const SheConfig& cfg);

  /// Insert one item; advances the stream clock by one.  Every slot is
  /// updated (MinHash's K = m in the CSM).
  void insert(std::uint64_t key);

  /// Insert a batch (bit-for-bit equivalent to insert() per key, in
  /// order).  With K = m the signature is scanned sequentially anyway, so
  /// the win here is staged hashing and uniform metric accounting rather
  /// than prefetch; the generic layer sizes its blocks down automatically.
  void insert_batch(std::span<const std::uint64_t> keys);

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

  void clear();

  [[nodiscard]] std::uint64_t time() const { return time_; }
  [[nodiscard]] const SheConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t slot_count() const { return sig_.size(); }

  /// Signature bytes (24-bit slots) + time marks.
  [[nodiscard]] std::size_t memory_bytes() const {
    return sig_.size() * 3 + clock_.memory_bytes();
  }

  /// Checkpoint the full sliding-window state; load() resumes with
  /// identical answers.
  void save(BinaryWriter& out) const;
  static SheMinHash load(BinaryReader& in);

  /// Empty-slot sentinel, larger than any 24-bit hash value.
  static constexpr std::uint32_t kEmpty = 1u << 24;

  /// Estimated Jaccard similarity of the two streams' last-N windows.
  /// Both signatures must share cfg (cells, window, alpha, seed) and be at
  /// the same stream time (lock-step insertion).
  static double jaccard(const SheMinHash& a, const SheMinHash& b);

  /// Multi-window query: similarity over the last `window` items for any
  /// window in [1, N], comparing slots whose age is in the symmetric band
  /// [beta*window, (2-beta)*window).
  static double jaccard(const SheMinHash& a, const SheMinHash& b,
                        std::uint64_t window);

  /// Batched multi-window query: element-wise identical to
  /// jaccard(a, b, windows[i]) but both signatures are scanned ONCE for
  /// all windows instead of once per window.
  static std::vector<double> jaccard_batch(const SheMinHash& a,
                                           const SheMinHash& b,
                                           std::span<const std::uint64_t> windows);

 private:
  [[nodiscard]] std::uint32_t value(std::uint64_t key, std::size_t i) const {
    return BobHash32(cfg_.seed + static_cast<std::uint32_t>(i))(key) & 0xFFFFFFu;
  }
  [[nodiscard]] bool legal_age(std::uint64_t age) const;
  [[nodiscard]] std::uint32_t effective_slot(std::size_t i) const {
    return clock_.stale(i, time_) ? kEmpty : sig_[i];
  }

  SheConfig cfg_;
  GroupClock clock_;
  std::vector<std::uint32_t> sig_;
  std::uint64_t time_ = 0;
  // Shared batch-insert core: times == nullptr means +1 per key.
  void insert_many(std::span<const std::uint64_t> keys,
                   const std::uint64_t* times);

  std::vector<batch::Slot> scratch_;  // insert_batch staging (not state)
};

}  // namespace she
