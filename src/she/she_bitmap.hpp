// SHE-BM — linear-counting Bitmap under the SHE framework (paper Sec. 4.1).
//
// Insert sets the single hashed bit after CheckGroup-ing its group.  The
// cardinality query collects the *legal* groups — those with age in
// [beta*N, Tcycle), i.e. near-perfect young cells plus all aged cells (the
// base estimator has two-sided error, so near-window young cells reduce
// bias) — counts their zero bits, and extrapolates the zero fraction to the
// whole array: C_hat = -M * ln(u / (w * l)).
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

class SheBitmap {
 public:
  explicit SheBitmap(const SheConfig& cfg);

  /// Insert one item; advances the stream clock by one.
  void insert(std::uint64_t key);

  /// Insert a batch (bit-for-bit equivalent to insert() per key, in
  /// order) via the generic she::batch pipeline: the single hashed bit and
  /// its group mark are prefetched a block ahead.
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

  /// Estimated number of distinct items in the last-N window (paper
  /// estimator: legal ages [beta*N, Tcycle)).
  [[nodiscard]] double cardinality() const;

  /// Multi-window query: distinct items in the last `window` items for any
  /// window in [1, N].  Uses the symmetric legal band
  /// [beta*window, (2-beta)*window) so the lumped group ages centre on the
  /// queried window; smaller windows leave fewer legal groups (higher
  /// variance).
  [[nodiscard]] double cardinality(std::uint64_t window) const;

  /// Batched multi-window query: element-wise identical to
  /// cardinality(windows[i]) but the group ages and zero counts are
  /// computed in ONE pass over the array instead of one scan per window.
  [[nodiscard]] std::vector<double> cardinality_batch(
      std::span<const std::uint64_t> windows) const;

  /// Number of groups currently in the legal age range (diagnostic; the
  /// variance analysis of Sec. 5.3 depends on it).
  [[nodiscard]] std::size_t legal_groups() const;

  void clear();

  [[nodiscard]] std::uint64_t time() const { return time_; }
  [[nodiscard]] const SheConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t memory_bytes() const {
    return bits_.memory_bytes() + clock_.memory_bytes();
  }

  /// Checkpoint the full sliding-window state; load() resumes with
  /// identical answers.
  void save(BinaryWriter& out) const;
  static SheBitmap load(BinaryReader& in);

 private:
  [[nodiscard]] bool legal_age(std::uint64_t age) const;

  SheConfig cfg_;
  GroupClock clock_;
  BitArray bits_;
  std::uint64_t time_ = 0;
  // Shared batch-insert core: times == nullptr means +1 per key.
  void insert_many(std::span<const std::uint64_t> keys,
                   const std::uint64_t* times);

  std::vector<batch::Slot> scratch_;  // insert_batch staging (not state)
};

}  // namespace she
