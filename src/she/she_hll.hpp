// SHE-HLL — HyperLogLog under the SHE framework (paper Sec. 4.3).
//
// Each 5-bit register is its own group (w = 1).  Insert routes the item to
// register Hc(x) mod M, CheckGroups it, and keeps the maximum rank
// (leading-zero count + 1) of Hz(x).  The cardinality query uses only the
// legal registers (age in [beta*N, Tcycle)) and applies the standard
// bias-corrected harmonic estimator scaled to the full register count,
// C_hat = alpha_k * k * M / sum(2^-l_j), with linear-counting small-range
// correction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bobhash.hpp"
#include "common/packed_array.hpp"
#include "she/batch.hpp"
#include "she/config.hpp"
#include "she/group_clock.hpp"

namespace she {

class SheHyperLogLog {
 public:
  /// `cfg.cells` registers; `cfg.group_cells` must be 1 (the paper fixes
  /// w = 1 for SHE-HLL).
  explicit SheHyperLogLog(const SheConfig& cfg);

  /// Insert one item; advances the stream clock by one.
  void insert(std::uint64_t key);

  /// Insert a batch (bit-for-bit equivalent to insert() per key, in
  /// order): both hashes (register index and rank) are computed a block
  /// ahead and the register + mark lines prefetched.
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
  /// window in [1, N], using the symmetric legal band
  /// [beta*window, (2-beta)*window).
  [[nodiscard]] double cardinality(std::uint64_t window) const;

  /// Batched multi-window query: element-wise identical to
  /// cardinality(windows[i]) but the register ages and values are read in
  /// ONE pass instead of one scan per window.
  [[nodiscard]] std::vector<double> cardinality_batch(
      std::span<const std::uint64_t> windows) const;

  /// Registers currently in the legal age range (diagnostic).
  [[nodiscard]] std::size_t legal_groups() const;

  void clear();

  [[nodiscard]] std::uint64_t time() const { return time_; }
  [[nodiscard]] const SheConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t memory_bytes() const {
    return regs_.memory_bytes() + clock_.memory_bytes();
  }

  /// Checkpoint the full sliding-window state; load() resumes with
  /// identical answers.
  void save(BinaryWriter& out) const;
  static SheHyperLogLog load(BinaryReader& in);

 private:
  [[nodiscard]] bool legal_age(std::uint64_t age) const;

  SheConfig cfg_;
  GroupClock clock_;
  PackedArray regs_;  // 5-bit ranks, 0 = empty
  std::uint64_t time_ = 0;
  // Shared batch-insert core: times == nullptr means +1 per key.
  void insert_many(std::span<const std::uint64_t> keys,
                   const std::uint64_t* times);

  std::vector<batch::Slot> scratch_;  // insert_batch staging (not state)
};

}  // namespace she
