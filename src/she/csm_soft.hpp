// Generic software-version SHE engine (paper Sec. 3.2) for any CSM policy.
//
// Instead of grouped lazy cleaning, a cleaning process sweeps the cell
// array left-to-right at constant speed (`cells / Tcycle` cells per tick),
// resetting one cell at a time and wrapping.  Cell ages follow from the
// sweep-pointer distance.  This is the idealized cell-granular cleaner the
// hardware version approximates block-wise; the tests show the two agree
// (and SoftSheBloomFilter is the BloomPolicy instantiation of this engine,
// verified answer-identical).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/int_math.hpp"
#include "she/config.hpp"
#include "she/she_bloom.hpp"

namespace she::csm {

template <CsmPolicy Policy>
class SoftSlidingEstimator {
 public:
  using Cell = typename Policy::Cell;

  /// `cfg.group_cells` is ignored: the sweep is cell-granular.
  SoftSlidingEstimator(const SheConfig& cfg, Policy policy = Policy{})
      : cfg_(cfg), policy_(std::move(policy)), cells_(cfg.cells, Policy::empty_cell()) {
    cfg_.validate();
  }

  void insert(std::uint64_t key) { insert_at(key, time_ + 1); }

  void insert_at(std::uint64_t key, std::uint64_t t) {
    advance_to(t);
    unsigned k = policy_.probes(cells_.size());
    for (unsigned i = 0; i < k; ++i) {
      std::size_t pos = policy_.position(key, i, cells_.size());
      cells_[pos] = policy_.update(key, i, cells_[pos]);
    }
  }

  /// Advancing the clock performs the sweep for the elapsed ticks.
  void advance_to(std::uint64_t t) {
    if (t < time_)
      throw std::invalid_argument("SoftSlidingEstimator: time moved backwards");
    std::uint64_t from = swept_by(time_);
    time_ = t;
    std::uint64_t to = swept_by(time_);
    if (to - from >= cells_.size()) {
      std::fill(cells_.begin(), cells_.end(), Policy::empty_cell());
      return;
    }
    for (std::uint64_t c = from; c < to; ++c)
      cells_[static_cast<std::size_t>(c % cells_.size())] = Policy::empty_cell();
  }

  /// Items since cell `pos` was last swept; time() if never swept yet.
  [[nodiscard]] std::uint64_t cell_age(std::size_t pos) const {
    std::uint64_t s = swept_by(time_);
    if (s <= pos) return time_;
    std::uint64_t c = (s - 1) - static_cast<std::uint64_t>(floor_mod(
                                    static_cast<std::int64_t>(s - 1 - pos),
                                    static_cast<std::int64_t>(cells_.size())));
    unsigned __int128 num =
        static_cast<unsigned __int128>(cfg_.tcycle()) * (c + 1);
    auto t_clean =
        static_cast<std::uint64_t>((num + cells_.size() - 1) / cells_.size());
    return time_ - t_clean;
  }

  /// View of the probed cell with its age class (mirrors the hardware
  /// engine's query interface).
  [[nodiscard]] CellView<Cell> probe(std::uint64_t key, unsigned i) const {
    std::size_t pos = policy_.position(key, i, cells_.size());
    std::uint64_t age = cell_age(pos);
    CellAge cls = age < cfg_.window
                      ? CellAge::kYoung
                      : (age == cfg_.window ? CellAge::kPerfect : CellAge::kAged);
    return {cells_[pos], age, cls};
  }

  void clear() {
    std::fill(cells_.begin(), cells_.end(), Policy::empty_cell());
    time_ = 0;
  }

  [[nodiscard]] std::uint64_t time() const { return time_; }
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  [[nodiscard]] const SheConfig& config() const { return cfg_; }
  [[nodiscard]] const Policy& policy() const { return policy_; }

 private:
  [[nodiscard]] std::uint64_t swept_by(std::uint64_t t) const {
    unsigned __int128 prod = static_cast<unsigned __int128>(cells_.size()) * t;
    return static_cast<std::uint64_t>(prod / cfg_.tcycle());
  }

  SheConfig cfg_;
  Policy policy_;
  std::vector<Cell> cells_;
  std::uint64_t time_ = 0;
};

/// SHE-BF query on the soft engine (skip young probes; a zero mature probe
/// proves absence) — answer-identical to SoftSheBloomFilter (tested).
template <CsmPolicy P>
  requires std::same_as<P, BloomPolicy>
[[nodiscard]] bool contains(const SoftSlidingEstimator<P>& est, std::uint64_t key) {
  unsigned k = est.policy().probes(est.cell_count());
  for (unsigned i = 0; i < k; ++i) {
    auto cell = est.probe(key, i);
    if (cell.age_class == CellAge::kYoung) continue;
    if (cell.value == 0) return false;
  }
  return true;
}

}  // namespace she::csm
