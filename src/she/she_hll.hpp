// SHE-HLL — HyperLogLog under the SHE framework (paper Sec. 4.3).
//
// Each 5-bit register is its own group (w = 1).  Insert routes the item to
// register Hc(x) mod M, CheckGroups it, and keeps the maximum rank
// (leading-zero count + 1) of Hz(x).  The cardinality query uses only the
// legal registers (age in [beta*N, Tcycle)) and applies the standard
// bias-corrected harmonic estimator scaled to the full register count,
// C_hat = alpha_k * k * M / sum(2^-l_j), with linear-counting small-range
// correction.
//
// Inserts, time, save/load and the age-band scan come from the engine
// (csm.hpp); this class adds the harmonic-mean estimator.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bobhash.hpp"
#include "common/int_math.hpp"
#include "she/csm.hpp"

namespace she {
namespace csm {

/// HyperLogLog: <5-bit counter, 1, F(x,y) = max(rank(x), y)>.
struct HllPolicy {
  using Cell = std::uint8_t;
  using Store = PackedStore<Cell, 5>;
  static constexpr const char* kName = "SheHyperLogLog";
  static constexpr char kTag[5] = "SHLL";
  static constexpr unsigned kExtraHashes = 1;  // the rank hash
  static constexpr bool kUnitGroups = true;
  static constexpr std::uint32_t kRankSeed = 0x5eed;  // seed offset of Hz
  std::uint32_t seed = 0;

  /// Rank of a rank-hash value, clamped to the 5-bit register ceiling.
  static std::uint32_t rank_of(std::uint32_t h) {
    return std::min<std::uint32_t>(hll_rank(h, 32), 31);
  }

  [[nodiscard]] unsigned probes(std::size_t) const { return 1; }
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned,
                                     std::size_t cells) const {
    return BobHash32(seed)(key) % cells;
  }
  [[nodiscard]] Cell update(std::uint64_t key, unsigned, Cell old) const {
    return update_staged(rank_of(BobHash32(seed + kRankSeed)(key)), old);
  }
  [[nodiscard]] Cell update_staged(std::uint32_t rank, Cell old) const {
    return rank > old ? static_cast<Cell>(rank) : old;
  }
  static Cell empty_cell() { return 0; }
  static std::size_t cell_bits() { return 5; }

  /// Stage 1: the register-index and rank hash sweeps; words are ranks.
  void hash_block(const std::uint64_t* keys, std::size_t n,
                  const BlockShape& shape, const StagedBlock& out) const;
  static HllPolicy load(BinaryReader&, const SheConfig& cfg) {
    return {cfg.seed};
  }
};

}  // namespace csm

class SheHyperLogLog : public csm::SlidingEstimator<csm::HllPolicy> {
 public:
  /// `cfg.cells` registers; `cfg.group_cells` must be 1 (the paper fixes
  /// w = 1 for SHE-HLL).
  explicit SheHyperLogLog(const SheConfig& cfg)
      : SlidingEstimator(cfg, csm::HllPolicy{cfg.seed}) {}

  /// Estimated number of distinct items in the last-N window (paper
  /// estimator: legal ages [beta*N, Tcycle)).
  [[nodiscard]] double cardinality() const;

  /// Multi-window query: distinct items in the last `window` items for any
  /// window in [1, N], using the symmetric legal band
  /// [beta*window, (2-beta)*window); 0.0 when no register is in the band.
  [[nodiscard]] double cardinality(std::uint64_t window) const {
    return cardinality_batch({&window, 1})[0];
  }

  /// Batched multi-window query: element-wise identical to
  /// cardinality(windows[i]) but the register ages and values are read in
  /// ONE pass instead of one scan per window.
  [[nodiscard]] std::vector<double> cardinality_batch(
      std::span<const std::uint64_t> windows) const;

  static SheHyperLogLog load(BinaryReader& in) {
    return SheHyperLogLog(SlidingEstimator::load(in));
  }

 private:
  explicit SheHyperLogLog(SlidingEstimator est)
      : SlidingEstimator(std::move(est)) {}

  /// Harmonic sum over the observed (in-band) registers of one age band.
  struct RankSum {
    double sum = 0.0;
    std::size_t observed = 0;
    std::size_t zeros = 0;
    void add(std::uint64_t rank) {
      ++observed;
      if (rank == 0) ++zeros;
      // 2^-rank, built from its exponent bits: exactly std::ldexp(1.0,
      // -rank) for the 5-bit ranks, without a libm call per register.
      sum += std::bit_cast<double>((std::uint64_t{1023} - rank) << 52);
    }
  };
  void scan(std::span<const csm::AgeBand> bands, std::span<RankSum> acc) const;
  [[nodiscard]] double estimate(const RankSum& s) const;
};

extern template class csm::SlidingEstimator<csm::HllPolicy>;

}  // namespace she
