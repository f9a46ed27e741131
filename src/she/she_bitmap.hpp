// SHE-BM — linear-counting Bitmap under the SHE framework (paper Sec. 4.1).
//
// Insert sets the single hashed bit after CheckGroup-ing its group.  The
// cardinality query collects the *legal* groups — those with age in
// [beta*N, Tcycle), i.e. near-perfect young cells plus all aged cells (the
// base estimator has two-sided error, so near-window young cells reduce
// bias) — counts their zero bits, and extrapolates the zero fraction to the
// whole array: C_hat = -M * ln(u / (w * l)).
//
// Inserts, time, save/load and the age-band scan come from the engine
// (csm.hpp); this class adds the linear-counting estimator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bobhash.hpp"
#include "she/csm.hpp"

namespace she {
namespace csm {

/// Bitmap: <bit, 1, F(x,y) = 1>.
struct BitmapPolicy {
  using Cell = std::uint8_t;
  using Store = BitStore;
  static constexpr const char* kName = "SheBitmap";
  static constexpr char kTag[5] = "SHBM";
  std::uint32_t seed = 0;

  [[nodiscard]] unsigned probes(std::size_t) const { return 1; }
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned,
                                     std::size_t cells) const {
    return BobHash32(seed)(key) % cells;
  }
  [[nodiscard]] Cell update(std::uint64_t, unsigned, Cell) const { return 1; }
  static Cell empty_cell() { return 0; }
  static std::size_t cell_bits() { return 1; }

  void hash_block(const std::uint64_t* keys, std::size_t n,
                  const BlockShape& shape, const StagedBlock& out) const {
    kprobe_hash_block(keys, n, seed, shape, out);
  }
  static BitmapPolicy load(BinaryReader&, const SheConfig& cfg) {
    return {cfg.seed};
  }
};

}  // namespace csm

class SheBitmap : public csm::SlidingEstimator<csm::BitmapPolicy> {
 public:
  explicit SheBitmap(const SheConfig& cfg)
      : SlidingEstimator(cfg, csm::BitmapPolicy{cfg.seed}) {}

  /// Estimated number of distinct items in the last-N window (paper
  /// estimator: legal ages [beta*N, Tcycle)).
  [[nodiscard]] double cardinality() const;

  /// Multi-window query: distinct items in the last `window` items for any
  /// window in [1, N].  Uses the symmetric legal band
  /// [beta*window, (2-beta)*window) so the lumped group ages centre on the
  /// queried window; smaller windows leave fewer legal groups (higher
  /// variance), and 0.0 when no group is in the band yet.
  [[nodiscard]] double cardinality(std::uint64_t window) const {
    return cardinality_batch({&window, 1})[0];
  }

  /// Batched multi-window query: element-wise identical to
  /// cardinality(windows[i]) but the group ages and zero counts are
  /// computed in ONE pass over the array instead of one scan per window.
  [[nodiscard]] std::vector<double> cardinality_batch(
      std::span<const std::uint64_t> windows) const;

  static SheBitmap load(BinaryReader& in) {
    return SheBitmap(SlidingEstimator::load(in));
  }

 private:
  explicit SheBitmap(SlidingEstimator est) : SlidingEstimator(std::move(est)) {}

  /// Zero bits over the observed (in-band) cells of one age band.
  struct ZeroCount {
    std::size_t observed = 0;
    std::size_t zeros = 0;
    void add(const ZeroCount& group) {
      observed += group.observed;
      zeros += group.zeros;
    }
  };
  void scan(std::span<const csm::AgeBand> bands,
            std::span<ZeroCount> acc) const;
  [[nodiscard]] double estimate(const ZeroCount& c) const;
};

extern template class csm::SlidingEstimator<csm::BitmapPolicy>;

}  // namespace she
