// SHE-MH — MinHash under the SHE framework (paper Sec. 4.5).
//
// One SheMinHash holds the signature of one stream: M 24-bit min-value
// counters, each its own group (w = 1).  Insert CheckGroups every slot and
// keeps the minimum of H_i(x).  jaccard(a, b) compares two signatures built
// with the *same* configuration and hash seed over lock-step streams:
// slots whose age is legal on both sides are compared, and the similarity
// is (#equal legal slots) / (#legal slots).
//
// Inserts, time, save/load and the age-band scan come from the engine
// (csm.hpp); this class adds the similarity estimator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bobhash.hpp"
#include "she/csm.hpp"

namespace she {
namespace csm {

/// MinHash: <24-bit counter, m, F(x,y) = min(hash_i(x), y)> — every cell
/// is probed (K = m), slot i by hash function i.
struct MinHashPolicy {
  using Cell = std::uint32_t;
  static constexpr const char* kName = "SheMinHash";
  static constexpr char kTag[5] = "SHMH";
  static constexpr bool kAllCells = true;
  /// Empty-slot sentinel, larger than any 24-bit hash value.
  static constexpr Cell kEmpty = 1u << 24;
  std::uint32_t seed = 0;

  [[nodiscard]] unsigned probes(std::size_t cells) const {
    return static_cast<unsigned>(cells);
  }
  [[nodiscard]] std::size_t position(std::uint64_t, unsigned i,
                                     std::size_t) const {
    return i;
  }
  [[nodiscard]] Cell update(std::uint64_t key, unsigned i, Cell old) const {
    return update_staged(BobHash32(seed + i)(key), old);
  }
  [[nodiscard]] Cell update_staged(std::uint32_t h, Cell old) const {
    const Cell v = h & 0xFFFFFFu;
    return v < old ? v : old;
  }
  static Cell empty_cell() { return kEmpty; }
  static std::size_t cell_bits() { return 24; }

  /// Stage 1: each key hashed across the seed axis (m consecutive seeds);
  /// words are the hashes update_staged() takes the minimum of.
  void hash_block(const std::uint64_t* keys, std::size_t n,
                  const BlockShape& shape, const StagedBlock& out) const;
  static MinHashPolicy load(BinaryReader&, const SheConfig& cfg) {
    return {cfg.seed};
  }
};

}  // namespace csm

class SheMinHash : public csm::SlidingEstimator<csm::MinHashPolicy> {
 public:
  /// `cfg.cells` signature slots; `cfg.group_cells` must be 1 (w = 1).
  explicit SheMinHash(const SheConfig& cfg)
      : SlidingEstimator(cfg, csm::MinHashPolicy{cfg.seed}) {}

  [[nodiscard]] std::size_t slot_count() const { return cell_count(); }

  /// Empty-slot sentinel, larger than any 24-bit hash value.
  static constexpr std::uint32_t kEmpty = csm::MinHashPolicy::kEmpty;

  /// Estimated Jaccard similarity of the two streams' last-N windows.
  /// Both signatures must share cfg (cells, window, alpha, seed) and be at
  /// the same stream time (lock-step insertion).
  static double jaccard(const SheMinHash& a, const SheMinHash& b);

  /// Multi-window query: similarity over the last `window` items for any
  /// window in [1, N], comparing slots whose age is in the symmetric band
  /// [beta*window, (2-beta)*window).
  static double jaccard(const SheMinHash& a, const SheMinHash& b,
                        std::uint64_t window) {
    return jaccard_batch(a, b, {&window, 1})[0];
  }

  /// Batched multi-window query: element-wise identical to
  /// jaccard(a, b, windows[i]) but both signatures are scanned ONCE for
  /// all windows instead of once per window.
  static std::vector<double> jaccard_batch(const SheMinHash& a,
                                           const SheMinHash& b,
                                           std::span<const std::uint64_t> windows);

  static SheMinHash load(BinaryReader& in) {
    return SheMinHash(SlidingEstimator::load(in));
  }

 private:
  explicit SheMinHash(SlidingEstimator est) : SlidingEstimator(std::move(est)) {}

  /// Equal and compared slots of one age band.
  struct Matches {
    std::size_t compared = 0;
    std::size_t match = 0;
    void add(const std::pair<std::uint32_t, std::uint32_t>& slots) {
      if (slots.first == kEmpty && slots.second == kEmpty)
        return;  // neither window seen here
      ++compared;
      if (slots.first == slots.second) ++match;
    }
    [[nodiscard]] double similarity() const {
      return compared == 0 ? 0.0 : static_cast<double>(match) / compared;
    }
  };
  static void scan(const SheMinHash& a, const SheMinHash& b,
                   std::span<const csm::AgeBand> bands, std::span<Matches> acc);
};

extern template class csm::SlidingEstimator<csm::MinHashPolicy>;

}  // namespace she
