// SHE-BF — Bloom filter under the SHE framework (paper Sec. 4.2), the
// hardware (lazy group-cleaning) version.
//
// Insert sets the k hashed bits after CheckGroup-ing their groups.  Query
// *ignores young bits* (age < N) and requires every remaining probed bit to
// be 1; a stale group reads as all-zero.  This preserves the Bloom filter's
// one-sided error exactly: SHE-BF never reports a false negative (property-
// tested), and false positives shrink as memory grows or alpha approaches
// the Eq. (2) optimum.
//
// Inserts, time, save/load and the batch pipeline come from the engine
// (csm.hpp); this class adds the membership query.
#pragma once

#include <cstdint>
#include <span>

#include "common/bobhash.hpp"
#include "she/csm.hpp"

namespace she {
namespace csm {

/// Bloom filter: <bit, k, F(x,y) = 1>.
struct BloomPolicy {
  using Cell = std::uint8_t;
  using Store = BitStore;
  static constexpr const char* kName = "SheBloomFilter";
  static constexpr char kTag[5] = "SHBF";
  unsigned hashes = 8;
  std::uint32_t seed = 0;

  [[nodiscard]] unsigned probes(std::size_t) const { return hashes; }
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned i,
                                     std::size_t cells) const {
    return BobHash32(seed + i)(key) % cells;
  }
  [[nodiscard]] Cell update(std::uint64_t, unsigned, Cell) const { return 1; }
  static Cell empty_cell() { return 0; }
  static std::size_t cell_bits() { return 1; }

  void hash_block(const std::uint64_t* keys, std::size_t n,
                  const BlockShape& shape, const StagedBlock& out) const {
    kprobe_hash_block(keys, n, seed, shape, out);
  }
  void save(BinaryWriter& out) const { out.u32(hashes); }
  static BloomPolicy load(BinaryReader& in, const SheConfig& cfg) {
    return {in.u32(), cfg.seed};
  }
};

}  // namespace csm

class SheBloomFilter : public csm::SlidingEstimator<csm::BloomPolicy> {
 public:
  /// `cfg.cells` bits in groups of `cfg.group_cells`, probed by `hashes`
  /// hash functions.  Default alpha for SHE-BF should come from
  /// optimal_alpha_bf() (the paper uses ~3 at its default settings).
  SheBloomFilter(const SheConfig& cfg, unsigned hashes)
      : SlidingEstimator(cfg, csm::BloomPolicy{hashes, cfg.seed}) {}

  /// Membership of `key` in the last-N window.  One-sided: a `false` answer
  /// is always correct; `true` may be a false positive.
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return contains(key, config().window);
  }

  /// Multi-window query: membership in the last `window` items for any
  /// window in [1, N] — one SHE structure answers every sub-window, with
  /// the same one-sided guarantee (cells of age >= window are usable; a
  /// zero such cell proves absence from the sub-window).  Smaller windows
  /// leave fewer usable probes, raising the FPR.
  [[nodiscard]] bool contains(std::uint64_t key, std::uint64_t window) const;

  /// Batched membership: answers are element-wise identical to
  /// contains(keys[i], window) but probe positions are hashed a block ahead
  /// with read-hinted prefetches (shared lines, nothing taken exclusive).
  /// out[i] != 0 means present.  Throws like contains() on a bad window.
  void contains_batch(std::span<const std::uint64_t> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch(keys, out, config().window);
  }
  void contains_batch(std::span<const std::uint64_t> keys,
                      std::span<std::uint8_t> out, std::uint64_t window) const;

  [[nodiscard]] unsigned hash_count() const { return policy().hashes; }

  static SheBloomFilter load(BinaryReader& in) {
    return SheBloomFilter(SlidingEstimator::load(in));
  }

 private:
  explicit SheBloomFilter(SlidingEstimator est)
      : SlidingEstimator(std::move(est)) {}
};

extern template class csm::SlidingEstimator<csm::BloomPolicy>;

}  // namespace she
