#include "she/she_hll.hpp"

#include "sketch/hyperloglog.hpp"

namespace she {

template class csm::SlidingEstimator<csm::HllPolicy>;

namespace csm {

void HllPolicy::hash_block(const std::uint64_t* keys, std::size_t n,
                           const BlockShape& shape,
                           const StagedBlock& out) const {
  // w = 1: the unit div_group makes the kernel copy pos into gid.
  simd::bobhash32_keys(keys, n, seed, out.hash);
  simd::positions_groups(out.hash, n, shape.mod_cells, shape.div_group,
                         out.pos, out.gid);
  simd::bobhash32_keys(keys, n, seed + kRankSeed, out.hash);
  for (std::size_t b = 0; b < n; ++b) out.word[b] = rank_of(out.hash[b]);
}

}  // namespace csm

void SheHyperLogLog::scan(std::span<const csm::AgeBand> bands,
                          std::span<RankSum> acc) const {
  // w = 1: register i is group i.  A stale register reads as 0.
  scan_bands(bands, acc, [this](std::size_t i, std::uint64_t cur) {
    return std::uint64_t{value_at_mark(i, i, cur)};
  });
}

double SheHyperLogLog::estimate(const RankSum& s) const {
  return fixed::HyperLogLog::estimate(s.sum, s.observed,
                                      static_cast<double>(cell_count()), s.zeros);
}

double SheHyperLogLog::cardinality() const {
  const csm::AgeBand band[] = {default_band()};
  RankSum s[1];
  scan(band, s);
  return estimate(s[0]);
}

std::vector<double> SheHyperLogLog::cardinality_batch(
    std::span<const std::uint64_t> windows) const {
  std::vector<csm::AgeBand> bands;
  for (std::uint64_t w : windows) bands.push_back(window_band(w));
  std::vector<RankSum> s(bands.size());
  scan(bands, s);
  std::vector<double> result(bands.size(), 0.0);
  for (std::size_t j = 0; j < bands.size(); ++j)
    if (s[j].observed != 0) result[j] = estimate(s[j]);
  return result;
}

}  // namespace she
