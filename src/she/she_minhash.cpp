#include "she/she_minhash.hpp"

#include <stdexcept>

namespace she {

template class csm::SlidingEstimator<csm::MinHashPolicy>;

namespace csm {

void MinHashPolicy::hash_block(const std::uint64_t* keys, std::size_t n,
                               const BlockShape& shape,
                               const StagedBlock& out) const {
  for (std::size_t b = 0; b < n; ++b)
    simd::bobhash32_seeds(keys[b], seed, shape.k, out.word + b * shape.k);
}

}  // namespace csm

void SheMinHash::scan(const SheMinHash& a, const SheMinHash& b,
                      std::span<const csm::AgeBand> bands,
                      std::span<Matches> acc) {
  if (a.slot_count() != b.slot_count() || a.config().seed != b.config().seed)
    throw std::invalid_argument("SheMinHash::jaccard: incompatible signatures");
  if (a.time() != b.time())
    throw std::invalid_argument("SheMinHash::jaccard: signatures not in lock-step");
  // Ages and current marks are identical on both sides (same cfg, same
  // time), so a's scan serves both; only the stored marks differ per side.
  a.scan_bands(bands, acc, [&](std::size_t i, std::uint64_t cur) {
    return std::pair{a.value_at_mark(i, i, cur), b.value_at_mark(i, i, cur)};
  });
}

double SheMinHash::jaccard(const SheMinHash& a, const SheMinHash& b) {
  const csm::AgeBand band[] = {a.default_band()};
  Matches m[1];
  scan(a, b, band, m);
  return m[0].similarity();
}

std::vector<double> SheMinHash::jaccard_batch(
    const SheMinHash& a, const SheMinHash& b,
    std::span<const std::uint64_t> windows) {
  std::vector<csm::AgeBand> bands;
  for (std::uint64_t w : windows)
    bands.push_back(a.window_band(w, "SheMinHash::jaccard"));
  std::vector<Matches> m(bands.size());
  scan(a, b, bands, m);
  std::vector<double> result;
  for (const Matches& mj : m) result.push_back(mj.similarity());
  return result;
}

}  // namespace she
