#include "she/she_bitmap.hpp"

#include "sketch/bitmap.hpp"

namespace she {

template class csm::SlidingEstimator<csm::BitmapPolicy>;

void SheBitmap::scan(std::span<const csm::AgeBand> bands,
                     std::span<ZeroCount> acc) const {
  scan_bands(bands, acc, [this](std::size_t g, std::uint64_t cur) {
    const auto [first, count] = group_range(g);
    // A stale group reads as all-zero.
    return ZeroCount{count, clock().stored_mark(g) != cur
                                ? count
                                : store().zeros_range(first, count)};
  });
}

double SheBitmap::estimate(const ZeroCount& c) const {
  return fixed::linear_counting(c.zeros, c.observed,
                                static_cast<double>(cell_count()));
}

double SheBitmap::cardinality() const {
  const csm::AgeBand band[] = {default_band()};
  ZeroCount c[1];
  scan(band, c);
  return estimate(c[0]);
}

std::vector<double> SheBitmap::cardinality_batch(
    std::span<const std::uint64_t> windows) const {
  std::vector<csm::AgeBand> bands;
  for (std::uint64_t w : windows) bands.push_back(window_band(w));
  std::vector<ZeroCount> c(bands.size());
  scan(bands, c);
  std::vector<double> result(bands.size(), 0.0);
  for (std::size_t j = 0; j < bands.size(); ++j)
    if (c[j].observed != 0) result[j] = estimate(c[j]);
  return result;
}

}  // namespace she
