#include "she/she_bloom.hpp"

#include "obs/she_metrics.hpp"

namespace she {

template class csm::SlidingEstimator<csm::BloomPolicy>;

bool SheBloomFilter::contains(std::uint64_t key, std::uint64_t window) const {
  check_window(window);
  const bool track = obs::enabled();
  obs::AgeClassCounts cls;
  const unsigned k = hash_count();
  for (unsigned i = 0; i < k; ++i) {
    const std::size_t pos = position(key, i);
    const std::size_t gid = group_of(pos);
    const std::uint64_t age = clock().age(gid, time());
    if (track) cls.add(age, window);
    if (age < window) continue;  // young cell: ignore (no false negatives)
    if (value(pos, gid) == 0) {  // a zero mature bit proves absence
      if (track) {
        cls.commit(true);
        obs::she_metrics().hash_calls.inc(i + 1);
      }
      return false;
    }
  }
  // All probes were young or 1: no evidence of absence.
  if (track) {
    cls.commit(true);
    obs::she_metrics().hash_calls.inc(k);
  }
  return true;
}

void SheBloomFilter::contains_batch(std::span<const std::uint64_t> keys,
                                    std::span<std::uint8_t> out,
                                    std::uint64_t window) const {
  check_window(window);
  if (out.size() < keys.size())
    throw std::invalid_argument("SheBloomFilter: contains_batch output too small");
  const bool track = obs::enabled();
  const unsigned k = hash_count();
  probe_many(
      keys,
      // contains()'s probe-by-probe logic against the staged values.
      [&](std::size_t i, const Slot* slots) {
        obs::AgeClassCounts cls;
        bool present = true;
        for (unsigned h = 0; h < k; ++h) {
          const std::uint64_t age = staged_age(slots[h]);
          if (track) cls.add(age, window);
          if (age < window) continue;
          if (staged_value(slots[h]) == 0) {
            present = false;
            break;
          }
        }
        out[i] = present ? 1 : 0;
        if (track) cls.commit(true);
      },
      [&](std::size_t i) { out[i] = contains(keys[i], window) ? 1 : 0; });
}

}  // namespace she
