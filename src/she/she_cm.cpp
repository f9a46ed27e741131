#include "she/she_cm.hpp"

#include <algorithm>
#include <limits>

#include "obs/she_metrics.hpp"

namespace she {

template class csm::SlidingEstimator<csm::CountMinPolicy>;

namespace {

/// Count-Min's answer over one key's k probes: the minimum over *mature*
/// probes (age >= window), or over all probes when every probe is young
/// (the documented fallback).  Branch-free per probe — maturity is a coin
/// flip across groups, and a mispredict would flush the cell loads of the
/// keys behind this one.  `kTrack` compiles the age-class telemetry in or
/// out, so the untracked probe loop keeps its state in registers.
template <bool kTrack>
class MatureMin {
 public:
  explicit MatureMin(std::uint64_t window) : window_(window) {}

  void add(std::uint64_t value, std::uint64_t age) {
    if constexpr (kTrack) cls_.add(age, window_);
    best_any_ = std::min(best_any_, value);
    // All-ones when age < window (both < 2^63): drops a young probe.
    const auto young = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(age - window_) >> 63);
    best_mature_ = std::min(best_mature_, value | young);
  }

  /// Cells are 32-bit, so only an all-young query leaves the sentinel.
  [[nodiscard]] bool all_young() const {
    return best_mature_ == std::numeric_limits<std::uint64_t>::max();
  }

  /// The answer; commits the age-class telemetry and, on the fallback,
  /// the all-young metric.  (The caller counts its own all_young_.)
  [[nodiscard]] std::uint64_t finish() const {
    if constexpr (kTrack) {
      cls_.commit(true);
      if (all_young()) obs::she_metrics().cm_all_young_queries.inc();
    }
    return all_young() ? best_any_ : best_mature_;
  }

 private:
  std::uint64_t window_;
  std::uint64_t best_mature_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t best_any_ = std::numeric_limits<std::uint64_t>::max();
  obs::AgeClassCounts cls_;
};

/// Count-Min's answer over the probes `add_probes(m)` feeds into `m`,
/// telemetry compiled in only while it is on; an all-young answer also
/// counts in `all_young`.
template <typename Counter, typename AddFn>
std::uint64_t mature_min(std::uint64_t window, Counter& all_young,
                         AddFn&& add_probes) {
  const auto answer = [&](auto m) {
    add_probes(m);
    // Every probe young: best-effort answer, may underestimate.
    if (m.all_young()) all_young.inc();
    return m.finish();
  };
  return obs::enabled() ? answer(MatureMin<true>(window))
                        : answer(MatureMin<false>(window));
}

}  // namespace

void SheCountMin::insert_batch_estimates(std::span<const std::uint64_t> keys,
                                         std::span<std::uint64_t> estimates) {
  if (estimates.size() < keys.size())
    throw std::invalid_argument(
        "SheCountMin: insert_batch_estimates output too small");
  GroupClock::TimeParts now = clock().split(time());
  const unsigned k = hash_count();
  insert_many(
      keys, nullptr,
      // By value but `now`, which advances with each key.
      [this, out = estimates.data(), k, &now](std::size_t i,
                                              const Slot* slots) {
        clock().tick(now);
        out[i] = estimate_staged(slots, k, now);
      },
      [&](std::size_t i) { estimates[i] = frequency(keys[i]); });
}

std::uint64_t SheCountMin::estimate_staged(const Slot* slots, unsigned k,
                                           GroupClock::TimeParts now) const {
  // frequency(key) right after key's own update: the update touched every
  // probed group at time(), so none is stale and each value is the cell
  // itself; only the age test against the window remains.
  return mature_min(config().window, all_young_, [&](auto& m) {
    for (unsigned h = 0; h < k; ++h)
      m.add(store().get(slots[h].pos), clock().age_at(now, slots[h].gid));
  });
}

void SheCountMin::frequency_batch(std::span<const std::uint64_t> keys,
                                  std::span<std::uint64_t> out,
                                  std::uint64_t window) const {
  check_window(window);
  if (out.size() < keys.size())
    throw std::invalid_argument("SheCountMin: frequency_batch output too small");
  const unsigned k = hash_count();
  probe_many(
      keys,
      // frequency()'s min-over-mature logic against the staged values.
      [&](std::size_t i, const Slot* slots) {
        out[i] = mature_min(window, all_young_, [&](auto& m) {
          for (unsigned h = 0; h < k; ++h)
            m.add(staged_value(slots[h]), staged_age(slots[h]));
        });
      },
      [&](std::size_t i) { out[i] = frequency(keys[i], window); });
}

std::uint64_t SheCountMin::frequency(std::uint64_t key,
                                     std::uint64_t window) const {
  check_window(window);
  const unsigned k = hash_count();
  const std::uint64_t estimate = mature_min(window, all_young_, [&](auto& m) {
    for (unsigned i = 0; i < k; ++i) {
      const std::size_t pos = position(key, i);
      const std::size_t gid = group_of(pos);
      m.add(value(pos, gid), clock().age(gid, time()));
    }
  });
  if (obs::enabled()) obs::she_metrics().hash_calls.inc(k);
  return estimate;
}

}  // namespace she
