#include "she/heavy_hitters.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

namespace she {

HeavyHitters::HeavyHitters(SheCountMin sketch, std::size_t capacity)
    : sketch_(std::move(sketch)), capacity_(capacity) {
  if (capacity == 0)
    throw std::invalid_argument("HeavyHitters: capacity must be > 0");
  since_refresh_ = refresh_phase();
}

void HeavyHitters::insert_batch(std::span<const std::uint64_t> keys) {
  // Per key the contract is: insert into the sketch; every `capacity_`-th
  // key re-estimates the whole table (stored estimates decay with the
  // window; amortized O(1) sketch queries per item); then admit the key
  // with its post-insert estimate.  Admission never reads the sketch, so a
  // chunk that ends exactly at the next refresh point can run through the
  // sketch in one batch: its keys admit in order from their fused
  // estimates, and the refresh sees the sketch as of the chunk's last key —
  // the state the per-key loop refreshed against.
  std::array<std::uint64_t, kChunk> estimates;
  while (!keys.empty()) {
    const std::size_t n =
        std::min({keys.size(), capacity_ - since_refresh_, kChunk});
    const std::span<const std::uint64_t> chunk = keys.first(n);
    keys = keys.subspan(n);
    sketch_.insert_batch_estimates(chunk, estimates);
    since_refresh_ += n;
    const bool refresh = since_refresh_ == capacity_;
    const std::size_t before_refresh = refresh ? n - 1 : n;
    for (std::size_t i = 0; i < before_refresh; ++i)
      maybe_admit(chunk[i], estimates[i]);
    if (!refresh) continue;
    since_refresh_ = 0;
    refresh_candidates();
    maybe_admit(chunk[n - 1], estimates[n - 1]);
  }
}

void HeavyHitters::refresh_candidates() {
  sketch_.frequency_batch(keys_, est_);
  floor_ = est_.empty() ? kNoFloor : std::ranges::min(est_);
}

std::size_t HeavyHitters::slot_of(std::uint64_t key) const {
  std::size_t n = keys_.size();
  if (n == 0) return 0;
  const std::uint64_t* base = keys_.data();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] < key ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - keys_.data()) + (*base < key);
}

void HeavyHitters::maybe_admit(std::uint64_t key, std::uint64_t estimate) {
  const std::size_t at = slot_of(key);
  if (at < keys_.size() && keys_[at] == key) {
    est_[at] = estimate;
    floor_ = std::min(floor_, estimate);
    return;
  }
  if (keys_.size() < capacity_) {
    keys_.insert(keys_.begin() + at, key);
    est_.insert(est_.begin() + at, estimate);
    floor_ = std::min(floor_, estimate);
    return;
  }
  // Evicting needs estimate > the weakest stored value >= floor_.
  if (estimate <= floor_) return;
  // Evict the weakest stored candidate if the newcomer beats it.  Stored
  // values may lag by up to one refresh period, which only makes eviction
  // conservative.  The first minimum is the smallest key among ties.
  const std::size_t weakest =
      static_cast<std::size_t>(std::ranges::min_element(est_) - est_.begin());
  // Exact now; an eviction below only replaces the minimum with a larger
  // value, so the bound stays valid.
  floor_ = est_[weakest];
  if (estimate <= floor_) return;
  // One shift of the entries between the evicted slot and the newcomer's
  // sorted place (`at` counts the evicted entry when it lies below).
  for (std::vector<std::uint64_t>* v : {&keys_, &est_}) {
    const auto w = v->begin() + weakest, a = v->begin() + at;
    if (weakest < at)
      std::copy(w + 1, a, w);
    else
      std::copy_backward(a, w, w + 1);
  }
  const std::size_t to = weakest < at ? at - 1 : at;
  keys_[to] = key;
  est_[to] = estimate;
}

std::vector<HeavyHitters::Entry> HeavyHitters::top(std::size_t k) const {
  if (k == 0 || keys_.empty()) return {};
  std::vector<std::uint64_t> now(keys_.size());
  sketch_.frequency_batch(keys_, now);
  std::vector<Entry> out(keys_.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = {keys_[i], now[i]};
  const std::size_t n = std::min(k, out.size());
  std::partial_sort(out.begin(), out.begin() + n, out.end(), Entry::heavier);
  out.resize(n);
  return out;
}

std::vector<HeavyHitters::Entry> HeavyHitters::candidates() const {
  std::vector<Entry> out(keys_.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = {keys_[i], est_[i]};
  return out;
}

void HeavyHitters::save(BinaryWriter& out) const {
  sketch_.save(out);
  out.u64(keys_.size());
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    out.u64(keys_[i]);
    out.u64(est_[i]);
  }
}

HeavyHitters HeavyHitters::load(BinaryReader& in, std::size_t capacity) {
  HeavyHitters hh(SheCountMin::load(in), capacity);
  // The table never holds more than its capacity, nor more entries than
  // the stream has bytes for; check both before sizing from the count.
  const std::uint64_t count = in.u64();
  if (count > capacity || count > in.remaining() / 16)
    throw SerializeError("HeavyHitters: " + std::to_string(count) +
                         " candidates exceed the table's capacity of " +
                         std::to_string(capacity) + " or the stream");
  hh.keys_.resize(static_cast<std::size_t>(count));
  hh.est_.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < hh.keys_.size(); ++i) {
    hh.keys_[i] = in.u64();
    hh.est_[i] = in.u64();
    if (i > 0 && hh.keys_[i] <= hh.keys_[i - 1])
      throw SerializeError(
          "HeavyHitters: candidate keys are not strictly increasing at "
          "entry " + std::to_string(i));
  }
  if (count > 0) hh.floor_ = std::ranges::min(hh.est_);
  return hh;
}

void HeavyHitters::clear() {
  sketch_.clear();
  keys_.clear();
  est_.clear();
  floor_ = kNoFloor;
  since_refresh_ = 0;
}

}  // namespace she
