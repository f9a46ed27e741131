#include "she/heavy_hitters.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace she {

HeavyHitters::HeavyHitters(const SheConfig& cfg, unsigned hashes,
                           std::size_t capacity)
    : sketch_(cfg, hashes), capacity_(capacity) {
  if (capacity == 0)
    throw std::invalid_argument("HeavyHitters: capacity must be > 0");
  candidates_.reserve(capacity + 1);
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
  while (!keys.empty()) {
    const std::size_t n = std::min(keys.size(), capacity_ - since_refresh_);
    const std::span<const std::uint64_t> chunk = keys.first(n);
    keys = keys.subspan(n);
    estimates_.resize(n);
    sketch_.insert_batch_estimates(chunk, estimates_);
    since_refresh_ += n;
    const bool refresh = since_refresh_ == capacity_;
    const std::size_t before_refresh = refresh ? n - 1 : n;
    for (std::size_t i = 0; i < before_refresh; ++i)
      maybe_admit(chunk[i], estimates_[i]);
    if (!refresh) continue;
    since_refresh_ = 0;
    const std::uint64_t last = estimates_[n - 1];
    refresh_candidates();
    maybe_admit(chunk[n - 1], last);
  }
}

void HeavyHitters::refresh_candidates() {
  refresh_keys_.clear();
  for (const auto& [cand, est] : candidates_) refresh_keys_.push_back(cand);
  estimates_.resize(refresh_keys_.size());
  sketch_.frequency_batch(refresh_keys_, estimates_);
  std::size_t i = 0;
  floor_ = kNoFloor;
  for (auto& [cand, est] : candidates_) {
    est = estimates_[i++];
    floor_ = std::min(floor_, est);
  }
}

void HeavyHitters::maybe_admit(std::uint64_t key, std::uint64_t estimate) {
  auto it = candidates_.find(key);
  if (it != candidates_.end()) {
    it->second = estimate;
    floor_ = std::min(floor_, estimate);
    return;
  }
  if (candidates_.size() < capacity_) {
    candidates_.emplace(key, estimate);
    floor_ = std::min(floor_, estimate);
    return;
  }
  // Evicting needs estimate > the weakest stored value >= floor_.
  if (estimate <= floor_) return;
  // Evict the weakest stored candidate if the newcomer beats it.  Stored
  // values may lag by up to one refresh period, which only makes eviction
  // conservative.  Ties go to the smallest key, never to hash-map order,
  // so a table restored from a checkpoint evicts what the original would.
  auto weakest = candidates_.begin();
  for (auto cand = candidates_.begin(); cand != candidates_.end(); ++cand)
    if (std::pair(cand->second, cand->first) <
        std::pair(weakest->second, weakest->first))
      weakest = cand;
  // Exact now; an eviction below only replaces the minimum with a larger
  // value, so the bound stays valid.
  floor_ = weakest->second;
  if (estimate > weakest->second) {
    candidates_.erase(weakest);
    candidates_.emplace(key, estimate);
  }
}

std::vector<HeavyHitters::Entry> HeavyHitters::top(std::size_t k) const {
  std::vector<Entry> out;
  out.reserve(candidates_.size());
  for (const auto& [key, stale] : candidates_) {
    (void)stale;
    out.push_back({key, sketch_.frequency(key)});
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.estimate != b.estimate ? a.estimate > b.estimate : a.key < b.key;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<HeavyHitters::Entry> HeavyHitters::candidates() const {
  std::vector<Entry> out;
  out.reserve(candidates_.size());
  for (const auto& [key, est] : candidates_) out.push_back({key, est});
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  return out;
}

void HeavyHitters::restore_candidates(const std::vector<Entry>& entries) {
  candidates_.clear();
  floor_ = kNoFloor;
  for (const Entry& e : entries) {
    if (candidates_.size() >= capacity_) break;
    candidates_.emplace(e.key, e.estimate);
    floor_ = std::min(floor_, e.estimate);
  }
  since_refresh_ = refresh_phase();
}

void HeavyHitters::clear() {
  sketch_.clear();
  candidates_.clear();
  floor_ = kNoFloor;
  since_refresh_ = 0;
}

}  // namespace she
