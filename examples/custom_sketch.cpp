// Extending SHE with a custom sketch via the CSM policy framework.
//
// The paper's framework promises: any algorithm expressible as the Common
// Sketch Model triple <cell type, K locations, update F> gets sliding-window
// behaviour for free.  This example defines a *sliding maximum-bid tracker*
// in ~25 lines of policy code: an ad exchange wants, per item category, the
// maximum bid observed over the most recent N bid events.
//
//   cell  = 16-bit max-bid register
//   K     = 2 hashed cells per category (min-of-maxima on query tames
//           collisions: a colliding category can only raise a cell)
//   F     = max(bid, cell)
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <vector>

#include "common/bobhash.hpp"
#include "common/rng.hpp"
#include "she/csm.hpp"

namespace {

/// CSM policy: sliding per-key maximum of a 16-bit payload.
struct MaxBidPolicy {
  using Cell = std::uint16_t;
  std::uint32_t seed = 0;

  [[nodiscard]] unsigned probes(std::size_t) const { return 2; }
  [[nodiscard]] std::size_t position(std::uint64_t event, unsigned i,
                                     std::size_t cells) const {
    return she::BobHash32(seed + i)(category(event)) % cells;
  }
  [[nodiscard]] Cell update(std::uint64_t event, unsigned, Cell old) const {
    Cell b = bid(event);
    return b > old ? b : old;
  }
  static Cell empty_cell() { return 0; }
  static std::size_t cell_bits() { return 16; }

  // Event encoding: (category << 16) | bid.
  static std::uint64_t category(std::uint64_t event) { return event >> 16; }
  static Cell bid(std::uint64_t event) { return static_cast<Cell>(event); }
  static std::uint64_t encode(std::uint64_t cat, Cell b) {
    return (cat << 16) | b;
  }
};

/// Query: min over mature probed cells — like SHE-CM, ignoring young cells
/// keeps the answer an upper bound on the true window maximum.
std::uint16_t max_bid(const she::csm::SlidingEstimator<MaxBidPolicy>& est,
                      std::uint64_t category) {
  std::uint64_t probe_event = MaxBidPolicy::encode(category, 0);
  std::uint16_t best = 0xFFFF;
  bool mature_seen = false;
  for (unsigned i = 0; i < 2; ++i) {
    auto cell = est.probe(probe_event, i);
    if (cell.age_class == she::csm::CellAge::kYoung) continue;
    mature_seen = true;
    best = std::min(best, cell.value);
  }
  return mature_seen ? best : 0;
}

}  // namespace

int main() {
  constexpr std::uint64_t kWindow = 100'000;

  she::SheConfig cfg;
  cfg.window = kWindow;
  cfg.cells = 1u << 16;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  she::csm::SlidingEstimator<MaxBidPolicy> tracker(cfg, MaxBidPolicy{});

  she::Rng rng(3);
  // Steady bidding across 10K categories, bids ~ uniform under 1000; plus
  // one whale: category 7 receives a 50'000 bid early on, never again.
  // Events arrive in batches of 1000: insert_batch runs the engine's block
  // pipeline (hash a block ahead, prefetch, then CheckGroup + F per event)
  // for this policy too, with the same cells as inserting one at a time.
  tracker.insert(MaxBidPolicy::encode(7, 50'000));
  std::vector<std::uint64_t> batch(1000);
  for (std::uint64_t t = 0; t < 5 * kWindow; t += batch.size()) {
    for (std::uint64_t& event : batch) {
      std::uint64_t cat = rng.below(10'000);
      auto bid = static_cast<std::uint16_t>(rng.below(1'000));
      event = MaxBidPolicy::encode(cat, bid);
    }
    tracker.insert_batch(batch);
    if ((t + batch.size()) % kWindow == 0) {
      std::printf("after %llu events: max bid in window for category 7 ~= %u\n",
                  static_cast<unsigned long long>(t + batch.size()),
                  max_bid(tracker, 7));
    }
  }
  std::printf("(the 50000 whale bid ages out after ~(1+alpha) windows; later "
              "answers reflect only recent bids)\n");
  std::printf("tracker memory: %zu bytes for 10K categories x %llu-event "
              "window\n",
              tracker.memory_bytes(), static_cast<unsigned long long>(kWindow));
  return 0;
}
