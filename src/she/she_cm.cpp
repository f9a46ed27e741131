#include "she/she_cm.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/she_metrics.hpp"
#include "she/batch_simd.hpp"

namespace she {

namespace {

/// Count-Min's answer over one key's k probes: the minimum over *mature*
/// probes (age >= window), or over all probes when every probe is young
/// (the documented fallback).  Branch-free per probe — maturity is a coin
/// flip across groups, and a mispredict would flush the cell loads of the
/// keys behind this one.
class MatureMin {
 public:
  MatureMin(std::uint64_t window, bool track) : window_(window), track_(track) {}

  void add(std::uint64_t value, std::uint64_t age) {
    if (track_) cls_.add(age, window_);
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
    if (track_) {
      cls_.commit(true);
      if (all_young()) obs::she_metrics().cm_all_young_queries.inc();
    }
    return all_young() ? best_any_ : best_mature_;
  }

 private:
  std::uint64_t window_;
  bool track_;
  std::uint64_t best_mature_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t best_any_ = std::numeric_limits<std::uint64_t>::max();
  obs::AgeClassCounts cls_;
};

}  // namespace

SheCountMin::SheCountMin(const SheConfig& cfg, unsigned hashes)
    : cfg_(cfg),
      hashes_(hashes),
      clock_(cfg.groups(), cfg.tcycle(), cfg.mark_bits),
      cells_(cfg.cells, 0) {
  cfg_.validate();
  if (hashes == 0) throw std::invalid_argument("SheCountMin: hashes must be > 0");
}

void SheCountMin::insert(std::uint64_t key) { insert_at(key, time_ + 1); }

void SheCountMin::advance_to(std::uint64_t t) {
  if (t < time_)
    throw std::invalid_argument("SheCountMin: time must not move backwards");
  time_ = t;
}

void SheCountMin::insert_at(std::uint64_t key, std::uint64_t t) {
  advance_to(t);
  if (obs::enabled()) obs::she_metrics().hash_calls.inc(hashes_);
  for (unsigned i = 0; i < hashes_; ++i) {
    std::size_t pos = position(key, i);
    std::size_t gid = pos / cfg_.group_cells;
    if (clock_.touch(gid, time_)) {
      std::size_t first = gid * cfg_.group_cells;
      std::size_t count = std::min(cfg_.group_cells, cfg_.cells - first);
      std::fill(cells_.begin() + first, cells_.begin() + first + count, 0u);
    }
    std::uint32_t& c = cells_[pos];
    if (c != std::numeric_limits<std::uint32_t>::max()) ++c;
  }
}

void SheCountMin::insert_batch(std::span<const std::uint64_t> keys) {
  insert_many(keys, nullptr, nullptr);
}

void SheCountMin::insert_batch_estimates(std::span<const std::uint64_t> keys,
                                         std::span<std::uint64_t> estimates) {
  if (estimates.size() < keys.size())
    throw std::invalid_argument(
        "SheCountMin: insert_batch_estimates output too small");
  insert_many(keys, nullptr, estimates.data());
}

void SheCountMin::insert_at_batch(std::span<const std::uint64_t> keys,
                                  std::span<const std::uint64_t> times) {
  batch::validate_insert_times(keys, times, time_, "SheCountMin");
  insert_many(keys, times.data(), nullptr);
}

std::uint64_t SheCountMin::estimate_staged(const batch::Slot* slots,
                                           std::uint64_t gid_mask,
                                           GroupClock::TimeParts now) const {
  // frequency(key) right after key's own update: the update touched every
  // probed group at time_, so none is stale and each value is the cell
  // itself; only the age test against the window remains.
  MatureMin m(cfg_.window, obs::enabled());
  for (unsigned h = 0; h < hashes_; ++h)
    m.add(cells_[slots[h].pos], clock_.age_at(now, slots[h].aux & gid_mask));
  if (m.all_young()) all_young_.inc();
  return m.finish();
}

void SheCountMin::insert_many(std::span<const std::uint64_t> keys,
                              const std::uint64_t* times,
                              std::uint64_t* estimates) {
  // The fused stage buffers hold one block of n * k slots; block_keys()
  // bounds that by kSlotBudget whenever k itself fits the budget.
  if (batch::simd_eligible(cfg_.cells) && hashes_ <= batch::kSlotBudget) {
    insert_many_simd(keys, times, estimates);
    return;
  }
  // Scalar reference path (also the SHE_FORCE_SCALAR path); aux = gid.
  // Cache-resident arrays are not worth prefetching (batch.hpp).
  const bool warm_cells =
      cells_.size() * sizeof(cells_[0]) >= batch::kPrefetchFootprint;
  const bool warm_marks = clock_.memory_bytes() >= batch::kPrefetchFootprint;
  GroupClock::TimeParts now = clock_.split(time_);
  std::size_t idx = 0;
  batch::pipelined(
      keys, hashes_, scratch_,
      [this](std::uint64_t key, unsigned h) {
        const std::size_t pos = position(key, h);
        return batch::Slot{pos, pos / cfg_.group_cells};
      },
      [this, warm_cells, warm_marks](const batch::Slot& s) {
        if (warm_cells) batch::prefetch_addr(&cells_[s.pos], true);
        if (warm_marks) clock_.prefetch(s.aux, true);
      },
      [this, times, estimates, &idx, &now] {
        if (times != nullptr)
          time_ = times[idx++];
        else
          ++time_;
        if (estimates != nullptr) clock_.tick(now);
        if (obs::enabled()) obs::she_metrics().hash_calls.inc(hashes_);
      },
      [this](std::uint64_t, unsigned, const batch::Slot& s) {
        const std::size_t gid = s.aux;
        if (clock_.touch(gid, time_)) {
          std::size_t first = gid * cfg_.group_cells;
          std::size_t count = std::min(cfg_.group_cells, cfg_.cells - first);
          std::fill(cells_.begin() + first, cells_.begin() + first + count, 0u);
        }
        std::uint32_t& c = cells_[s.pos];
        if (c != std::numeric_limits<std::uint32_t>::max()) ++c;
      },
      [this, estimates, &now](std::size_t i, const batch::Slot* slots) {
        if (estimates != nullptr)
          estimates[i] = estimate_staged(slots, ~std::uint64_t{0}, now);
      });
}

void SheCountMin::insert_many_simd(std::span<const std::uint64_t> keys,
                                   const std::uint64_t* times,
                                   std::uint64_t* estimates) {
  const bool warm_cells =
      cells_.size() * sizeof(cells_[0]) >= batch::kPrefetchFootprint;
  const bool warm_marks = clock_.memory_bytes() >= batch::kPrefetchFootprint;
  const FastDiv32 mod_cells(static_cast<std::uint32_t>(cfg_.cells));
  const FastDiv32 div_group(static_cast<std::uint32_t>(cfg_.group_cells));
  const batch::MarkStager stager(clock_, time_, times);
  GroupClock::TimeParts now = clock_.split(time_);
  std::size_t idx = 0;
  batch::pipelined_blocks(
      keys, hashes_, scratch_,
      // Stage 1, fused: one hash sweep, one position/group reduction and one
      // mark staging call over the whole key-major block (m = n * k slots),
      // then a single sequential write pass.  aux = cur << 32 | gid.
      [&](std::size_t begin, std::size_t n, batch::Slot* out) {
        std::uint32_t h32[batch::kSlotBudget];
        std::uint32_t pos[batch::kSlotBudget];
        std::uint32_t gid[batch::kSlotBudget];
        std::uint32_t cur[batch::kSlotBudget];
        const std::size_t m = n * hashes_;
        simd::bobhash32_keys_multi(keys.data() + begin, n, cfg_.seed, hashes_,
                                   h32);
        simd::positions_groups(h32, m, mod_cells, div_group, pos, gid);
        stager.stage_rep(begin, n, hashes_, gid, cur);
        for (std::size_t s = 0; s < m; ++s) {
          out[s].pos = pos[s];
          out[s].aux = (std::uint64_t{cur[s]} << 32) | gid[s];
          if (warm_cells) batch::prefetch_addr(&cells_[pos[s]], true);
          if (warm_marks) clock_.prefetch(gid[s], true);
        }
      },
      [this, times, estimates, &idx, &now] {
        if (times != nullptr)
          time_ = times[idx++];
        else
          ++time_;
        if (estimates != nullptr) clock_.tick(now);
        if (obs::enabled()) obs::she_metrics().hash_calls.inc(hashes_);
      },
      // Stage 2: scalar CheckGroup + saturating increment, staged mark.
      [this](std::uint64_t, unsigned, const batch::Slot& s) {
        const std::size_t gid = s.aux & 0xFFFFFFFFu;
        if (clock_.touch_precomputed(gid, s.aux >> 32)) {
          std::size_t first = gid * cfg_.group_cells;
          std::size_t count = std::min(cfg_.group_cells, cfg_.cells - first);
          std::fill(cells_.begin() + first, cells_.begin() + first + count, 0u);
        }
        std::uint32_t& c = cells_[s.pos];
        if (c != std::numeric_limits<std::uint32_t>::max()) ++c;
      },
      [this, estimates, &now](std::size_t i, const batch::Slot* slots) {
        if (estimates != nullptr)
          estimates[i] = estimate_staged(slots, 0xFFFFFFFFu, now);
      });
}

void SheCountMin::frequency_batch(std::span<const std::uint64_t> keys,
                                  std::span<std::uint64_t> out,
                                  std::uint64_t window) const {
  if (window == 0 || window > cfg_.window)
    throw std::invalid_argument("SheCountMin: query window must be in [1, N]");
  if (out.size() < keys.size())
    throw std::invalid_argument("SheCountMin: frequency_batch output too small");
  const bool track = obs::enabled();
  const bool warm_cells =
      cells_.size() * sizeof(cells_[0]) >= batch::kPrefetchFootprint;
  const bool warm_marks = clock_.memory_bytes() >= batch::kPrefetchFootprint;
  // Local scratch keeps this const path thread-safe on shared readers.
  std::vector<batch::Slot> scratch;
  if (batch::simd_eligible(cfg_.cells) && hashes_ <= batch::kSlotBudget) {
    // SIMD stage 1: fused hash sweep + staged ages and staleness at the
    // (fixed) query time; aux = age << 1 | stale.  Evaluation replays the
    // scalar min-over-mature logic against the staged values.
    const FastDiv32 mod_cells(static_cast<std::uint32_t>(cfg_.cells));
    const FastDiv32 div_group(static_cast<std::uint32_t>(cfg_.group_cells));
    const GroupClock::TimeParts now = clock_.split(time_);
    batch::pipelined_query_blocks(
        keys, hashes_, scratch,
        [&](std::size_t begin, std::size_t n, batch::Slot* slots) {
          std::uint32_t h32[batch::kSlotBudget];
          std::uint32_t pos[batch::kSlotBudget];
          std::uint32_t gid[batch::kSlotBudget];
          std::uint32_t cur[batch::kSlotBudget];
          std::uint64_t age[batch::kSlotBudget];
          const std::size_t m = n * hashes_;
          simd::bobhash32_keys_multi(keys.data() + begin, n, cfg_.seed,
                                     hashes_, h32);
          simd::positions_groups(h32, m, mod_cells, div_group, pos, gid);
          clock_.stage_marks(gid, m, now, cur, age);
          for (std::size_t s = 0; s < m; ++s) {
            const std::uint64_t stale =
                clock_.stored_mark(gid[s]) != cur[s] ? 1 : 0;
            slots[s].pos = pos[s];
            slots[s].aux = (age[s] << 1) | stale;
            if (warm_cells) batch::prefetch_addr(&cells_[pos[s]], false);
            if (warm_marks) clock_.prefetch(gid[s], false);
          }
        },
        [&](std::size_t i, const batch::Slot* slots) {
          MatureMin m(window, track);
          for (unsigned h = 0; h < hashes_; ++h) {
            const bool stale = (slots[h].aux & 1) != 0;
            m.add(stale ? 0 : cells_[slots[h].pos], slots[h].aux >> 1);
          }
          if (m.all_young()) all_young_.inc();
          out[i] = m.finish();
        });
    if (track)
      obs::she_metrics().hash_calls.inc(
          static_cast<std::uint64_t>(keys.size()) * hashes_);
    return;
  }
  batch::pipelined_query(
      keys, hashes_, scratch,
      [this](std::uint64_t key, unsigned h) {
        return batch::Slot{position(key, h), 0};
      },
      [this, warm_cells, warm_marks](const batch::Slot& s) {
        if (warm_cells) batch::prefetch_addr(&cells_[s.pos], false);
        if (warm_marks) clock_.prefetch(s.pos / cfg_.group_cells, false);
      },
      [&](std::size_t i, const batch::Slot* slots) {
        // Same min-over-mature logic as scalar frequency(); positions
        // staged, hashed exactly once per probe.
        MatureMin m(window, track);
        for (unsigned h = 0; h < hashes_; ++h) {
          const std::size_t pos = slots[h].pos;
          const std::size_t gid = pos / cfg_.group_cells;
          m.add(clock_.stale(gid, time_) ? 0 : cells_[pos],
                clock_.age(gid, time_));
        }
        if (m.all_young()) all_young_.inc();
        out[i] = m.finish();
      });
  if (track)
    obs::she_metrics().hash_calls.inc(
        static_cast<std::uint64_t>(keys.size()) * hashes_);
}

std::uint64_t SheCountMin::frequency(std::uint64_t key,
                                     std::uint64_t window) const {
  if (window == 0 || window > cfg_.window)
    throw std::invalid_argument("SheCountMin: query window must be in [1, N]");
  const bool track = obs::enabled();
  MatureMin m(window, track);
  for (unsigned i = 0; i < hashes_; ++i) {
    const std::size_t pos = position(key, i);
    const std::size_t gid = pos / cfg_.group_cells;
    m.add(clock_.stale(gid, time_) ? 0 : cells_[pos], clock_.age(gid, time_));
  }
  if (track) obs::she_metrics().hash_calls.inc(hashes_);
  // Every probe young: best-effort answer, may underestimate.
  if (m.all_young()) all_young_.inc();
  return m.finish();
}

void SheCountMin::save(BinaryWriter& out) const {
  out.tag("SHCM");
  cfg_.save(out);
  out.u32(hashes_);
  out.u64(time_);
  clock_.save(out);
  out.u32_vector(cells_);
}

SheCountMin SheCountMin::load(BinaryReader& in) {
  in.expect_tag("SHCM");
  SheConfig cfg = SheConfig::load(in);
  unsigned hashes = in.u32();
  SheCountMin cm(cfg, hashes);
  cm.time_ = in.u64();
  cm.clock_ = GroupClock::load(in);
  cm.cells_ = in.u32_vector();
  if (cm.clock_.groups() != cfg.groups() || cm.cells_.size() != cfg.cells)
    throw std::runtime_error("SheCountMin::load: shape mismatch");
  return cm;
}

void SheCountMin::clear() {
  std::fill(cells_.begin(), cells_.end(), 0u);
  clock_.reset();
  time_ = 0;
  all_young_ = QueryCounter();
}

}  // namespace she
