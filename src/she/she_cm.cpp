#include "she/she_cm.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/she_metrics.hpp"
#include "she/batch_simd.hpp"

namespace she {

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
  insert_many(keys, nullptr);
}

void SheCountMin::insert_at_batch(std::span<const std::uint64_t> keys,
                                  std::span<const std::uint64_t> times) {
  batch::validate_insert_times(keys, times, time_, "SheCountMin");
  insert_many(keys, times.data());
}

void SheCountMin::insert_many(std::span<const std::uint64_t> keys,
                              const std::uint64_t* times) {
  // The fused stage buffers hold one block of n * k slots; block_keys()
  // bounds that by kSlotBudget whenever k itself fits the budget.
  if (batch::simd_eligible(cfg_.cells) && hashes_ <= batch::kSlotBudget) {
    insert_many_simd(keys, times);
    return;
  }
  // Scalar reference path (also the SHE_FORCE_SCALAR path).
  // Cache-resident arrays are not worth prefetching (batch.hpp).
  const bool warm_cells =
      cells_.size() * sizeof(cells_[0]) >= batch::kPrefetchFootprint;
  const bool warm_marks = clock_.memory_bytes() >= batch::kPrefetchFootprint;
  std::size_t idx = 0;
  batch::pipelined(
      keys, hashes_, scratch_,
      [this](std::uint64_t key, unsigned h) {
        return batch::Slot{position(key, h), 0};
      },
      [this, warm_cells, warm_marks](const batch::Slot& s) {
        if (warm_cells) batch::prefetch_addr(&cells_[s.pos], true);
        if (warm_marks) clock_.prefetch(s.pos / cfg_.group_cells, true);
      },
      [this, times, &idx] {
        if (times != nullptr)
          time_ = times[idx++];
        else
          ++time_;
        if (obs::enabled()) obs::she_metrics().hash_calls.inc(hashes_);
      },
      [this](std::uint64_t, unsigned, const batch::Slot& s) {
        std::size_t gid = s.pos / cfg_.group_cells;
        if (clock_.touch(gid, time_)) {
          std::size_t first = gid * cfg_.group_cells;
          std::size_t count = std::min(cfg_.group_cells, cfg_.cells - first);
          std::fill(cells_.begin() + first, cells_.begin() + first + count, 0u);
        }
        std::uint32_t& c = cells_[s.pos];
        if (c != std::numeric_limits<std::uint32_t>::max()) ++c;
      });
}

void SheCountMin::insert_many_simd(std::span<const std::uint64_t> keys,
                                   const std::uint64_t* times) {
  const bool warm_cells =
      cells_.size() * sizeof(cells_[0]) >= batch::kPrefetchFootprint;
  const bool warm_marks = clock_.memory_bytes() >= batch::kPrefetchFootprint;
  const FastDiv32 mod_cells(static_cast<std::uint32_t>(cfg_.cells));
  const FastDiv32 div_group(static_cast<std::uint32_t>(cfg_.group_cells));
  const batch::MarkStager stager(clock_, time_, times);
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
      [this, times, &idx] {
        if (times != nullptr)
          time_ = times[idx++];
        else
          ++time_;
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
          std::uint64_t best_mature = std::numeric_limits<std::uint64_t>::max();
          std::uint64_t best_any = std::numeric_limits<std::uint64_t>::max();
          obs::AgeClassCounts cls;
          for (unsigned h = 0; h < hashes_; ++h) {
            const std::uint64_t age = slots[h].aux >> 1;
            if (track) cls.add(age, window);
            const bool stale = (slots[h].aux & 1) != 0;
            const std::uint64_t value = stale ? 0 : cells_[slots[h].pos];
            best_any = std::min(best_any, value);
            if (age >= window) best_mature = std::min(best_mature, value);
          }
          if (track) cls.commit(true);
          if (best_mature != std::numeric_limits<std::uint64_t>::max()) {
            out[i] = best_mature;
          } else {
            all_young_.inc();
            if (track) obs::she_metrics().cm_all_young_queries.inc();
            out[i] = best_any;
          }
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
        std::uint64_t best_mature = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t best_any = std::numeric_limits<std::uint64_t>::max();
        obs::AgeClassCounts cls;
        for (unsigned h = 0; h < hashes_; ++h) {
          std::size_t pos = slots[h].pos;
          std::size_t gid = pos / cfg_.group_cells;
          std::uint64_t age = clock_.age(gid, time_);
          if (track) cls.add(age, window);
          std::uint64_t value = clock_.stale(gid, time_) ? 0 : cells_[pos];
          best_any = std::min(best_any, value);
          if (age >= window) best_mature = std::min(best_mature, value);
        }
        if (track) cls.commit(true);
        if (best_mature != std::numeric_limits<std::uint64_t>::max()) {
          out[i] = best_mature;
        } else {
          all_young_.inc();
          if (track) obs::she_metrics().cm_all_young_queries.inc();
          out[i] = best_any;
        }
      });
  if (track)
    obs::she_metrics().hash_calls.inc(
        static_cast<std::uint64_t>(keys.size()) * hashes_);
}

std::uint64_t SheCountMin::frequency(std::uint64_t key,
                                     std::uint64_t window) const {
  if (window == 0 || window > cfg_.window)
    throw std::invalid_argument("SheCountMin: query window must be in [1, N]");
  std::uint64_t best_mature = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t best_any = std::numeric_limits<std::uint64_t>::max();
  for (unsigned i = 0; i < hashes_; ++i) {
    std::size_t pos = position(key, i);
    std::size_t gid = pos / cfg_.group_cells;
    std::uint64_t value = clock_.stale(gid, time_) ? 0 : cells_[pos];
    best_any = std::min(best_any, value);
    if (clock_.age(gid, time_) >= window)
      best_mature = std::min(best_mature, value);
  }
  // Telemetry runs as a separate pass so the hot loop above stays exactly
  // as tight with the toggle off; redoing the position math with the
  // toggle on is an accepted enabled-mode cost.
  const bool track = obs::enabled();
  if (track) {
    obs::AgeClassCounts cls;
    for (unsigned i = 0; i < hashes_; ++i) {
      std::size_t gid = position(key, i) / cfg_.group_cells;
      cls.add(clock_.age(gid, time_), window);
    }
    cls.commit(true);
    obs::she_metrics().hash_calls.inc(2 * hashes_);
  }
  if (best_mature != std::numeric_limits<std::uint64_t>::max()) return best_mature;
  all_young_.inc();  // every probe young: best-effort answer, may underestimate
  if (track) obs::she_metrics().cm_all_young_queries.inc();
  return best_any;
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
