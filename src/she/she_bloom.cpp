#include "she/she_bloom.hpp"

#include <stdexcept>

#include "obs/she_metrics.hpp"
#include "she/batch_simd.hpp"

namespace she {

SheBloomFilter::SheBloomFilter(const SheConfig& cfg, unsigned hashes)
    : cfg_(cfg),
      hashes_(hashes),
      clock_(cfg.groups(), cfg.tcycle(), cfg.mark_bits),
      bits_(cfg.cells) {
  cfg_.validate();
  if (hashes == 0) throw std::invalid_argument("SheBloomFilter: hashes must be > 0");
}

void SheBloomFilter::insert(std::uint64_t key) { insert_at(key, time_ + 1); }

void SheBloomFilter::advance_to(std::uint64_t t) {
  if (t < time_)
    throw std::invalid_argument("SheBloomFilter: time must not move backwards");
  time_ = t;
}

void SheBloomFilter::insert_at(std::uint64_t key, std::uint64_t t) {
  advance_to(t);
  for (unsigned i = 0; i < hashes_; ++i) {
    std::size_t pos = position(key, i);
    std::size_t gid = pos / cfg_.group_cells;
    if (clock_.touch(gid, time_)) {
      std::size_t first = gid * cfg_.group_cells;
      std::size_t count = std::min(cfg_.group_cells, cfg_.cells - first);
      bits_.clear_range(first, count);
    }
    bits_.set(pos);
  }
  if (obs::enabled()) obs::she_metrics().hash_calls.inc(hashes_);
}

void SheBloomFilter::insert_batch(std::span<const std::uint64_t> keys) {
  insert_many(keys, nullptr);
}

void SheBloomFilter::insert_at_batch(std::span<const std::uint64_t> keys,
                                     std::span<const std::uint64_t> times) {
  batch::validate_insert_times(keys, times, time_, "SheBloomFilter");
  insert_many(keys, times.data());
}

void SheBloomFilter::insert_many(std::span<const std::uint64_t> keys,
                                 const std::uint64_t* times) {
  if (!stageable()) {
    for (std::size_t i = 0; i < keys.size(); ++i)
      insert_at(keys[i], times != nullptr ? times[i] : time_ + 1);
    return;
  }
  // Cache-resident arrays are not worth prefetching (batch.hpp).
  const bool warm_bits = bits_.memory_bytes() >= batch::kPrefetchFootprint;
  const bool warm_marks = clock_.memory_bytes() >= batch::kPrefetchFootprint;
  const FastDiv32 mod_cells(static_cast<std::uint32_t>(cfg_.cells));
  const FastDiv32 div_group(static_cast<std::uint32_t>(cfg_.group_cells));
  const batch::MarkStager stager(clock_, time_, times);
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
          if (warm_bits) bits_.prefetch(pos[s], true);
          if (warm_marks) clock_.prefetch(gid[s], true);
        }
      },
      // Stage 2: the per-key CheckGroup + set, against the staged mark.
      [&](std::size_t i, const batch::Slot* slots) {
        time_ = times != nullptr ? times[i] : time_ + 1;
        for (unsigned h = 0; h < hashes_; ++h) {
          const std::size_t gid = slots[h].aux & 0xFFFFFFFFu;
          if (clock_.touch_precomputed(gid, slots[h].aux >> 32)) {
            std::size_t first = gid * cfg_.group_cells;
            std::size_t count = std::min(cfg_.group_cells, cfg_.cells - first);
            bits_.clear_range(first, count);
          }
          bits_.set(slots[h].pos);
        }
      });
  // One increment for the whole batch: the tail runs through the same
  // staged pipeline, so accounting is uniform (k hashes per key, exactly).
  if (obs::enabled())
    obs::she_metrics().hash_calls.inc(
        static_cast<std::uint64_t>(keys.size()) * hashes_);
}

void SheBloomFilter::contains_batch(std::span<const std::uint64_t> keys,
                                    std::span<std::uint8_t> out,
                                    std::uint64_t window) const {
  if (window == 0 || window > cfg_.window)
    throw std::invalid_argument("SheBloomFilter: query window must be in [1, N]");
  if (out.size() < keys.size())
    throw std::invalid_argument("SheBloomFilter: contains_batch output too small");
  if (!stageable()) {
    for (std::size_t i = 0; i < keys.size(); ++i)
      out[i] = contains(keys[i], window) ? 1 : 0;
    return;
  }
  const bool track = obs::enabled();
  const bool warm_bits = bits_.memory_bytes() >= batch::kPrefetchFootprint;
  const bool warm_marks = clock_.memory_bytes() >= batch::kPrefetchFootprint;
  const FastDiv32 mod_cells(static_cast<std::uint32_t>(cfg_.cells));
  const FastDiv32 div_group(static_cast<std::uint32_t>(cfg_.group_cells));
  const GroupClock::TimeParts now = clock_.split(time_);
  // Local scratch keeps this const path thread-safe on shared readers; one
  // allocation per batch call is noise against the per-key work.
  std::vector<batch::Slot> scratch;
  batch::pipelined_blocks(
      keys, hashes_, scratch,
      // Stage 1: hash sweeps + staged ages and staleness at the (fixed)
      // query time, so the key-major slots stage flat; aux = age << 1 |
      // stale.
      [&](std::size_t begin, std::size_t n, batch::Slot* slots) {
        std::uint32_t h32[batch::kSlotBudget];
        std::uint32_t pos[batch::kSlotBudget];
        std::uint32_t gid[batch::kSlotBudget];
        std::uint32_t cur[batch::kSlotBudget];
        std::uint64_t age[batch::kSlotBudget];
        const std::size_t m = n * hashes_;
        simd::bobhash32_keys_multi(keys.data() + begin, n, cfg_.seed, hashes_,
                                   h32);
        simd::positions_groups(h32, m, mod_cells, div_group, pos, gid);
        clock_.stage_marks(gid, m, now, cur, age);
        for (std::size_t s = 0; s < m; ++s) {
          const std::uint64_t stale =
              clock_.stored_mark(gid[s]) != cur[s] ? 1 : 0;
          slots[s].pos = pos[s];
          slots[s].aux = (age[s] << 1) | stale;
          if (warm_bits) bits_.prefetch(pos[s], false);
          if (warm_marks) clock_.prefetch(gid[s], false);
        }
      },
      // Stage 2: contains()'s probe-by-probe logic against the staged values.
      [&](std::size_t i, const batch::Slot* slots) {
        obs::AgeClassCounts cls;
        bool present = true;
        for (unsigned h = 0; h < hashes_; ++h) {
          const std::uint64_t age = slots[h].aux >> 1;
          if (track) cls.add(age, window);
          if (age < window) continue;
          const bool stale = (slots[h].aux & 1) != 0;
          if (!(stale ? false : bits_.test(slots[h].pos))) {
            present = false;
            break;
          }
        }
        out[i] = present ? 1 : 0;
        if (track) cls.commit(true);
      });
  // All probe hashes are staged up front, so the batch path charges exactly
  // k hash calls per key regardless of early exits.
  if (track)
    obs::she_metrics().hash_calls.inc(
        static_cast<std::uint64_t>(keys.size()) * hashes_);
}

bool SheBloomFilter::contains(std::uint64_t key, std::uint64_t window) const {
  if (window == 0 || window > cfg_.window)
    throw std::invalid_argument("SheBloomFilter: query window must be in [1, N]");
  const bool track = obs::enabled();
  obs::AgeClassCounts cls;
  for (unsigned i = 0; i < hashes_; ++i) {
    std::size_t pos = position(key, i);
    std::size_t gid = pos / cfg_.group_cells;
    std::uint64_t age = clock_.age(gid, time_);
    if (track) cls.add(age, window);
    if (age < window) continue;  // young cell: ignore (no false negatives)
    bool bit = clock_.stale(gid, time_) ? false : bits_.test(pos);
    if (!bit) {  // a zero mature bit proves absence
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
    obs::she_metrics().hash_calls.inc(hashes_);
  }
  return true;
}

void SheBloomFilter::save(BinaryWriter& out) const {
  out.tag("SHBF");
  cfg_.save(out);
  out.u32(hashes_);
  out.u64(time_);
  clock_.save(out);
  bits_.save(out);
}

SheBloomFilter SheBloomFilter::load(BinaryReader& in) {
  in.expect_tag("SHBF");
  SheConfig cfg = SheConfig::load(in);
  unsigned hashes = in.u32();
  SheBloomFilter bf(cfg, hashes);
  bf.time_ = in.u64();
  bf.clock_ = GroupClock::load(in);
  bf.bits_ = BitArray::load(in);
  if (bf.clock_.groups() != cfg.groups() || bf.bits_.size() != cfg.cells)
    throw std::runtime_error("SheBloomFilter::load: shape mismatch");
  return bf;
}

void SheBloomFilter::clear() {
  bits_.clear();
  clock_.reset();
  time_ = 0;
}

}  // namespace she
