#include "she/she_bitmap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/she_metrics.hpp"
#include "she/batch_simd.hpp"
#include "sketch/bitmap.hpp"

namespace she {

SheBitmap::SheBitmap(const SheConfig& cfg)
    : cfg_(cfg), clock_(cfg.groups(), cfg.tcycle(), cfg.mark_bits), bits_(cfg.cells) {
  cfg_.validate();
}

void SheBitmap::insert(std::uint64_t key) { insert_at(key, time_ + 1); }

void SheBitmap::advance_to(std::uint64_t t) {
  if (t < time_)
    throw std::invalid_argument("SheBitmap: time must not move backwards");
  time_ = t;
}

void SheBitmap::insert_at(std::uint64_t key, std::uint64_t t) {
  advance_to(t);
  if (obs::enabled()) obs::she_metrics().hash_calls.inc();
  std::size_t pos = BobHash32(cfg_.seed)(key) % cfg_.cells;
  std::size_t gid = pos / cfg_.group_cells;
  if (clock_.touch(gid, time_)) {
    std::size_t first = gid * cfg_.group_cells;
    bits_.clear_range(first, std::min(cfg_.group_cells, cfg_.cells - first));
  }
  bits_.set(pos);
}

void SheBitmap::insert_batch(std::span<const std::uint64_t> keys) {
  insert_many(keys, nullptr);
}

void SheBitmap::insert_at_batch(std::span<const std::uint64_t> keys,
                                std::span<const std::uint64_t> times) {
  batch::validate_insert_times(keys, times, time_, "SheBitmap");
  insert_many(keys, times.data());
}

void SheBitmap::insert_many(std::span<const std::uint64_t> keys,
                            const std::uint64_t* times) {
  if (!batch::stageable(cfg_.cells)) {
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
      keys, 1, scratch_,
      // Stage 1: one hash sweep per block (k = 1), FastDiv reduction,
      // precomputed marks.  aux = cur << 32 | gid.
      [&](std::size_t begin, std::size_t n, batch::Slot* out) {
        std::uint32_t h32[batch::kMaxBlock];
        std::uint32_t pos[batch::kMaxBlock];
        std::uint32_t gid[batch::kMaxBlock];
        std::uint32_t cur[batch::kMaxBlock];
        simd::bobhash32_keys(keys.data() + begin, n, cfg_.seed, h32);
        simd::positions_groups(h32, n, mod_cells, div_group, pos, gid);
        stager.stage(begin, n, gid, cur);
        for (std::size_t b = 0; b < n; ++b) {
          out[b].pos = pos[b];
          out[b].aux = (std::uint64_t{cur[b]} << 32) | gid[b];
          if (warm_bits) bits_.prefetch(pos[b], true);
          if (warm_marks) clock_.prefetch(gid[b], true);
        }
      },
      // Stage 2: the per-key CheckGroup + set, against the staged mark.
      [&](std::size_t i, const batch::Slot* s) {
        time_ = times != nullptr ? times[i] : time_ + 1;
        if (obs::enabled()) obs::she_metrics().hash_calls.inc();
        const std::size_t gid = s->aux & 0xFFFFFFFFu;
        if (clock_.touch_precomputed(gid, s->aux >> 32)) {
          std::size_t first = gid * cfg_.group_cells;
          bits_.clear_range(first, std::min(cfg_.group_cells, cfg_.cells - first));
        }
        bits_.set(s->pos);
      });
}

bool SheBitmap::legal_age(std::uint64_t age) const {
  auto lower = static_cast<std::uint64_t>(cfg_.beta * static_cast<double>(cfg_.window));
  return age >= lower;
}

std::size_t SheBitmap::legal_groups() const {
  std::size_t legal = 0;
  for (std::size_t g = 0; g < clock_.groups(); ++g)
    if (legal_age(clock_.age(g, time_))) ++legal;
  return legal;
}

double SheBitmap::cardinality() const {
  const bool track = obs::enabled();
  obs::AgeClassCounts cls;
  std::size_t zeros = 0;
  std::size_t observed = 0;
  // Ages and staleness marks are staged in chunks through the vectorized
  // GroupClock kernels (same values as the per-group age()/stale() calls,
  // one division per scan instead of two per group).
  const GroupClock::TimeParts now = clock_.split(time_);
  constexpr std::size_t kChunk = 256;
  std::uint64_t age[kChunk];
  std::uint32_t cur[kChunk];
  const std::size_t groups = clock_.groups();
  for (std::size_t g0 = 0; g0 < groups; g0 += kChunk) {
    const std::size_t n = std::min(kChunk, groups - g0);
    clock_.stage_marks_range(g0, n, now, cur, age);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t g = g0 + j;
      if (track) cls.add(age[j], cfg_.window);
      if (!legal_age(age[j])) continue;
      std::size_t first = g * cfg_.group_cells;
      std::size_t count = std::min(cfg_.group_cells, cfg_.cells - first);
      observed += count;
      zeros += clock_.stored_mark(g) != cur[j] ? count
                                               : bits_.zeros_range(first, count);
    }
  }
  cls.commit(track);
  return fixed::linear_counting(zeros, observed, static_cast<double>(cfg_.cells));
}

double SheBitmap::cardinality(std::uint64_t window) const {
  if (window == 0 || window > cfg_.window)
    throw std::invalid_argument("SheBitmap: query window must be in [1, N]");
  auto lower = static_cast<std::uint64_t>(cfg_.beta * static_cast<double>(window));
  auto upper = static_cast<std::uint64_t>((2.0 - cfg_.beta) * static_cast<double>(window));
  const bool track = obs::enabled();
  obs::AgeClassCounts cls;
  std::size_t zeros = 0;
  std::size_t observed = 0;
  const GroupClock::TimeParts now = clock_.split(time_);
  constexpr std::size_t kChunk = 256;
  std::uint64_t age[kChunk];
  std::uint32_t cur[kChunk];
  const std::size_t groups = clock_.groups();
  for (std::size_t g0 = 0; g0 < groups; g0 += kChunk) {
    const std::size_t n = std::min(kChunk, groups - g0);
    clock_.stage_marks_range(g0, n, now, cur, age);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t g = g0 + j;
      if (track) cls.add(age[j], window);
      if (age[j] < lower || age[j] >= upper) continue;
      std::size_t first = g * cfg_.group_cells;
      std::size_t count = std::min(cfg_.group_cells, cfg_.cells - first);
      observed += count;
      zeros += clock_.stored_mark(g) != cur[j] ? count
                                               : bits_.zeros_range(first, count);
    }
  }
  cls.commit(track);
  if (observed == 0) return 0.0;  // no group's age matches this sub-window yet
  return fixed::linear_counting(zeros, observed, static_cast<double>(cfg_.cells));
}

std::vector<double> SheBitmap::cardinality_batch(
    std::span<const std::uint64_t> windows) const {
  for (std::uint64_t w : windows)
    if (w == 0 || w > cfg_.window)
      throw std::invalid_argument("SheBitmap: query window must be in [1, N]");
  const std::size_t nw = windows.size();
  std::vector<std::uint64_t> lower(nw), upper(nw);
  for (std::size_t j = 0; j < nw; ++j) {
    lower[j] = static_cast<std::uint64_t>(cfg_.beta * static_cast<double>(windows[j]));
    upper[j] = static_cast<std::uint64_t>((2.0 - cfg_.beta) *
                                          static_cast<double>(windows[j]));
  }
  const bool track = obs::enabled();
  std::vector<obs::AgeClassCounts> cls(track ? nw : 0);
  std::vector<std::size_t> zeros(nw, 0), observed(nw, 0);
  // One scan: each group's age and zero count are computed once and reused
  // by every window whose legal band contains the age.
  for (std::size_t g = 0; g < clock_.groups(); ++g) {
    std::uint64_t age = clock_.age(g, time_);
    std::size_t first = g * cfg_.group_cells;
    std::size_t count = std::min(cfg_.group_cells, cfg_.cells - first);
    std::size_t group_zeros = 0;
    bool zeros_known = false;
    for (std::size_t j = 0; j < nw; ++j) {
      if (track) cls[j].add(age, windows[j]);
      if (age < lower[j] || age >= upper[j]) continue;
      if (!zeros_known) {
        group_zeros =
            clock_.stale(g, time_) ? count : bits_.zeros_range(first, count);
        zeros_known = true;
      }
      observed[j] += count;
      zeros[j] += group_zeros;
    }
  }
  std::vector<double> result(nw, 0.0);
  for (std::size_t j = 0; j < nw; ++j) {
    if (track) cls[j].commit(true);
    if (observed[j] == 0) continue;  // matches the scalar 0.0 answer
    result[j] = fixed::linear_counting(zeros[j], observed[j],
                                       static_cast<double>(cfg_.cells));
  }
  return result;
}

void SheBitmap::save(BinaryWriter& out) const {
  out.tag("SHBM");
  cfg_.save(out);
  out.u64(time_);
  clock_.save(out);
  bits_.save(out);
}

SheBitmap SheBitmap::load(BinaryReader& in) {
  in.expect_tag("SHBM");
  SheConfig cfg = SheConfig::load(in);
  SheBitmap bm(cfg);
  bm.time_ = in.u64();
  bm.clock_ = GroupClock::load(in);
  bm.bits_ = BitArray::load(in);
  if (bm.clock_.groups() != cfg.groups() || bm.bits_.size() != cfg.cells)
    throw std::runtime_error("SheBitmap::load: shape mismatch");
  return bm;
}

void SheBitmap::clear() {
  bits_.clear();
  clock_.reset();
  time_ = 0;
}

}  // namespace she
