#include "she/she_hll.hpp"

#include <cmath>
#include <stdexcept>

#include "common/int_math.hpp"
#include "obs/she_metrics.hpp"
#include "she/batch_simd.hpp"
#include "sketch/hyperloglog.hpp"

namespace she {

namespace {
constexpr unsigned kRankBits = 5;
constexpr unsigned kValueBits = 32;
}  // namespace

SheHyperLogLog::SheHyperLogLog(const SheConfig& cfg)
    : cfg_(cfg),
      clock_(cfg.groups(), cfg.tcycle(), cfg.mark_bits),
      regs_(cfg.cells, kRankBits) {
  cfg_.validate();
  if (cfg.group_cells != 1)
    throw std::invalid_argument("SheHyperLogLog: group_cells must be 1 (w = 1)");
}

void SheHyperLogLog::insert(std::uint64_t key) { insert_at(key, time_ + 1); }

void SheHyperLogLog::advance_to(std::uint64_t t) {
  if (t < time_)
    throw std::invalid_argument("SheHyperLogLog: time must not move backwards");
  time_ = t;
}

void SheHyperLogLog::insert_at(std::uint64_t key, std::uint64_t t) {
  advance_to(t);
  if (obs::enabled()) obs::she_metrics().hash_calls.inc(2);
  std::size_t i = BobHash32(cfg_.seed)(key) % cfg_.cells;
  std::uint32_t h = BobHash32(cfg_.seed + 0x5eed)(key);
  std::uint64_t rank = hll_rank(h, kValueBits);
  if (rank > regs_.max_value()) rank = regs_.max_value();
  if (clock_.touch(i, time_)) regs_.set(i, 0);
  if (rank > regs_.get(i)) regs_.set(i, rank);
}

void SheHyperLogLog::insert_batch(std::span<const std::uint64_t> keys) {
  insert_many(keys, nullptr);
}

void SheHyperLogLog::insert_at_batch(std::span<const std::uint64_t> keys,
                                     std::span<const std::uint64_t> times) {
  batch::validate_insert_times(keys, times, time_, "SheHyperLogLog");
  insert_many(keys, times.data());
}

void SheHyperLogLog::insert_many(std::span<const std::uint64_t> keys,
                                 const std::uint64_t* times) {
  if (!batch::stageable(cfg_.cells)) {
    for (std::size_t i = 0; i < keys.size(); ++i)
      insert_at(keys[i], times != nullptr ? times[i] : time_ + 1);
    return;
  }
  // Cache-resident arrays are not worth prefetching (batch.hpp).
  const bool warm_regs = regs_.memory_bytes() >= batch::kPrefetchFootprint;
  const bool warm_marks = clock_.memory_bytes() >= batch::kPrefetchFootprint;
  const FastDiv32 mod_cells(static_cast<std::uint32_t>(cfg_.cells));
  const batch::MarkStager stager(clock_, time_, times);
  const std::uint64_t max_rank = regs_.max_value();
  batch::pipelined_blocks(
      keys, 1, scratch_,
      // Stage 1: two hash sweeps (register index + rank source), ranks
      // clamped, marks precomputed.  w = 1, so group id == register index;
      // aux = cur << 8 | rank (rank <= 33 fits a byte).
      [&](std::size_t begin, std::size_t n, batch::Slot* out) {
        std::uint32_t hidx[batch::kMaxBlock];
        std::uint32_t hrank[batch::kMaxBlock];
        std::uint32_t pos[batch::kMaxBlock];
        std::uint32_t gid[batch::kMaxBlock];
        std::uint32_t cur[batch::kMaxBlock];
        simd::bobhash32_keys(keys.data() + begin, n, cfg_.seed, hidx);
        simd::bobhash32_keys(keys.data() + begin, n, cfg_.seed + 0x5eed, hrank);
        // w = 1: the unit div_group makes the kernel copy pos into gid.
        simd::positions_groups(hidx, n, mod_cells, FastDiv32(1), pos, gid);
        stager.stage(begin, n, gid, cur);
        for (std::size_t b = 0; b < n; ++b) {
          std::uint64_t rank = hll_rank(hrank[b], kValueBits);
          if (rank > max_rank) rank = max_rank;
          out[b].pos = pos[b];
          out[b].aux = (std::uint64_t{cur[b]} << 8) | rank;
          if (warm_regs) regs_.prefetch(pos[b], true);
          if (warm_marks) clock_.prefetch(pos[b], true);
        }
      },
      // Stage 2: the per-key CheckGroup + max-merge, against the staged
      // mark.
      [&](std::size_t i, const batch::Slot* s) {
        time_ = times != nullptr ? times[i] : time_ + 1;
        if (obs::enabled()) obs::she_metrics().hash_calls.inc(2);
        if (clock_.touch_precomputed(s->pos, s->aux >> 8)) regs_.set(s->pos, 0);
        const std::uint64_t rank = s->aux & 0xFFu;
        if (rank > regs_.get(s->pos)) regs_.set(s->pos, rank);
      });
}

bool SheHyperLogLog::legal_age(std::uint64_t age) const {
  auto lower = static_cast<std::uint64_t>(cfg_.beta * static_cast<double>(cfg_.window));
  return age >= lower;
}

std::size_t SheHyperLogLog::legal_groups() const {
  std::size_t legal = 0;
  for (std::size_t g = 0; g < clock_.groups(); ++g)
    if (legal_age(clock_.age(g, time_))) ++legal;
  return legal;
}

double SheHyperLogLog::cardinality() const {
  const bool track = obs::enabled();
  obs::AgeClassCounts cls;
  double sum = 0.0;
  std::size_t observed = 0;
  std::size_t zeros = 0;
  // Ages and staleness marks are staged in chunks through the vectorized
  // GroupClock kernels (same values as the per-register age()/stale()
  // calls, one division per scan instead of two per register).
  const GroupClock::TimeParts now = clock_.split(time_);
  constexpr std::size_t kChunk = 256;
  std::uint64_t age[kChunk];
  std::uint32_t cur[kChunk];
  const std::size_t regs = regs_.size();
  for (std::size_t i0 = 0; i0 < regs; i0 += kChunk) {
    const std::size_t n = std::min(kChunk, regs - i0);
    clock_.stage_marks_range(i0, n, now, cur, age);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = i0 + j;
      if (track) cls.add(age[j], cfg_.window);
      if (!legal_age(age[j])) continue;
      ++observed;
      std::uint64_t r = clock_.stored_mark(i) != cur[j] ? 0 : regs_.get(i);
      if (r == 0) ++zeros;
      sum += std::ldexp(1.0, -static_cast<int>(r));
    }
  }
  cls.commit(track);
  return fixed::HyperLogLog::estimate(sum, observed,
                                      static_cast<double>(regs_.size()), zeros);
}

double SheHyperLogLog::cardinality(std::uint64_t window) const {
  if (window == 0 || window > cfg_.window)
    throw std::invalid_argument("SheHyperLogLog: query window must be in [1, N]");
  auto lower = static_cast<std::uint64_t>(cfg_.beta * static_cast<double>(window));
  auto upper =
      static_cast<std::uint64_t>((2.0 - cfg_.beta) * static_cast<double>(window));
  const bool track = obs::enabled();
  obs::AgeClassCounts cls;
  double sum = 0.0;
  std::size_t observed = 0;
  std::size_t zeros = 0;
  const GroupClock::TimeParts now = clock_.split(time_);
  constexpr std::size_t kChunk = 256;
  std::uint64_t age[kChunk];
  std::uint32_t cur[kChunk];
  const std::size_t regs = regs_.size();
  for (std::size_t i0 = 0; i0 < regs; i0 += kChunk) {
    const std::size_t n = std::min(kChunk, regs - i0);
    clock_.stage_marks_range(i0, n, now, cur, age);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = i0 + j;
      if (track) cls.add(age[j], window);
      if (age[j] < lower || age[j] >= upper) continue;
      ++observed;
      std::uint64_t r = clock_.stored_mark(i) != cur[j] ? 0 : regs_.get(i);
      if (r == 0) ++zeros;
      sum += std::ldexp(1.0, -static_cast<int>(r));
    }
  }
  cls.commit(track);
  if (observed == 0) return 0.0;
  return fixed::HyperLogLog::estimate(sum, observed,
                                      static_cast<double>(regs_.size()), zeros);
}

std::vector<double> SheHyperLogLog::cardinality_batch(
    std::span<const std::uint64_t> windows) const {
  for (std::uint64_t w : windows)
    if (w == 0 || w > cfg_.window)
      throw std::invalid_argument("SheHyperLogLog: query window must be in [1, N]");
  const std::size_t nw = windows.size();
  std::vector<std::uint64_t> lower(nw), upper(nw);
  for (std::size_t j = 0; j < nw; ++j) {
    lower[j] = static_cast<std::uint64_t>(cfg_.beta * static_cast<double>(windows[j]));
    upper[j] = static_cast<std::uint64_t>((2.0 - cfg_.beta) *
                                          static_cast<double>(windows[j]));
  }
  const bool track = obs::enabled();
  std::vector<obs::AgeClassCounts> cls(track ? nw : 0);
  std::vector<double> sum(nw, 0.0);
  std::vector<std::size_t> observed(nw, 0), zeros(nw, 0);
  // One scan: each register's age and value are read once and reused by
  // every window whose legal band contains the age.
  for (std::size_t i = 0; i < regs_.size(); ++i) {
    std::uint64_t age = clock_.age(i, time_);
    std::uint64_t r = 0;
    bool r_known = false;
    for (std::size_t j = 0; j < nw; ++j) {
      if (track) cls[j].add(age, windows[j]);
      if (age < lower[j] || age >= upper[j]) continue;
      if (!r_known) {
        r = clock_.stale(i, time_) ? 0 : regs_.get(i);
        r_known = true;
      }
      ++observed[j];
      if (r == 0) ++zeros[j];
      sum[j] += std::ldexp(1.0, -static_cast<int>(r));
    }
  }
  std::vector<double> result(nw, 0.0);
  for (std::size_t j = 0; j < nw; ++j) {
    if (track) cls[j].commit(true);
    if (observed[j] == 0) continue;  // matches the scalar 0.0 answer
    result[j] = fixed::HyperLogLog::estimate(
        sum[j], observed[j], static_cast<double>(regs_.size()), zeros[j]);
  }
  return result;
}

void SheHyperLogLog::save(BinaryWriter& out) const {
  out.tag("SHLL");
  cfg_.save(out);
  out.u64(time_);
  clock_.save(out);
  regs_.save(out);
}

SheHyperLogLog SheHyperLogLog::load(BinaryReader& in) {
  in.expect_tag("SHLL");
  SheConfig cfg = SheConfig::load(in);
  SheHyperLogLog hll(cfg);
  hll.time_ = in.u64();
  hll.clock_ = GroupClock::load(in);
  hll.regs_ = PackedArray::load(in);
  if (hll.clock_.groups() != cfg.groups() || hll.regs_.size() != cfg.cells)
    throw std::runtime_error("SheHyperLogLog::load: shape mismatch");
  return hll;
}

void SheHyperLogLog::clear() {
  regs_.clear();
  clock_.reset();
  time_ = 0;
}

}  // namespace she
