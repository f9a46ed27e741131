#include "she/she_minhash.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/she_metrics.hpp"
#include "she/batch_simd.hpp"

namespace she {

SheMinHash::SheMinHash(const SheConfig& cfg)
    : cfg_(cfg),
      clock_(cfg.groups(), cfg.tcycle(), cfg.mark_bits),
      sig_(cfg.cells, kEmpty) {
  cfg_.validate();
  if (cfg.group_cells != 1)
    throw std::invalid_argument("SheMinHash: group_cells must be 1 (w = 1)");
}

void SheMinHash::insert(std::uint64_t key) { insert_at(key, time_ + 1); }

void SheMinHash::advance_to(std::uint64_t t) {
  if (t < time_)
    throw std::invalid_argument("SheMinHash: time must not move backwards");
  time_ = t;
}

void SheMinHash::insert_at(std::uint64_t key, std::uint64_t t) {
  advance_to(t);
  if (obs::enabled()) obs::she_metrics().hash_calls.inc(sig_.size());
  for (std::size_t i = 0; i < sig_.size(); ++i) {
    if (clock_.touch(i, time_)) sig_[i] = kEmpty;
    sig_[i] = std::min(sig_[i], value(key, i));
  }
}

void SheMinHash::insert_batch(std::span<const std::uint64_t> keys) {
  insert_many(keys, nullptr);
}

void SheMinHash::insert_at_batch(std::span<const std::uint64_t> keys,
                                 std::span<const std::uint64_t> times) {
  batch::validate_insert_times(keys, times, time_, "SheMinHash");
  insert_many(keys, times.data());
}

void SheMinHash::insert_many(std::span<const std::uint64_t> keys,
                             const std::uint64_t* times) {
  if (!batch::stageable(cfg_.cells)) {
    for (std::size_t i = 0; i < keys.size(); ++i)
      insert_at(keys[i], times != nullptr ? times[i] : time_ + 1);
    return;
  }
  const auto k = static_cast<unsigned>(sig_.size());
  const std::size_t m = sig_.size();
  const batch::MarkStager stager(clock_, time_, times);
  // Every slot of a key shares that key's time, so marks are staged with one
  // range sweep per key (slots ARE the groups: w = 1).  Buffers live outside
  // the block lambda; m can exceed kMaxBlock so they cannot sit on the
  // per-block stack arrays the other estimators use.
  std::vector<std::uint32_t> vals(m);
  std::vector<std::uint32_t> curs(m);
  batch::pipelined_blocks(
      keys, k, scratch_,
      // Stage 1: hashing across the seed axis (one key, m consecutive
      // seeds), marks staged per key.  Slot i of a key is cell i, so only
      // aux = cur << 32 | value is staged.  The sequential signature scan
      // is already warm: no prefetches.
      [&](std::size_t begin, std::size_t n, batch::Slot* out) {
        for (std::size_t b = 0; b < n; ++b) {
          simd::bobhash32_seeds(keys[begin + b], cfg_.seed, m, vals.data());
          const GroupClock::TimeParts p =
              clock_.split(stager.time_of(begin + b));
          clock_.stage_marks_range(0, m, p, curs.data());
          batch::Slot* slot = out + b * m;
          for (std::size_t i = 0; i < m; ++i)
            slot[i].aux =
                (std::uint64_t{curs[i]} << 32) | (vals[i] & 0xFFFFFFu);
        }
      },
      // Stage 2: the per-key CheckGroup + min, against the staged marks.
      [&](std::size_t i, const batch::Slot* slots) {
        time_ = times != nullptr ? times[i] : time_ + 1;
        if (obs::enabled()) obs::she_metrics().hash_calls.inc(sig_.size());
        for (std::size_t j = 0; j < m; ++j) {
          if (clock_.touch_precomputed(j, slots[j].aux >> 32)) sig_[j] = kEmpty;
          sig_[j] = std::min(sig_[j],
                             static_cast<std::uint32_t>(slots[j].aux));
        }
      });
}

bool SheMinHash::legal_age(std::uint64_t age) const {
  auto lower = static_cast<std::uint64_t>(cfg_.beta * static_cast<double>(cfg_.window));
  return age >= lower;
}

double SheMinHash::jaccard(const SheMinHash& a, const SheMinHash& b) {
  if (a.sig_.size() != b.sig_.size() || a.cfg_.seed != b.cfg_.seed)
    throw std::invalid_argument("SheMinHash::jaccard: incompatible signatures");
  if (a.time_ != b.time_)
    throw std::invalid_argument("SheMinHash::jaccard: signatures not in lock-step");
  const bool track = obs::enabled();
  obs::AgeClassCounts cls;
  std::size_t match = 0;
  std::size_t compared = 0;
  // Ages and current marks are staged in chunks through the vectorized
  // GroupClock kernels.  Both are identical on both sides (same cfg, same
  // time, deterministic per-group offsets), so one staging sweep serves
  // both signatures; only the *stored* marks differ per side.
  const GroupClock::TimeParts now = a.clock_.split(a.time_);
  constexpr std::size_t kChunk = 256;
  std::uint64_t age[kChunk];
  std::uint32_t cur[kChunk];
  const std::size_t m = a.sig_.size();
  for (std::size_t i0 = 0; i0 < m; i0 += kChunk) {
    const std::size_t n = std::min(kChunk, m - i0);
    a.clock_.stage_marks_range(i0, n, now, cur, age);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = i0 + j;
      if (track) cls.add(age[j], a.cfg_.window);
      if (!a.legal_age(age[j])) continue;
      const std::uint32_t va =
          a.clock_.stored_mark(i) != cur[j] ? kEmpty : a.sig_[i];
      const std::uint32_t vb =
          b.clock_.stored_mark(i) != cur[j] ? kEmpty : b.sig_[i];
      if (va == kEmpty && vb == kEmpty) continue;  // neither window seen here
      ++compared;
      if (va == vb) ++match;
    }
  }
  cls.commit(track);
  return compared == 0 ? 0.0
                       : static_cast<double>(match) / static_cast<double>(compared);
}

double SheMinHash::jaccard(const SheMinHash& a, const SheMinHash& b,
                           std::uint64_t window) {
  if (window == 0 || window > a.cfg_.window)
    throw std::invalid_argument("SheMinHash::jaccard: query window must be in [1, N]");
  if (a.sig_.size() != b.sig_.size() || a.cfg_.seed != b.cfg_.seed)
    throw std::invalid_argument("SheMinHash::jaccard: incompatible signatures");
  if (a.time_ != b.time_)
    throw std::invalid_argument("SheMinHash::jaccard: signatures not in lock-step");
  auto lower = static_cast<std::uint64_t>(a.cfg_.beta * static_cast<double>(window));
  auto upper =
      static_cast<std::uint64_t>((2.0 - a.cfg_.beta) * static_cast<double>(window));
  const bool track = obs::enabled();
  obs::AgeClassCounts cls;
  std::size_t match = 0;
  std::size_t compared = 0;
  const GroupClock::TimeParts now = a.clock_.split(a.time_);
  constexpr std::size_t kChunk = 256;
  std::uint64_t age[kChunk];
  std::uint32_t cur[kChunk];
  const std::size_t m = a.sig_.size();
  for (std::size_t i0 = 0; i0 < m; i0 += kChunk) {
    const std::size_t n = std::min(kChunk, m - i0);
    a.clock_.stage_marks_range(i0, n, now, cur, age);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = i0 + j;
      if (track) cls.add(age[j], window);
      if (age[j] < lower || age[j] >= upper) continue;
      const std::uint32_t va =
          a.clock_.stored_mark(i) != cur[j] ? kEmpty : a.sig_[i];
      const std::uint32_t vb =
          b.clock_.stored_mark(i) != cur[j] ? kEmpty : b.sig_[i];
      if (va == kEmpty && vb == kEmpty) continue;
      ++compared;
      if (va == vb) ++match;
    }
  }
  cls.commit(track);
  return compared == 0 ? 0.0
                       : static_cast<double>(match) / static_cast<double>(compared);
}

std::vector<double> SheMinHash::jaccard_batch(
    const SheMinHash& a, const SheMinHash& b,
    std::span<const std::uint64_t> windows) {
  for (std::uint64_t w : windows)
    if (w == 0 || w > a.cfg_.window)
      throw std::invalid_argument("SheMinHash::jaccard: query window must be in [1, N]");
  if (a.sig_.size() != b.sig_.size() || a.cfg_.seed != b.cfg_.seed)
    throw std::invalid_argument("SheMinHash::jaccard: incompatible signatures");
  if (a.time_ != b.time_)
    throw std::invalid_argument("SheMinHash::jaccard: signatures not in lock-step");
  const std::size_t nw = windows.size();
  std::vector<std::uint64_t> lower(nw), upper(nw);
  for (std::size_t j = 0; j < nw; ++j) {
    lower[j] =
        static_cast<std::uint64_t>(a.cfg_.beta * static_cast<double>(windows[j]));
    upper[j] = static_cast<std::uint64_t>((2.0 - a.cfg_.beta) *
                                          static_cast<double>(windows[j]));
  }
  const bool track = obs::enabled();
  std::vector<obs::AgeClassCounts> cls(track ? nw : 0);
  std::vector<std::size_t> match(nw, 0), compared(nw, 0);
  // One scan of both signatures for every queried window, ages and
  // current marks staged per chunk through the vectorized clock kernels.
  const GroupClock::TimeParts now = a.clock_.split(a.time_);
  constexpr std::size_t kChunk = 256;
  std::uint64_t age[kChunk];
  std::uint32_t cur[kChunk];
  const std::size_t m = a.sig_.size();
  for (std::size_t i0 = 0; i0 < m; i0 += kChunk) {
    const std::size_t n = std::min(kChunk, m - i0);
    a.clock_.stage_marks_range(i0, n, now, cur, age);
    for (std::size_t jj = 0; jj < n; ++jj) {
      const std::size_t i = i0 + jj;
      std::uint32_t va = 0, vb = 0;
      bool slots_known = false;
      for (std::size_t j = 0; j < nw; ++j) {
        if (track) cls[j].add(age[jj], windows[j]);
        if (age[jj] < lower[j] || age[jj] >= upper[j]) continue;
        if (!slots_known) {
          va = a.clock_.stored_mark(i) != cur[jj] ? kEmpty : a.sig_[i];
          vb = b.clock_.stored_mark(i) != cur[jj] ? kEmpty : b.sig_[i];
          slots_known = true;
        }
        if (va == kEmpty && vb == kEmpty) continue;
        ++compared[j];
        if (va == vb) ++match[j];
      }
    }
  }
  std::vector<double> result(nw, 0.0);
  for (std::size_t j = 0; j < nw; ++j) {
    if (track) cls[j].commit(true);
    result[j] = compared[j] == 0 ? 0.0
                                 : static_cast<double>(match[j]) /
                                       static_cast<double>(compared[j]);
  }
  return result;
}

void SheMinHash::save(BinaryWriter& out) const {
  out.tag("SHMH");
  cfg_.save(out);
  out.u64(time_);
  clock_.save(out);
  out.u32_vector(sig_);
}

SheMinHash SheMinHash::load(BinaryReader& in) {
  in.expect_tag("SHMH");
  SheConfig cfg = SheConfig::load(in);
  SheMinHash mh(cfg);
  mh.time_ = in.u64();
  mh.clock_ = GroupClock::load(in);
  mh.sig_ = in.u32_vector();
  if (mh.clock_.groups() != cfg.groups() || mh.sig_.size() != cfg.cells)
    throw std::runtime_error("SheMinHash::load: shape mismatch");
  return mh;
}

void SheMinHash::clear() {
  std::fill(sig_.begin(), sig_.end(), kEmpty);
  clock_.reset();
  time_ = 0;
}

}  // namespace she
