#include "she/monitor.hpp"

#include <algorithm>
#include <stdexcept>

namespace she {

namespace {

// Budget split when every task is enabled: membership gets half (Bloom
// filters are the hungriest), frequency a third, cardinality the rest.
struct Split {
  std::size_t membership = 0;
  std::size_t cardinality = 0;
  std::size_t frequency = 0;
  std::size_t similarity = 0;
};

/// `x` as a count, saturated low enough that plan()'s `* 8` cannot wrap
/// either: a hostile budget or cardinality hint read from a stream must
/// not overflow the geometry maths.
std::size_t to_size(double x) {
  constexpr double kMax = 0x1p58;
  return static_cast<std::size_t>(x < kMax ? x : kMax);  // NaN saturates
}

Split split_budget(const MonitorConfig& cfg) {
  double shares = 0;
  if (cfg.track_membership) shares += 3;
  if (cfg.track_frequency) shares += 2;
  if (cfg.track_cardinality) shares += 1;
  if (cfg.track_similarity) shares += 1;
  if (shares == 0) return {};
  double unit = static_cast<double>(cfg.memory_bytes) / shares;
  Split s;
  if (cfg.track_membership) s.membership = to_size(3 * unit);
  if (cfg.track_frequency) s.frequency = to_size(2 * unit);
  if (cfg.track_cardinality) s.cardinality = to_size(unit);
  if (cfg.track_similarity) s.similarity = to_size(unit);
  return s;
}

/// The geometry a (validated) config's budget buys each enabled sketch.
struct Plan {
  std::optional<SheConfig> membership, bitmap, hll, frequency, similarity;
};

Plan plan(const MonitorConfig& cfg) {
  Split split = split_budget(cfg);
  double cardinality_hint = cfg.expected_cardinality > 0
                                ? cfg.expected_cardinality
                                : static_cast<double>(cfg.window) / 4;
  Plan p;
  if (cfg.track_membership) {
    SheConfig c;
    c.window = cfg.window;
    c.cells = std::max<std::size_t>(1024, split.membership * 8);
    c.group_cells = 64;
    c.seed = cfg.seed;
    c.alpha = optimal_alpha_bf(c.cells, c.group_cells, cardinality_hint, 8);
    p.membership = c;
  }
  if (cfg.track_cardinality) {
    SheConfig c;
    c.window = cfg.window;
    c.seed = cfg.seed + 1;
    c.alpha = 0.2;
    if (cfg.use_hll) {
      // Cap registers below the expected per-window cardinality so every
      // register keeps receiving items (Eq. 1: starved registers alias) —
      // accuracy saturates around a few thousand registers anyway.
      auto cap = to_size(cardinality_hint / 2);
      c.cells = std::clamp<std::size_t>(split.cardinality * 8 / 6, 64,
                                        std::max<std::size_t>(64, cap));
      c.group_cells = 1;
      p.hll = c;
    } else {
      // Linear counting gains nothing beyond ~32 bits per distinct key;
      // capping also keeps the group refresh rate healthy.
      auto cap = to_size(32 * cardinality_hint);
      c.cells = std::clamp<std::size_t>(split.cardinality * 8, 1024,
                                        std::max<std::size_t>(1024, cap));
      c.group_cells = 64;
      // Eq. (1): bound expected starved groups per cycle to 0.5.
      std::size_t max_groups =
          max_groups_for_failure(cardinality_hint, 1, c.alpha, 0.5);
      if (c.groups() > max_groups)
        c.group_cells = (c.cells + max_groups - 1) / max_groups;
      p.bitmap = c;
    }
  }
  if (cfg.track_frequency) {
    SheConfig c;
    c.window = cfg.window;
    c.cells = std::max<std::size_t>(1024, split.frequency / 4);  // 32-bit cells
    c.group_cells = 64;
    c.seed = cfg.seed + 2;
    c.alpha = 1.0;
    p.frequency = c;
  }
  if (cfg.track_similarity) {
    SheConfig c;
    c.window = cfg.window;
    // ~4 bytes per slot (24-bit signature + time marks); jaccard()'s
    // variance flattens out after a few hundred slots.
    c.cells = cfg.similarity_slots > 0
                  ? cfg.similarity_slots
                  : std::clamp<std::size_t>(split.similarity / 4, 64, 4096);
    c.group_cells = 1;  // SHE-MH: every slot is its own group
    c.seed = cfg.seed + 3;
    c.alpha = 0.2;
    p.similarity = c;
  }
  return p;
}

}  // namespace

void MonitorConfig::validate() const {
  if (window == 0) throw std::invalid_argument("MonitorConfig: window must be > 0");
  if (memory_bytes < 1024)
    throw std::invalid_argument("MonitorConfig: budget must be >= 1 KB");
  if (!track_membership && !track_cardinality && !track_frequency &&
      !track_similarity)
    throw std::invalid_argument("MonitorConfig: enable at least one task");
  if (heavy_hitter_slots == 0)
    throw std::invalid_argument("MonitorConfig: heavy_hitter_slots must be > 0");
  // A table wider than the budget has bytes is refused, built or loaded.
  if (track_frequency && heavy_hitter_slots > memory_bytes)
    throw std::invalid_argument(
        "MonitorConfig: " + std::to_string(heavy_hitter_slots) +
        " heavy-hitter slots exceed the " + std::to_string(memory_bytes) +
        "-byte budget");
}

StreamMonitor::StreamMonitor(const MonitorConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  const Plan p = plan(cfg_);
  if (p.membership) membership_.emplace(*p.membership, 8);
  if (p.bitmap) card_bm_.emplace(*p.bitmap);
  if (p.hll) card_hll_.emplace(*p.hll);
  if (p.frequency) freq_.emplace(*p.frequency, 8, cfg_.heavy_hitter_slots);
  if (p.similarity) sim_.emplace(*p.similarity);
}

void StreamMonitor::insert(std::uint64_t key) {
  ++time_;
  if (membership_) membership_->insert(key);
  if (card_bm_) card_bm_->insert(key);
  if (card_hll_) card_hll_->insert(key);
  if (freq_) freq_->insert(key);
  if (sim_) sim_->insert(key);
}

void StreamMonitor::insert_batch(std::span<const std::uint64_t> keys) {
  // Component sketches are independent, so feeding each the whole batch
  // yields exactly the per-key interleaving's final state.
  time_ += keys.size();
  if (membership_) membership_->insert_batch(keys);
  if (card_bm_) card_bm_->insert_batch(keys);
  if (card_hll_) card_hll_->insert_batch(keys);
  if (freq_) freq_->insert_batch(keys);
  if (sim_) sim_->insert_batch(keys);
}

bool StreamMonitor::seen(std::uint64_t key) const {
  if (!membership_)
    throw std::logic_error("StreamMonitor: membership tracking disabled");
  return membership_->contains(key);
}

std::uint64_t StreamMonitor::frequency(std::uint64_t key) const {
  if (!freq_) throw std::logic_error("StreamMonitor: frequency tracking disabled");
  return freq_->frequency(key);
}

MonitorReport StreamMonitor::report(std::size_t top_k) const {
  MonitorReport rep;
  rep.items = time_;
  if (card_bm_) rep.cardinality = card_bm_->cardinality();
  if (card_hll_) rep.cardinality = card_hll_->cardinality();
  if (freq_) rep.top = freq_->top(top_k);
  return rep;
}

void StreamMonitor::clear() {
  time_ = 0;
  if (membership_) membership_->clear();
  if (card_bm_) card_bm_->clear();
  if (card_hll_) card_hll_->clear();
  if (freq_) freq_->clear();
  if (sim_) sim_->clear();
}

double StreamMonitor::jaccard(const StreamMonitor& a, const StreamMonitor& b) {
  if (!a.sim_ || !b.sim_)
    throw std::invalid_argument(
        "StreamMonitor::jaccard: similarity tracking disabled");
  return SheMinHash::jaccard(*a.sim_, *b.sim_);
}

namespace {

// Per-shard slice of the global monitor config: window, budget and the
// cardinality hint divide by the shard count (Sharded<T>'s window
// semantics); heavy-hitter slots stay full so per-shard top-k lists merge
// without starving any shard, so a shard budget below them fails validate().
MonitorConfig shard_monitor_config(const MonitorConfig& global,
                                   std::size_t shards, std::size_t idx) {
  MonitorConfig c = global;
  c.window = std::max<std::uint64_t>(1, global.window / shards);
  c.memory_bytes = std::max<std::size_t>(1024, global.memory_bytes / shards);
  if (global.expected_cardinality > 0)
    c.expected_cardinality =
        global.expected_cardinality / static_cast<double>(shards);
  c.seed = global.seed + static_cast<std::uint32_t>(idx) * 0x9e3779b9u;
  return c;
}

}  // namespace

ConcurrentMonitor::ConcurrentMonitor(const MonitorConfig& monitor,
                                     const runtime::PipelineOptions& pipeline)
    : IngestPipeline(pipeline, [&](std::size_t s) {
        return StreamMonitor(
            shard_monitor_config(monitor, pipeline.shards, s));
      }) {}

bool ConcurrentMonitor::seen(std::uint64_t key) const {
  return view(shard_of(key))->seen(key);
}

std::uint64_t ConcurrentMonitor::frequency(std::uint64_t key) const {
  return view(shard_of(key))->frequency(key);
}

MonitorReport MonitorReport::combine(std::span<const MonitorReport> parts,
                                     std::size_t top_k) {
  MonitorReport rep;
  double cardinality = 0;
  bool have_cardinality = false;
  for (const MonitorReport& local : parts) {
    rep.items += local.items;
    if (local.cardinality) {
      cardinality += *local.cardinality;
      have_cardinality = true;
    }
    rep.top.insert(rep.top.end(), local.top.begin(), local.top.end());
  }
  if (have_cardinality) rep.cardinality = cardinality;
  std::sort(rep.top.begin(), rep.top.end(), HeavyHitters::Entry::heavier);
  if (rep.top.size() > top_k) rep.top.resize(top_k);
  return rep;
}

MonitorReport ConcurrentMonitor::report(std::size_t top_k) const {
  std::vector<MonitorReport> parts;
  parts.reserve(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s)
    parts.push_back(view(s)->report(top_k));
  return MonitorReport::combine(parts, top_k);
}

double ConcurrentMonitor::jaccard(const ConcurrentMonitor& a,
                                  const ConcurrentMonitor& b) {
  if (a.shard_count() != b.shard_count())
    throw std::invalid_argument(
        "ConcurrentMonitor::jaccard: shard counts differ");
  double sum = 0;
  for (std::size_t s = 0; s < a.shard_count(); ++s)
    sum += StreamMonitor::jaccard(*a.view(s), *b.view(s));
  return sum / static_cast<double>(a.shard_count());
}

std::size_t StreamMonitor::memory_bytes() const {
  std::size_t total = 0;
  if (membership_) total += membership_->memory_bytes();
  if (card_bm_) total += card_bm_->memory_bytes();
  if (card_hll_) total += card_hll_->memory_bytes();
  if (freq_) total += freq_->memory_bytes();
  if (sim_) total += sim_->memory_bytes();
  return total;
}

void StreamMonitor::save(BinaryWriter& out) const {
  // "SMN2" is the one layout load() reads: the config, the stream time,
  // then each enabled sketch.
  out.tag("SMN2");
  out.u64(cfg_.window);
  out.u64(cfg_.memory_bytes);
  out.u8(cfg_.track_membership);
  out.u8(cfg_.track_cardinality);
  out.u8(cfg_.track_frequency);
  out.u8(cfg_.use_hll);
  out.f64(cfg_.expected_cardinality);
  out.u64(cfg_.heavy_hitter_slots);
  out.u32(cfg_.seed);
  out.u8(cfg_.track_similarity);
  out.u64(cfg_.similarity_slots);
  out.u64(time_);
  // Sub-sketches in a fixed order; HeavyHitters persists its sketch plus
  // the candidate table so top() answers survive a restore (load-bearing
  // for ConcurrentMonitor, whose queries only ever see checkpoints).
  if (membership_) membership_->save(out);
  if (card_bm_) card_bm_->save(out);
  if (card_hll_) card_hll_->save(out);
  if (freq_) freq_->save(out);
  if (sim_) sim_->save(out);
}

StreamMonitor StreamMonitor::load(BinaryReader& in) {
  in.expect_tag("SMN2");
  MonitorConfig cfg;
  cfg.window = in.u64();
  cfg.memory_bytes = in.u64();
  cfg.track_membership = in.u8() != 0;
  cfg.track_cardinality = in.u8() != 0;
  cfg.track_frequency = in.u8() != 0;
  cfg.use_hll = in.u8() != 0;
  cfg.expected_cardinality = in.f64();
  cfg.heavy_hitter_slots = in.u64();
  cfg.seed = in.u32();
  cfg.track_similarity = in.u8() != 0;
  cfg.similarity_slots = in.u64();
  // Nothing is sized from the budget fields: each sketch comes from the
  // stream, which bounds its cells by the bytes left, and must then have
  // the geometry those fields plan.  The candidate table is sized from
  // its own count, which the stream bounds the same way.
  const Plan p = while_loading([&] {
    cfg.validate();
    return plan(cfg);
  });
  const auto planned = [](auto sketch, const SheConfig& c) {
    if (sketch.config().cells != c.cells)
      throw SerializeError(
          "StreamMonitor: a sketch's " + std::to_string(sketch.config().cells) +
          " cells are not the " + std::to_string(c.cells) +
          " its header's budget plans");
    return sketch;
  };
  StreamMonitor mon;
  mon.cfg_ = cfg;
  mon.time_ = in.u64();
  if (p.membership)
    mon.membership_ = planned(SheBloomFilter::load(in), *p.membership);
  if (p.bitmap) mon.card_bm_ = planned(SheBitmap::load(in), *p.bitmap);
  if (p.hll) mon.card_hll_ = planned(SheHyperLogLog::load(in), *p.hll);
  if (p.frequency)
    mon.freq_ = planned(HeavyHitters::load(in, cfg.heavy_hitter_slots),
                        *p.frequency);
  if (p.similarity)
    mon.sim_ = planned(SheMinHash::load(in), *p.similarity);
  return mon;
}

}  // namespace she
