// The Common Sketch Model (CSM) engine — the paper's Fig. 2 abstraction and
// Algorithm 1, once, for every sliding-window sketch in the library.
//
// The paper characterizes every base algorithm by a triple <C, K, F>: a
// cell type, a number of hashed locations, and an update function F(x, y)
// applied independently to each hashed cell.  SHE then extends any CSM
// algorithm to sliding windows via the group clock.  This header is that
// extension:
//
//   * `CsmPolicy` — the concept a base algorithm models (cell type, probe
//     count, position hash, update function);
//   * `SlidingEstimator<Policy>` — the SHE hardware-version engine:
//     the group clock, stream time, lazy group cleaning (CheckGroup), the
//     per-key and block-staged batch inserts, the batched probe pipeline
//     for point queries, the age-band scan for aggregate queries, and the
//     save/load framing;
//   * cell stores — `VectorStore<Cell>` (one Cell per slot, the default),
//     `BitStore` and `PackedStore` (bit-packed).  A policy picks its store
//     with a `Store` member type.
//
// SHE-BF/BM/HLL/CM/MH (she_*.hpp) are thin classes over this engine: each
// keeps its policy, its query estimator and its save tag.  Any other type
// modelling `CsmPolicy` gets the same sliding-window behaviour, batch path
// included (see examples/custom_sketch.cpp).
//
// Optional policy members, each detected at compile time:
//
//   Store                  cell store type (default VectorStore<Cell>)
//   hash_block(...)        stage-1 hook: hash one block of keys into cell
//                          positions, groups and staged words (default:
//                          position() per probe)
//   update_staged(w, c)    F from the word hash_block staged for the probe,
//                          so stage 2 never re-hashes (default: update())
//   kUnitGroups            every group is one cell (w = 1): group_cells
//                          must be 1, and a cell index is its group id
//   kAllCells              probe i is cell i and group i, for every cell
//                          (MinHash; implies kUnitGroups): hash_block fills
//                          only the words, marks are staged once per key,
//                          and the per-key slot budget does not apply
//   kExtraHashes           hash calls per insert beyond one per probe
//   kName, kTag, save(out), load(in, cfg)
//                          error-message prefix and checkpoint framing
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/int_math.hpp"
#include "common/io.hpp"
#include "common/paged_array.hpp"
#include "common/simd_hash.hpp"
#include "obs/she_metrics.hpp"
#include "she/batch.hpp"
#include "she/config.hpp"
#include "she/group_clock.hpp"

namespace she::csm {

/// The paper's <C, K, F> triple as a concept.  `probes(cells)` returns K
/// (which may equal the cell count, as for MinHash); `position` maps
/// (key, probe) to a cell index; `update` is F with the probe index
/// available so per-probe hash families work.
template <typename P>
concept CsmPolicy = requires(const P p, std::uint64_t key, unsigned probe,
                             std::size_t cells, typename P::Cell cell) {
  typename P::Cell;
  { p.probes(cells) } -> std::convertible_to<unsigned>;
  { p.position(key, probe, cells) } -> std::convertible_to<std::size_t>;
  { p.update(key, probe, cell) } -> std::convertible_to<typename P::Cell>;
  { P::empty_cell() } -> std::convertible_to<typename P::Cell>;
};

/// Age classification of one cell at query time (paper Sec. 3.2/3.3).
enum class CellAge : std::uint8_t {
  kYoung,    ///< age <  N: may have lost in-window items
  kPerfect,  ///< age == N: records the window exactly
  kAged,     ///< age >  N: may retain out-dated items
};

/// A queried cell: its effective value (stale groups read as empty) and
/// its age class.
template <typename Cell>
struct CellView {
  Cell value;
  std::uint64_t age;
  CellAge age_class;
};

// ---------------------------------------------------------------------------
// Cell stores.  Each offers get / own / update / clear_range / prefetch /
// size, and save / load in its checkpoint format; packed stores also report
// their own footprint.  Cells live in a copy-on-write PagedArray
// (common/paged_array.hpp), so copying a store shares its frames: own(i)
// makes cell i writable (cloning its frame on the first write after a
// copy), and update(i, f) then stores f(old) at cell i, in whatever way is
// cheapest for the layout.  clear_range and load own what they write.
// saved_bytes(n) is a lower bound on what save() writes for n cells; the
// estimator checks it against the stream before sizing anything.
// ---------------------------------------------------------------------------

/// One `Cell` per slot.  Saved as a u32 vector when cells are 32-bit.
template <typename C>
class VectorStore {
 public:
  using Cell = C;
  VectorStore(std::size_t n, Cell empty) : cells_(n, empty), empty_(empty) {}

  [[nodiscard]] static std::uint64_t saved_bytes(std::uint64_t n) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    return n > kMax / 4 ? kMax : n * 4;
  }
  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] Cell get(std::size_t i) const { return cells_.get(i); }
  void own(std::size_t i) { cells_.own(i); }
  void own_all() { cells_.own_all(); }
  [[nodiscard]] bool owns_all() const { return cells_.owns_all(); }
  template <typename F>
  void update(std::size_t i, F&& f) {
    Cell& c = cells_.at(i);
    c = f(c);
  }
  void clear_range(std::size_t first, std::size_t count) {
    if constexpr (std::is_arithmetic_v<Cell>) {
      if (empty_ == Cell{}) {
        cells_.fill(first, count, Cell{});  // a constant zero fill is a memset
        return;
      }
    }
    cells_.fill(first, count, empty_);
  }
  void prefetch(std::size_t i, bool write) const {
    batch::prefetch_addr(cells_.addr(i), write);
  }
  void save(BinaryWriter& out) const {
    static_assert(sizeof(Cell) == 4, "VectorStore saves 32-bit cells");
    out.u64(cells_.size());
    for (std::size_t p = 0; p < cells_.pages(); ++p) out.cells(cells_.page(p));
  }
  void load(BinaryReader& in) {
    static_assert(sizeof(Cell) == 4, "VectorStore loads 32-bit cells");
    if (in.u64() != cells_.size())
      throw SerializeError("VectorStore::load: cell count mismatch");
    for (std::size_t p = 0; p < cells_.pages(); ++p)
      in.cells(cells_.page_for_write(p));
  }

 private:
  PagedArray<Cell> cells_;
  Cell empty_;
};

/// A mask of the low `n` bits (n in [0, 64]).
[[nodiscard]] constexpr std::uint64_t low_bits(unsigned n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Hint the cache to fetch `p` with low temporal locality, as BitArray and
/// PackedArray do.
inline void prefetch_word(const void* p, bool write) {
#if defined(__GNUC__) || defined(__clang__)
  if (write)
    __builtin_prefetch(p, 1, 1);
  else
    __builtin_prefetch(p, 0, 1);
#else
  (void)p;
  (void)write;
#endif
}

/// Read `count` paged words saved as a u64 vector (the BitArray and
/// PackedArray payload) into `words`, after the count is checked.
inline void load_words(BinaryReader& in, PagedArray<std::uint64_t>& words,
                       const char* who) {
  if (in.u64() != words.size())
    throw SerializeError(std::string(who) + ": word count mismatch");
  for (std::size_t p = 0; p < words.pages(); ++p)
    in.cells(words.page_for_write(p));
}

/// Save paged words as a u64 vector, one cell run per page.
inline void save_words(BinaryWriter& out,
                       const PagedArray<std::uint64_t>& words) {
  out.u64(words.size());
  for (std::size_t p = 0; p < words.pages(); ++p) out.cells(words.page(p));
}

/// One bit per cell (empty = 0), saved as a BitArray.
class BitStore {
 public:
  using Cell = std::uint8_t;
  BitStore(std::size_t n, Cell) : bits_(n), words_(words_for(n), 0) {}

  [[nodiscard]] static std::uint64_t saved_bytes(std::uint64_t n) {
    return words_for(n) * 8;
  }
  [[nodiscard]] std::size_t size() const { return bits_; }
  [[nodiscard]] Cell get(std::size_t i) const {
    return static_cast<Cell>((words_.get(i >> 6) >> (i & 63)) & 1);
  }
  void own(std::size_t i) { words_.own(i >> 6); }
  [[nodiscard]] bool owns_all() const { return words_.owns_all(); }
  /// A blind bit write when F ignores the old bit (the read folds away).
  template <typename F>
  void update(std::size_t i, F&& f) {
    std::uint64_t& w = words_.at(i >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (f(static_cast<Cell>((w >> (i & 63)) & 1)) != 0) {
      w |= bit;
    } else {
      w &= ~bit;
    }
  }
  void clear_range(std::size_t first, std::size_t count) {
    if (count == 0) return;
    const std::size_t last = first + count;  // exclusive
    const std::size_t fw = first >> 6;
    const std::size_t lw = (last - 1) >> 6;
    words_.own_range(fw, lw - fw + 1);
    if (fw == lw) {
      words_.at(fw) &= ~(low_bits(static_cast<unsigned>(count)) << (first & 63));
      return;
    }
    words_.at(fw) &= low_bits(first & 63);
    words_.fill(fw + 1, lw - fw - 1, 0);
    words_.at(lw) &= ~low_bits(((last - 1) & 63) + 1);
  }
  void prefetch(std::size_t i, bool write) const {
    prefetch_word(words_.addr(i >> 6), write);
  }
  [[nodiscard]] std::size_t memory_bytes() const { return words_.size() * 8; }
  /// Zero bits in [first, first + count) (Bitmap's linear counting).
  [[nodiscard]] std::size_t zeros_range(std::size_t first,
                                        std::size_t count) const {
    if (count == 0) return 0;
    const std::size_t last = first + count;
    const std::size_t fw = first >> 6;
    const std::size_t lw = (last - 1) >> 6;
    auto ones = [&](std::size_t w, std::uint64_t mask) {
      return static_cast<std::size_t>(std::popcount(words_.get(w) & mask));
    };
    if (fw == lw)
      return count - ones(fw, low_bits(static_cast<unsigned>(count))
                                  << (first & 63));
    std::size_t set = ones(fw, ~low_bits(first & 63));
    for (std::size_t w = fw + 1; w < lw; ++w)
      set += static_cast<std::size_t>(std::popcount(words_.get(w)));
    set += ones(lw, low_bits(((last - 1) & 63) + 1));
    return count - set;
  }
  void save(BinaryWriter& out) const {
    out.tag("BITV");
    out.u64(bits_);
    save_words(out, words_);
  }
  void load(BinaryReader& in) {
    in.expect_tag("BITV");
    if (in.u64() != bits_)
      throw SerializeError("BitStore::load: bit count mismatch");
    load_words(in, words_, "BitStore::load");
  }

 private:
  [[nodiscard]] static std::uint64_t words_for(std::uint64_t n) {
    return n / 64 + (n % 64 != 0 ? 1 : 0);
  }

  std::size_t bits_;
  PagedArray<std::uint64_t> words_;
};

/// `Bits`-bit cells (empty = 0), saved as a PackedArray.  A cell may
/// straddle two words, and so two frames.
template <typename C, unsigned Bits>
class PackedStore {
  static_assert(Bits >= 1 && Bits < 64);
  static constexpr std::uint64_t kMask = low_bits(Bits);

 public:
  using Cell = C;
  PackedStore(std::size_t n, Cell) : count_(n), words_(words_for(n), 0) {}

  [[nodiscard]] static std::uint64_t saved_bytes(std::uint64_t n) {
    return words_for(n) * 8;
  }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] Cell get(std::size_t i) const {
    const std::size_t bit = i * Bits;
    const std::size_t w = bit >> 6;
    const unsigned off = bit & 63;
    std::uint64_t v = words_.get(w) >> off;
    if (off + Bits > 64) v |= words_.get(w + 1) << (64 - off);
    return static_cast<Cell>(v & kMask);
  }
  void own(std::size_t i) {
    words_.own((i * Bits) >> 6);
    words_.own((i * Bits + Bits - 1) >> 6);
  }
  [[nodiscard]] bool owns_all() const { return words_.owns_all(); }
  /// Writes only on change: a packed write is a read-modify-write.
  template <typename F>
  void update(std::size_t i, F&& f) {
    const Cell old = get(i);
    const Cell v = f(old);
    if (v != old) set(i, v);
  }
  void clear_range(std::size_t first, std::size_t count) {
    if (count == 0) return;
    const std::size_t fw = (first * Bits) >> 6;
    words_.own_range(fw, (((first + count) * Bits - 1) >> 6) - fw + 1);
    for (std::size_t i = first; i < first + count; ++i) set(i, 0);
  }
  void prefetch(std::size_t i, bool write) const {
    prefetch_word(words_.addr((i * Bits) >> 6), write);
  }
  [[nodiscard]] std::size_t memory_bytes() const { return words_.size() * 8; }
  void save(BinaryWriter& out) const {
    out.tag("PAKD");
    out.u64(count_);
    out.u32(Bits);
    save_words(out, words_);
  }
  void load(BinaryReader& in) {
    in.expect_tag("PAKD");
    if (in.u64() != count_)
      throw SerializeError("PackedStore::load: cell count mismatch");
    if (in.u32() != Bits)
      throw SerializeError("PackedStore::load: cell width mismatch");
    load_words(in, words_, "PackedStore::load");
  }

 private:
  [[nodiscard]] static std::uint64_t words_for(std::uint64_t n) {
    return n / 64 * Bits + (n % 64 * Bits + 63) / 64;
  }

  /// Store `v` in cell `i`, whose words are owned.
  void set(std::size_t i, std::uint64_t v) {
    v &= kMask;
    const std::size_t bit = i * Bits;
    const std::size_t w = bit >> 6;
    const unsigned off = bit & 63;
    std::uint64_t& lo = words_.at(w);
    lo = (lo & ~(kMask << off)) | (v << off);
    if (off + Bits > 64) {
      const unsigned spill = off + Bits - 64;
      std::uint64_t& hi = words_.at(w + 1);
      hi = (hi & ~low_bits(spill)) | (v >> (Bits - spill));
    }
  }

  std::size_t count_;
  PagedArray<std::uint64_t> words_;
};

template <typename P>
struct DefaultStore {
  using type = VectorStore<typename P::Cell>;
};
template <typename P>
  requires requires { typename P::Store; }
struct DefaultStore<P> {
  using type = typename P::Store;
};

// ---------------------------------------------------------------------------
// Stage 1 of the block pipeline (batch.hpp): hash a block of keys into
// cell positions, group ids and per-probe staged words.
// ---------------------------------------------------------------------------

/// How a block reduces hashes: K probes per key, hash -> cell, cell ->
/// group, all division-free.
struct BlockShape {
  unsigned k;
  FastDiv32 mod_cells;
  FastDiv32 div_group;
};

/// Stage-1 output buffers for one block: n * k entries each, key-major.
/// `hash` is scratch; `word` carries what update_staged() consumes.
struct StagedBlock {
  std::uint32_t* hash;
  std::uint32_t* pos;
  std::uint32_t* gid;
  std::uint32_t* word;
};

/// The k-probe stage shared by policies whose probe i hashes with
/// BobHash32(seed + i) and reduces mod the cell count (SHE-BF, SHE-CM and
/// SHE-BM): one block-wide hash sweep, then one position/group reduction.
inline void kprobe_hash_block(const std::uint64_t* keys, std::size_t n,
                              std::uint32_t seed, const BlockShape& shape,
                              const StagedBlock& out) {
  if (shape.k == 1) {
    simd::bobhash32_keys(keys, n, seed, out.hash);
  } else {
    simd::bobhash32_keys_multi(keys, n, seed, shape.k, out.hash);
  }
  simd::positions_groups(out.hash, n * shape.k, shape.mod_cells,
                         shape.div_group, out.pos, out.gid);
}

/// One queried age band: groups with age in [lower, upper) contribute;
/// `window` classifies every group's age for the telemetry.
struct AgeBand {
  std::uint64_t lower;
  std::uint64_t upper;
  std::uint64_t window;
};

/// The SHE hardware-version engine for any CSM policy.
template <CsmPolicy Policy>
class SlidingEstimator {
 public:
  using Cell = typename Policy::Cell;
  using Store = typename DefaultStore<Policy>::type;
  using Slot = batch::Slot;

  SlidingEstimator(const SheConfig& cfg, Policy policy = Policy{})
      : cfg_(cfg),
        policy_(std::move(policy)),
        clock_(cfg.groups(), cfg.tcycle(), cfg.mark_bits),
        store_(cfg.cells, Policy::empty_cell()) {
    cfg_.validate();
    if (probes() == 0)
      throw std::invalid_argument(std::string(name()) + ": hashes must be > 0");
    if (kUnitGroups && cfg_.group_cells != 1)
      throw std::invalid_argument(std::string(name()) +
                                  ": group_cells must be 1 (w = 1)");
  }

  // --- inserts ---------------------------------------------------------------

  /// Insert one item; advances the stream clock by one.
  void insert(std::uint64_t key) { insert_at(key, time_ + 1); }

  /// Time-based windows: insert at explicit timestamp `t` (monotone
  /// non-decreasing; throws std::invalid_argument if it moves backwards).
  /// With insert_at, `window` counts time units instead of items.
  ///
  /// Algorithm 1 per hashed cell: CheckGroup, then F.  This per-key form is
  /// the reference every batch path is tested against.
  void insert_at(std::uint64_t key, std::uint64_t t) {
    advance_to(t);
    const std::size_t cells = store_.size();
    const unsigned k = probes();
    for (unsigned i = 0; i < k; ++i) {
      const std::size_t pos = policy_.position(key, i, cells);
      const std::size_t gid = group_of(pos);
      if (clock_.touch(gid, time_)) clear_group(gid);
      store_.own(pos);
      store_.update(pos, [&](Cell old) { return policy_.update(key, i, old); });
    }
    if (obs::enabled()) obs::she_metrics().hash_calls.inc(hashes_per_key());
  }

  /// Insert a batch, bit-for-bit equivalent to insert() per key, in order.
  /// Runs the block pipeline of batch.hpp: stage 1 hashes a block ahead
  /// (the policy's hash_block hook, vectorized under SIMD dispatch) and
  /// prefetches the touched cell and mark lines; stage 2 applies CheckGroup
  /// + F per key.  Shapes the block stage does not take (see stageable())
  /// loop over insert().
  void insert_batch(std::span<const std::uint64_t> keys) {
    insert_many(keys, nullptr, [](auto&&...) {}, [](auto&&...) {});
  }

  /// Batched insert_at: keys[i] inserted at times[i] (monotone
  /// non-decreasing, validated up front; throws like insert_at).  Runs the
  /// same pipeline as insert_batch.
  void insert_at_batch(std::span<const std::uint64_t> keys,
                       std::span<const std::uint64_t> times) {
    batch::validate_insert_times(keys, times, time_, name());
    insert_many(keys, times.data(), [](auto&&...) {}, [](auto&&...) {});
  }

  /// Advance the clock to `t` without inserting, so queries reflect the
  /// window (t - N, t] even during arrival gaps.
  void advance_to(std::uint64_t t) {
    if (t < time_)
      throw std::invalid_argument(std::string(name()) +
                                  ": time must not move backwards");
    time_ = t;
  }

  /// Reset to the empty state at time 0.
  void clear() {
    store_.clear_range(0, store_.size());
    clock_.reset();
    time_ = 0;
  }

  // --- per-cell views --------------------------------------------------------

  /// View of the cell probed by (key, probe); stale groups read as empty.
  [[nodiscard]] CellView<Cell> probe(std::uint64_t key, unsigned i) const {
    return view(position(key, i));
  }

  /// View of cell `pos`.
  [[nodiscard]] CellView<Cell> view(std::size_t pos) const {
    const std::size_t gid = group_of(pos);
    const std::uint64_t age = clock_.age(gid, time_);
    const CellAge cls =
        age < cfg_.window
            ? CellAge::kYoung
            : (age == cfg_.window ? CellAge::kPerfect : CellAge::kAged);
    return {value(pos, gid), age, cls};
  }

  /// Cell index of probe `i` of `key`.
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned i) const {
    return policy_.position(key, i, store_.size());
  }

  /// Group holding cell `pos`.
  [[nodiscard]] std::size_t group_of(std::size_t pos) const {
    return kUnitGroups ? pos : pos / cfg_.group_cells;
  }

  /// Effective value of cell `pos` in group `gid`: empty if the group is
  /// stale (its content predates its latest cleaning boundary).
  [[nodiscard]] Cell value(std::size_t pos, std::size_t gid) const {
    return clock_.stale(gid, time_) ? Policy::empty_cell() : store_.get(pos);
  }

  // --- diagnostics ----------------------------------------------------------

  /// Groups currently in the default band (diagnostic; the variance
  /// analysis of Sec. 5.3 depends on it).
  [[nodiscard]] std::size_t legal_groups() const {
    const std::uint64_t lower = beta_floor(cfg_.window);
    std::size_t legal = 0;
    for (std::size_t g = 0; g < clock_.groups(); ++g)
      if (clock_.age(g, time_) >= lower) ++legal;
    return legal;
  }

  // --- state -----------------------------------------------------------------

  [[nodiscard]] std::uint64_t time() const { return time_; }
  [[nodiscard]] std::size_t cell_count() const { return store_.size(); }
  [[nodiscard]] const SheConfig& config() const { return cfg_; }
  [[nodiscard]] const Policy& policy() const { return policy_; }
  [[nodiscard]] const GroupClock& clock() const { return clock_; }

  /// Payload + time-mark bytes (the figures' memory axis).  Packed stores
  /// report their words; a VectorStore counts the policy's declared bits
  /// per cell (the memory model, not the padded footprint).
  [[nodiscard]] std::size_t memory_bytes() const {
    return store_bytes() + clock_.memory_bytes();
  }

  /// Checkpoint the full sliding-window state; load() resumes with
  /// identical answers.  Layout: tag, config, policy parameters, time,
  /// clock, cells.
  void save(BinaryWriter& out) const {
    out.tag(Policy::kTag);
    cfg_.save(out);
    if constexpr (requires { policy_.save(out); }) policy_.save(out);
    out.u64(time_);
    clock_.save(out);
    store_.save(out);
  }

  /// Throws SerializeError on a malformed stream, before sizing anything
  /// from a config whose cells the stream does not hold, or from a clock
  /// whose geometry differs from the config's.
  static SlidingEstimator load(BinaryReader& in) {
    in.expect_tag(Policy::kTag);
    const SheConfig cfg = SheConfig::load(in);
    Policy policy = Policy::load(in, cfg);
    in.expect_remaining(Store::saved_bytes(cfg.cells));
    const std::uint64_t time = in.u64();
    GroupClock clock =
        GroupClock::load(in, cfg.groups(), cfg.tcycle(), cfg.mark_bits);
    SlidingEstimator est = while_loading(
        [&] { return SlidingEstimator(cfg, std::move(policy)); });
    est.time_ = time;
    est.clock_ = std::move(clock);
    est.store_.load(in);
    return est;
  }

 protected:
  // The query pipelines and batch driver the estimator classes build on.

  [[nodiscard]] const Store& store() const { return store_; }

  /// value() against a current mark staged for `gid`.
  [[nodiscard]] Cell value_at_mark(std::size_t pos, std::size_t gid,
                                   std::uint64_t cur) const {
    return clock_.stored_mark(gid) != cur ? Policy::empty_cell()
                                          : store_.get(pos);
  }

  /// Cells [first, first + count) of group `gid`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> group_range(
      std::size_t gid) const {
    const std::size_t first = gid * cfg_.group_cells;
    return {first, std::min(cfg_.group_cells, store_.size() - first)};
  }

  // --- batched point queries -------------------------------------------------

  /// Stage 2 of a probe batch reads these from each staged slot.
  [[nodiscard]] static std::uint64_t staged_age(const Slot& s) {
    return s.aux >> 1;
  }
  [[nodiscard]] Cell staged_value(const Slot& s) const {
    return (s.aux & 1) != 0 ? Policy::empty_cell() : store_.get(s.pos);
  }

  /// The block pipeline for point queries: stage 1 hashes a block ahead,
  /// stages every probe's age and staleness at the (fixed) query time and
  /// issues read-hinted prefetches; then `each(i, slots)` runs once per key
  /// in order with that key's k slots (read them with staged_age() and
  /// staged_value()).  For shapes the block stage does not take,
  /// `per_key(i)` answers key i with the per-key query instead.  Stack
  /// scratch keeps this const path safe on a shared published view, and
  /// a batch allocates nothing.
  template <typename EachFn, typename PerKeyFn>
  void probe_many(std::span<const std::uint64_t> keys, EachFn&& each,
                  PerKeyFn&& per_key) const {
    static_assert(!kAllCells, "all-cells policies have no point queries");
    if (!stageable()) {
      for (std::size_t i = 0; i < keys.size(); ++i) per_key(i);
      return;
    }
    const unsigned k = probes();
    const bool warm_cells = store_bytes() >= batch::kPrefetchFootprint;
    const bool warm_marks = clock_.memory_bytes() >= batch::kPrefetchFootprint;
    const BlockShape shape = block_shape(k);
    const GroupClock::TimeParts now = clock_.split(time_);
    // stageable() bounds k, so two blocks fit 2 * kSlotBudget slots.
    std::array<Slot, 2 * batch::kSlotBudget> scratch;
    batch::pipelined_blocks(
        keys, k, std::span<Slot>(scratch).first(batch::scratch_slots(k)),
        [&](std::size_t begin, std::size_t n, Slot* out) {
          // A block stages at most kSlotBudget probes (stageable()).
          std::uint32_t hash[batch::kSlotBudget], pos[batch::kSlotBudget],
              gid[batch::kSlotBudget], word[batch::kSlotBudget],
              cur[batch::kSlotBudget];
          std::uint64_t age[batch::kSlotBudget];
          const std::size_t m = n * k;
          hash_block(keys.data() + begin, n, shape, {hash, pos, gid, word});
          clock_.stage_marks(gid, m, now, cur, age);
          for (std::size_t s = 0; s < m; ++s) {
            const std::uint64_t stale =
                clock_.stored_mark(gid[s]) != cur[s] ? 1 : 0;
            out[s].pos = pos[s];  // stage 2 of a query needs no group id
            out[s].aux = (age[s] << 1) | stale;
            if (warm_cells) store_.prefetch(pos[s], false);
            if (warm_marks) clock_.prefetch(gid[s], false);
          }
        },
        each);
    // Every probe hash is staged up front, early exits or not.
    if (obs::enabled())
      obs::she_metrics().hash_calls.inc(
          static_cast<std::uint64_t>(keys.size()) * hashes_per_key());
  }

  // --- aggregate queries: the age-band scan ----------------------------------

  /// The default-window band [beta*N, Tcycle) (paper Sec. 4.1/4.3/4.5).
  [[nodiscard]] AgeBand default_band() const {
    return {beta_floor(cfg_.window), std::numeric_limits<std::uint64_t>::max(),
            cfg_.window};
  }

  /// Throws std::invalid_argument unless a query window `w` is in [1, N];
  /// `who` prefixes the message.
  void check_window(std::uint64_t w, const char* who = name()) const {
    if (w == 0 || w > cfg_.window)
      throw std::invalid_argument(std::string(who) +
                                  ": query window must be in [1, N]");
  }

  /// The sub-window band [beta*w, (2-beta)*w), centred on w so the lumped
  /// group ages match the queried window (checked like check_window()).
  [[nodiscard]] AgeBand window_band(std::uint64_t w,
                                    const char* who = name()) const {
    check_window(w, who);
    return {beta_floor(w),
            static_cast<std::uint64_t>((2.0 - cfg_.beta) *
                                       static_cast<double>(w)),
            w};
  }

  /// One pass over every group for any number of age bands.  Ages and
  /// current marks are staged in chunks through the vectorized GroupClock
  /// kernels.  For each group whose age falls in at least one band,
  /// `read(gid, cur)` runs once (cur = the group's current mark, for
  /// value_at_mark()) and its result is added to acc[b] of every band b
  /// that holds the age.  With telemetry on, each band also classifies
  /// every group's age against its window and commits as one query.
  template <typename Acc, typename ReadFn>
  void scan_bands(std::span<const AgeBand> bands, std::span<Acc> acc,
                  ReadFn&& read) const {
    std::vector<obs::AgeClassCounts> cls(obs::enabled() ? bands.size() : 0);
    const GroupClock::TimeParts now = clock_.split(time_);
    constexpr std::size_t kChunk = 256;
    std::uint64_t age[kChunk];
    std::uint32_t cur[kChunk];
    const std::size_t groups = clock_.groups();
    for (std::size_t g0 = 0; g0 < groups; g0 += kChunk) {
      const std::size_t n = std::min(kChunk, groups - g0);
      clock_.stage_marks_range(g0, n, now, cur, age);
      // The telemetry pass is separate, so the read loops below carry no
      // classification state.
      for (std::size_t b = 0; b < cls.size(); ++b)
        for (std::size_t j = 0; j < n; ++j) cls[b].add(age[j], bands[b].window);
      if (bands.size() == 1) {
        // The common single-window query, with its band and accumulator in
        // locals so they stay in registers.
        const AgeBand band = bands[0];
        Acc a = acc[0];
        for (std::size_t j = 0; j < n; ++j)
          if (age[j] >= band.lower && age[j] < band.upper)
            a.add(read(g0 + j, cur[j]));
        acc[0] = a;
        continue;
      }
      for (std::size_t j = 0; j < n; ++j) {
        bool known = false;
        decltype(read(g0 + j, cur[j])) v{};
        for (std::size_t b = 0; b < bands.size(); ++b) {
          if (age[j] < bands[b].lower || age[j] >= bands[b].upper) continue;
          if (!known) {
            v = read(g0 + j, cur[j]);
            known = true;
          }
          acc[b].add(v);
        }
      }
    }
    for (const obs::AgeClassCounts& c : cls) c.commit(true);
  }

  /// The one batch-insert driver.  `times` null means +1 per key.  After
  /// each key's update, `post(i, slots)` runs with that key's staged slots,
  /// or `post_per_key(i)` on the per-key fallback: SHE-CM's fused estimate
  /// hooks in here.  `post` is copied into stage 2, so a hook should
  /// capture its outputs by value.  Always inlined, so each caller's
  /// `times` (null for insert_batch) is a constant in its stage 2.
  template <typename PostFn, typename PerKeyFn>
  [[gnu::always_inline]] void insert_many(std::span<const std::uint64_t> keys,
                   const std::uint64_t* times, PostFn post,
                   PerKeyFn post_per_key) {
    if (!stageable()) {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        insert_at(keys[i], times != nullptr ? times[i] : time_ + 1);
        post_per_key(i);
      }
      return;
    }
    const unsigned k = probes();
    // Cache-resident arrays are not worth prefetching (batch.hpp).
    const bool warm_cells = store_bytes() >= batch::kPrefetchFootprint;
    const bool warm_marks = clock_.memory_bytes() >= batch::kPrefetchFootprint;
    const BlockShape shape = block_shape(k);
    const batch::MarkStager stager(clock_, time_, times);
    staging_.slots.resize(batch::scratch_slots(k));
    batch::pipelined_blocks(
        keys, k, staging_.slots,
        // Stage 1: the policy's hash stage, then the marks; aux = cur << 32
        // | staged word.
        [&](std::size_t begin, std::size_t n, Slot* out) {
          if constexpr (kAllCells) {
            // Slot i of every key is cell i and group i (stage 2 knows, so
            // only aux is staged), all at that key's time: one sweep over
            // the marks per key, and a sequential (warm) array, so no
            // prefetches.  Blocks can exceed the slot budget here.
            store_.own_all();
            staging_.words.resize(n * k + clock_.groups());
            std::uint32_t* word = staging_.words.data();
            std::uint32_t* cur = word + n * k;
            hash_block(keys.data() + begin, n, shape,
                       {nullptr, nullptr, nullptr, word});
            for (std::size_t b = 0; b < n; ++b) {
              clock_.stage_marks_range(
                  0, clock_.groups(), clock_.split(stager.time_of(begin + b)),
                  cur);
              for (std::size_t i = 0; i < k; ++i)
                out[b * k + i].aux =
                    (std::uint64_t{cur[i]} << 32) | word[b * k + i];
            }
          } else {
            // A block stages at most kSlotBudget probes (stageable()).
            std::uint32_t hash[batch::kSlotBudget], pos[batch::kSlotBudget],
                gid[batch::kSlotBudget], word[batch::kSlotBudget],
                cur[batch::kSlotBudget];
            hash_block(keys.data() + begin, n, shape, {hash, pos, gid, word});
            stager.stage(begin, n, k, gid, cur);
            for (std::size_t s = 0; s < n * k; ++s) {
              std::uint64_t aux = std::uint64_t{cur[s]} << 32;
              if constexpr (kStagedUpdate) aux |= word[s];
              out[s] = {pos[s], gid[s], aux};
              if (warm_cells) store_.prefetch(pos[s], true);
              if (warm_marks) clock_.prefetch(gid[s], true);
            }
            // Stage 2 writes without checks: clone shared frames now.
            if (!store_.owns_all())
              for (std::size_t s = 0; s < n * k; ++s) store_.own(pos[s]);
          }
        },
        // Stage 2: per key, in order, CheckGroup against the staged mark
        // and F, then the post hook.  Captured by value (the hook too) so
        // the loop state stays in registers across the clean path's calls.
        [this, keys, times, k, post](std::size_t i, const Slot* slots) {
          time_ = times != nullptr ? times[i] : time_ + 1;
          for (unsigned h = 0; h < k; ++h) {
            const Slot& s = slots[h];
            const std::size_t gid = kAllCells ? h : s.gid;
            if (clock_.touch_precomputed(gid, s.aux >> 32)) clear_group(gid);
            // The cell index is read only now, so it is not live across
            // the clean path's calls.
            store_.update(kAllCells ? h : s.pos, [&](Cell old) {
              if constexpr (kStagedUpdate) {
                return policy_.update_staged(static_cast<std::uint32_t>(s.aux),
                                             old);
              } else {
                return policy_.update(keys[i], h, old);
              }
            });
          }
          post(i, slots);
        });
    if (obs::enabled())
      obs::she_metrics().hash_calls.inc(
          static_cast<std::uint64_t>(keys.size()) * hashes_per_key());
  }

 private:
  static constexpr bool kStagedUpdate =
      requires(const Policy p, std::uint32_t w, Cell c) { p.update_staged(w, c); };
  static constexpr bool kAllCells = requires { Policy::kAllCells; };
  static constexpr bool kUnitGroups =
      kAllCells || requires { Policy::kUnitGroups; };

  [[nodiscard]] static const char* name() {
    if constexpr (requires { Policy::kName; }) {
      return Policy::kName;
    } else {
      return "SlidingEstimator";
    }
  }

  [[nodiscard]] unsigned probes() const { return policy_.probes(store_.size()); }

  [[nodiscard]] std::uint64_t hashes_per_key() const {
    if constexpr (requires { Policy::kExtraHashes; }) {
      return probes() + Policy::kExtraHashes;
    } else {
      return probes();
    }
  }

  /// Whether batches take the block stage: positions must fit the
  /// kernels' 32-bit lanes, and one key's probes the slot budget (unless
  /// every cell is a probe: those blocks size themselves to one key).  Any
  /// other shape loops over the per-key methods.
  [[nodiscard]] bool stageable() const {
    if constexpr (kAllCells) {
      return batch::stageable(store_.size());
    } else {
      return batch::stageable(store_.size(), probes());
    }
  }

  [[nodiscard]] std::uint64_t beta_floor(std::uint64_t w) const {
    return static_cast<std::uint64_t>(cfg_.beta * static_cast<double>(w));
  }

  [[nodiscard]] std::size_t store_bytes() const {
    if constexpr (requires { store_.memory_bytes(); }) {
      return store_.memory_bytes();
    } else {
      return ceil_div(store_.size() * Policy::cell_bits(), 8);
    }
  }

  [[nodiscard]] BlockShape block_shape(unsigned k) const {
    return {k, FastDiv32(static_cast<std::uint32_t>(store_.size())),
            FastDiv32(static_cast<std::uint32_t>(cfg_.group_cells))};
  }

  /// Stage 1's hash step: the policy's hook, or position() per probe.
  void hash_block(const std::uint64_t* keys, std::size_t n,
                  const BlockShape& shape, const StagedBlock& out) const {
    if constexpr (requires { policy_.hash_block(keys, n, shape, out); }) {
      policy_.hash_block(keys, n, shape, out);
    } else {
      static_assert(!kAllCells, "all-cells policies stage words in hash_block");
      // do-while: a block holds at least one key and a key one probe.
      const std::size_t cells = store_.size();
      std::size_t s = 0;
      do {
        out.hash[s] = static_cast<std::uint32_t>(
            policy_.position(keys[s / shape.k], s % shape.k, cells));
      } while (++s < n * shape.k);
      // Positions are already below the cell count: this only derives the
      // groups (and copies the positions).
      simd::positions_groups(out.hash, n * shape.k, shape.mod_cells,
                             shape.div_group, out.pos, out.gid);
    }
  }

  // Out of line, like the clean path it is, so stage 2's loop stays small.
  [[gnu::noinline]] void clear_group(std::size_t gid) {
    const auto [first, count] = group_range(gid);
    store_.clear_range(first, count);
  }

  SheConfig cfg_;
  Policy policy_;
  GroupClock clock_;
  Store store_;
  std::uint64_t time_ = 0;
  // Batch staging buffers: not state, so a copy (a published view) starts
  // without them.
  struct Staging {
    std::vector<Slot> slots;
    std::vector<std::uint32_t> words;  // all-cells words and marks
    Staging() = default;
    Staging(const Staging&) {}
    Staging(Staging&&) = default;
    Staging& operator=(const Staging&) { return *this; }
    Staging& operator=(Staging&&) = default;
  };
  Staging staging_;
};

}  // namespace she::csm
