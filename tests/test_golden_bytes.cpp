// Golden digests: the serialized state and the query answers of every
// estimator, pinned across commits.
//
// The other differential suites compare two code paths of one build (batch
// against per-key, vector kernels against scalar tails, live object against
// its checkpoint).  This one compares a build against the constants below,
// which were recorded before the estimators were rebased on the shared
// csm::SlidingEstimator engine.  A refactor that changes a single saved
// byte or a single answer bit on any of these shapes fails here, even if
// it changes both paths of a differential pair the same way.
//
// Each case runs a fixed seeded trace through one of three timelines
// (count-based inserts, insert_at_batch with explicit times, count-based
// inserts with advance_to gaps, some longer than a cleaning cycle), then
// CRC32s the save() bytes and, separately, every query answer the class
// offers over a fixed probe set, per-key and batched.  Every case runs
// natively and under ScopedForceScalar against the same constants.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "obs/she_metrics.hpp"
#include "she/monitor.hpp"
#include "she/she.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she {
namespace {

/// CRC32 accumulator over serialized state and answer values.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) { crc_ = crc32(p, n, crc_); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  template <typename T>
  void state(const T& est) {
    std::vector<char> buf;
    BinaryWriter w(buf);
    est.save(w);
    const std::string s(buf.begin(), buf.end());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint32_t value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

enum class Timeline { kCount, kAtBatch, kGaps };

/// Drives `insert_batch` / `insert_at_batch` / `advance_to` calls for one
/// timeline over `trace`, in chunks of varying size; `apply` receives each
/// chunk and its explicit times (empty for count-based chunks), `gap`
/// receives advance_to targets.
template <typename ApplyFn, typename GapFn, typename TimeFn>
void run_timeline(Timeline tl, const stream::Trace& trace, std::uint64_t tcycle,
                  std::uint64_t seed, ApplyFn&& apply, GapFn&& gap,
                  TimeFn&& now) {
  static const std::size_t kChunkSizes[] = {1, 5, 31, 32, 33, 200, 777};
  Rng rng(seed);
  std::size_t i = 0;
  std::size_t c = 0;
  std::vector<std::uint64_t> times;
  while (i < trace.size()) {
    const std::size_t n =
        std::min(kChunkSizes[c++ % std::size(kChunkSizes)], trace.size() - i);
    const std::span<const std::uint64_t> chunk(trace.data() + i, n);
    times.clear();
    if (tl == Timeline::kAtBatch) {
      std::uint64_t t = now();
      for (std::size_t j = 0; j < n; ++j) {
        t += rng.below(3);  // repeats and small gaps
        if (rng.below(97) == 0) t += tcycle / 3 + rng.below(tcycle);
        times.push_back(t);
      }
    }
    apply(chunk, std::span<const std::uint64_t>(times));
    if (tl == Timeline::kGaps && c % 4 == 0) {
      // Mostly short gaps; every eighth chunk a gap past a whole cycle.
      const std::uint64_t g =
          c % 8 == 0 ? tcycle + rng.below(tcycle) : rng.below(tcycle / 4 + 1);
      gap(now() + g);
    }
    i += n;
  }
}

stream::Trace zipf_keys(std::uint64_t length, std::uint64_t universe,
                        std::uint64_t seed) {
  stream::ZipfTraceConfig tc;
  tc.length = length;
  tc.universe = universe;
  tc.skew = 1.0;
  tc.seed = seed;
  return stream::zipf_trace(tc);
}

SheConfig cfg_of(std::size_t cells, std::size_t group_cells,
                 unsigned mark_bits, std::uint64_t window = 500) {
  SheConfig cfg;
  cfg.window = window;
  cfg.cells = cells;
  cfg.group_cells = group_cells;
  cfg.alpha = 0.6;
  cfg.beta = 0.85;
  cfg.seed = 77;
  cfg.mark_bits = mark_bits;
  return cfg;
}

/// Probe set: recent trace keys, old trace keys and absent keys.
std::vector<std::uint64_t> probes(const stream::Trace& trace) {
  std::vector<std::uint64_t> p;
  for (std::size_t i = 0; i < 64; ++i) {
    p.push_back(trace[trace.size() - 1 - i * 3]);
    p.push_back(trace[i * 17 % trace.size()]);
    p.push_back(hash64(i, 4242));
  }
  return p;
}

const std::uint64_t kWindows[] = {1, 37, 250, 499, 500};

template <typename T, typename GapFn>
void run_inserts(T& est, Timeline tl, const stream::Trace& trace,
                 std::uint64_t seed, GapFn&& after_gap) {
  run_timeline(
      tl, trace, est.config().tcycle(), seed,
      [&](std::span<const std::uint64_t> keys,
          std::span<const std::uint64_t> times) {
        if (!times.empty()) {
          est.insert_at_batch(keys, times);
        } else if (keys.size() == 1) {
          est.insert(keys[0]);
        } else {
          est.insert_batch(keys);
        }
      },
      [&](std::uint64_t t) {
        est.advance_to(t);
        after_gap(t);
      },
      [&] { return est.time(); });
}

// ---------------------------------------------------------------------------
// One digest per estimator shape.
// ---------------------------------------------------------------------------

std::uint32_t bloom_digest(std::size_t group_cells, unsigned mark_bits,
                           unsigned hashes, Timeline tl) {
  const SheConfig cfg = cfg_of(4000 + group_cells, group_cells, mark_bits);
  SheBloomFilter bf(cfg, hashes);
  const auto trace = zipf_keys(3000, 2500, 5);
  run_inserts(bf, tl, trace, 11, [](std::uint64_t) {});
  Digest d;
  d.state(bf);
  const auto p = probes(trace);
  std::vector<std::uint8_t> out(p.size());
  for (std::uint64_t w : kWindows) {
    for (std::uint64_t key : p) d.u64(bf.contains(key, w));
    bf.contains_batch(p, out, w);
    d.bytes(out.data(), out.size());
  }
  for (std::uint64_t key : p) d.u64(bf.contains(key));
  bf.contains_batch(p, out);
  d.bytes(out.data(), out.size());
  d.u64(bf.memory_bytes());
  return d.value();
}

std::uint32_t cm_digest(std::size_t group_cells, unsigned mark_bits,
                        unsigned hashes, Timeline tl) {
  const SheConfig cfg = cfg_of(4000 + group_cells, group_cells, mark_bits);
  SheCountMin cm(cfg, hashes);
  const auto trace = zipf_keys(3000, 800, 6);
  run_inserts(cm, tl, trace, 12, [](std::uint64_t) {});
  Digest d;
  d.state(cm);
  const auto p = probes(trace);
  std::vector<std::uint64_t> out(p.size());
  for (std::uint64_t w : kWindows) {
    for (std::uint64_t key : p) d.u64(cm.frequency(key, w));
    cm.frequency_batch(p, out, w);
    d.bytes(out.data(), out.size() * sizeof(out[0]));
  }
  for (std::uint64_t key : p) d.u64(cm.frequency(key));
  cm.frequency_batch(p, out);
  d.bytes(out.data(), out.size() * sizeof(out[0]));
  // The fused post-update estimates (count-based continuation).
  const auto more = zipf_keys(300, 800, 7);
  std::vector<std::uint64_t> est(more.size());
  cm.insert_batch_estimates(more, est);
  d.bytes(est.data(), est.size() * sizeof(est[0]));
  d.state(cm);
  d.u64(cm.all_young_queries());
  d.u64(cm.memory_bytes());
  return d.value();
}

template <typename T>
void cardinality_answers(const T& est, Digest& d) {
  d.f64(est.cardinality());
  for (std::uint64_t w : kWindows) d.f64(est.cardinality(w));
  for (double v : est.cardinality_batch(kWindows)) d.f64(v);
  d.u64(est.legal_groups());
  d.u64(est.memory_bytes());
}

template <typename T>
std::uint32_t card_digest(T est, Timeline tl, std::uint64_t seed) {
  const auto trace = zipf_keys(3000, 4000, seed);
  Digest d;
  // Answers are digested at every gap too: an advance_to jump is exactly
  // when the age-band scans see groups go stale.
  run_inserts(est, tl, trace, seed + 1,
              [&](std::uint64_t) { cardinality_answers(est, d); });
  d.state(est);
  cardinality_answers(est, d);
  return d.value();
}

std::uint32_t bitmap_digest(std::size_t group_cells, unsigned mark_bits,
                            Timeline tl) {
  return card_digest(SheBitmap(cfg_of(3000 + group_cells, group_cells, mark_bits)),
                     tl, 21);
}

std::uint32_t hll_digest(unsigned mark_bits, Timeline tl) {
  return card_digest(SheHyperLogLog(cfg_of(700, 1, mark_bits)), tl, 22);
}

std::uint32_t minhash_digest(std::size_t slots, unsigned mark_bits,
                             Timeline tl) {
  const SheConfig cfg = cfg_of(slots, 1, mark_bits);
  SheMinHash a(cfg), b(cfg);
  const auto pair = stream::relevant_pair(2500, 1500, 0.5, 0.7, 23);
  Digest d;
  auto answers = [&] {
    d.f64(SheMinHash::jaccard(a, b));
    for (std::uint64_t w : kWindows) d.f64(SheMinHash::jaccard(a, b, w));
    for (double v : SheMinHash::jaccard_batch(a, b, kWindows)) d.f64(v);
  };
  // Both signatures share one timeline (jaccard needs lock-step streams):
  // the same chunking, times and gaps, over their own keys.
  std::size_t offset = 0;
  run_timeline(
      tl, pair.a, cfg.tcycle(), 24,
      [&](std::span<const std::uint64_t> keys,
          std::span<const std::uint64_t> times) {
        const std::span<const std::uint64_t> keys_b(pair.b.data() + offset,
                                                    keys.size());
        offset += keys.size();
        if (!times.empty()) {
          a.insert_at_batch(keys, times);
          b.insert_at_batch(keys_b, times);
        } else if (keys.size() == 1) {
          a.insert(keys[0]);
          b.insert(keys_b[0]);
        } else {
          a.insert_batch(keys);
          b.insert_batch(keys_b);
        }
      },
      [&](std::uint64_t t) {
        a.advance_to(t);
        b.advance_to(t);
        answers();
      },
      [&] { return a.time(); });
  d.state(a);
  d.state(b);
  answers();
  d.u64(a.memory_bytes());
  return d.value();
}

std::uint32_t monitor_digest() {
  StreamMonitor mon{MonitorConfig{}};
  const auto trace = zipf_keys(150000, 600000, 31);
  for (std::size_t i = 0; i < trace.size(); i += 4096)
    mon.insert_batch(std::span<const std::uint64_t>(
        trace.data() + i, std::min<std::size_t>(4096, trace.size() - i)));
  Digest d;
  d.state(mon);
  const MonitorReport r = mon.report(20);
  d.u64(r.items);
  d.f64(r.cardinality.value_or(-1.0));
  for (const auto& e : r.top) {
    d.u64(e.key);
    d.u64(e.estimate);
  }
  for (std::uint64_t key : probes(trace)) {
    d.u64(mon.seen(key));
    d.u64(mon.frequency(key));
  }
  return d.value();
}

// ---------------------------------------------------------------------------
// The pinned values.  Every case is named by its shape; the expected digest
// is the same natively and forced scalar.
// ---------------------------------------------------------------------------

struct Case {
  std::string name;
  std::uint32_t (*run)(const Case&);
  std::size_t a;  // group_cells, or MinHash slots
  unsigned mark_bits;
  unsigned hashes;
  Timeline tl;
};

const char* tl_name(Timeline tl) {
  switch (tl) {
    case Timeline::kCount: return "count";
    case Timeline::kAtBatch: return "at_batch";
    case Timeline::kGaps: return "gaps";
  }
  return "?";
}

std::vector<Case> cases() {
  std::vector<Case> out;
  const Timeline timelines[] = {Timeline::kCount, Timeline::kAtBatch,
                                Timeline::kGaps};
  const unsigned hash_counts[] = {1, 8,
                                  static_cast<unsigned>(batch::kSlotBudget) + 1};
  for (Timeline tl : timelines) {
    for (unsigned mb : {1u, 2u}) {
      const std::string sfx =
          "/mb" + std::to_string(mb) + "/" + tl_name(tl);
      for (std::size_t gc : {std::size_t{1}, std::size_t{64}}) {
        const std::string g = "/w" + std::to_string(gc);
        for (unsigned k : hash_counts) {
          const std::string kk = "/k" + std::to_string(k);
          out.push_back({"bloom" + g + kk + sfx, [](const Case& c) {
                           return bloom_digest(c.a, c.mark_bits, c.hashes, c.tl);
                         }, gc, mb, k, tl});
          out.push_back({"cm" + g + kk + sfx, [](const Case& c) {
                           return cm_digest(c.a, c.mark_bits, c.hashes, c.tl);
                         }, gc, mb, k, tl});
        }
        out.push_back({"bitmap" + g + sfx, [](const Case& c) {
                         return bitmap_digest(c.a, c.mark_bits, c.tl);
                       }, gc, mb, 0, tl});
      }
      out.push_back({"hll" + sfx, [](const Case& c) {
                       return hll_digest(c.mark_bits, c.tl);
                     }, 1, mb, 0, tl});
      for (std::size_t slots : {std::size_t{64}, std::size_t{300}}) {
        out.push_back({"minhash/m" + std::to_string(slots) + sfx,
                       [](const Case& c) {
                         return minhash_digest(c.a, c.mark_bits, c.tl);
                       }, slots, mb, 0, tl});
      }
    }
  }
  out.push_back({"monitor/default", [](const Case&) { return monitor_digest(); },
                 0, 0, 0, Timeline::kCount});
  return out;
}

// The pinned digests, recorded before the estimators moved onto the shared
// engine.  Never regenerate them to make a change pass: a mismatch means
// the change altered saved bytes or answers.
const std::map<std::string, std::uint32_t> kPinned = {
    {"bloom/w1/k1/mb1/count", 0x96c77297},
    {"cm/w1/k1/mb1/count", 0x4004e1a6},
    {"bloom/w1/k8/mb1/count", 0xd50e7070},
    {"cm/w1/k8/mb1/count", 0x3027ced7},
    {"bloom/w1/k257/mb1/count", 0xa527cf4d},
    {"cm/w1/k257/mb1/count", 0x6caa5a09},
    {"bitmap/w1/mb1/count", 0x8badf53a},
    {"bloom/w64/k1/mb1/count", 0x91893ef6},
    {"cm/w64/k1/mb1/count", 0xa4aba131},
    {"bloom/w64/k8/mb1/count", 0xa1528714},
    {"cm/w64/k8/mb1/count", 0xb53bfe7a},
    {"bloom/w64/k257/mb1/count", 0x326b00bd},
    {"cm/w64/k257/mb1/count", 0xe071674c},
    {"bitmap/w64/mb1/count", 0xd6b1819c},
    {"hll/mb1/count", 0x28abb427},
    {"minhash/m64/mb1/count", 0x1fb898ca},
    {"minhash/m300/mb1/count", 0x4bea3c61},
    {"bloom/w1/k1/mb2/count", 0x0fa08652},
    {"cm/w1/k1/mb2/count", 0x17defcc0},
    {"bloom/w1/k8/mb2/count", 0xe007a145},
    {"cm/w1/k8/mb2/count", 0x15cd4dae},
    {"bloom/w1/k257/mb2/count", 0xdc5ec906},
    {"cm/w1/k257/mb2/count", 0xdacf2833},
    {"bitmap/w1/mb2/count", 0x03296eee},
    {"bloom/w64/k1/mb2/count", 0x590482a9},
    {"cm/w64/k1/mb2/count", 0x60f0c975},
    {"bloom/w64/k8/mb2/count", 0x18a3a423},
    {"cm/w64/k8/mb2/count", 0x1bc0273a},
    {"bloom/w64/k257/mb2/count", 0xf7ae62f6},
    {"cm/w64/k257/mb2/count", 0xa916f436},
    {"bitmap/w64/mb2/count", 0xd24cc5ce},
    {"hll/mb2/count", 0x28fcd4de},
    {"minhash/m64/mb2/count", 0xaa97e0dd},
    {"minhash/m300/mb2/count", 0x22082a6f},
    {"bloom/w1/k1/mb1/at_batch", 0x0318a9e6},
    {"cm/w1/k1/mb1/at_batch", 0x41c6c9a8},
    {"bloom/w1/k8/mb1/at_batch", 0x45d2b1f8},
    {"cm/w1/k8/mb1/at_batch", 0xf0d63e48},
    {"bloom/w1/k257/mb1/at_batch", 0x105cb587},
    {"cm/w1/k257/mb1/at_batch", 0x0380d9a3},
    {"bitmap/w1/mb1/at_batch", 0xf6f0deae},
    {"bloom/w64/k1/mb1/at_batch", 0x65749952},
    {"cm/w64/k1/mb1/at_batch", 0x4590d653},
    {"bloom/w64/k8/mb1/at_batch", 0xf423898d},
    {"cm/w64/k8/mb1/at_batch", 0x9d1d31bb},
    {"bloom/w64/k257/mb1/at_batch", 0x206d283d},
    {"cm/w64/k257/mb1/at_batch", 0x03c64c15},
    {"bitmap/w64/mb1/at_batch", 0x5e61d451},
    {"hll/mb1/at_batch", 0x26e3a254},
    {"minhash/m64/mb1/at_batch", 0x0d6ecaf0},
    {"minhash/m300/mb1/at_batch", 0x489aee3a},
    {"bloom/w1/k1/mb2/at_batch", 0x2a539bb8},
    {"cm/w1/k1/mb2/at_batch", 0x9c294740},
    {"bloom/w1/k8/mb2/at_batch", 0x54967f1a},
    {"cm/w1/k8/mb2/at_batch", 0x75d64a9c},
    {"bloom/w1/k257/mb2/at_batch", 0x4a524fd2},
    {"cm/w1/k257/mb2/at_batch", 0x5ca11261},
    {"bitmap/w1/mb2/at_batch", 0x1887abc6},
    {"bloom/w64/k1/mb2/at_batch", 0x88657b5b},
    {"cm/w64/k1/mb2/at_batch", 0x96720041},
    {"bloom/w64/k8/mb2/at_batch", 0x182b160f},
    {"cm/w64/k8/mb2/at_batch", 0xdb927e73},
    {"bloom/w64/k257/mb2/at_batch", 0xa9631779},
    {"cm/w64/k257/mb2/at_batch", 0x28bafd83},
    {"bitmap/w64/mb2/at_batch", 0xe24a9a5d},
    {"hll/mb2/at_batch", 0x4e662849},
    {"minhash/m64/mb2/at_batch", 0x1f57063b},
    {"minhash/m300/mb2/at_batch", 0x2ef7c3f9},
    {"bloom/w1/k1/mb1/gaps", 0x14044859},
    {"cm/w1/k1/mb1/gaps", 0x5574c61f},
    {"bloom/w1/k8/mb1/gaps", 0xf07a02a4},
    {"cm/w1/k8/mb1/gaps", 0x43109900},
    {"bloom/w1/k257/mb1/gaps", 0xbcd5dbe7},
    {"cm/w1/k257/mb1/gaps", 0xb60fee76},
    {"bitmap/w1/mb1/gaps", 0x997bcf7f},
    {"bloom/w64/k1/mb1/gaps", 0xb8356182},
    {"cm/w64/k1/mb1/gaps", 0x8a961486},
    {"bloom/w64/k8/mb1/gaps", 0x653ef644},
    {"cm/w64/k8/mb1/gaps", 0x6c61b4c1},
    {"bloom/w64/k257/mb1/gaps", 0x7b28057d},
    {"cm/w64/k257/mb1/gaps", 0x94f689c9},
    {"bitmap/w64/mb1/gaps", 0xa28e4f34},
    {"hll/mb1/gaps", 0xa33a9fac},
    {"minhash/m64/mb1/gaps", 0x1819585e},
    {"minhash/m300/mb1/gaps", 0x0e255916},
    {"bloom/w1/k1/mb2/gaps", 0xd7500da9},
    {"cm/w1/k1/mb2/gaps", 0xa86b97ec},
    {"bloom/w1/k8/mb2/gaps", 0x67a1e16a},
    {"cm/w1/k8/mb2/gaps", 0x25a4e725},
    {"bloom/w1/k257/mb2/gaps", 0x0a2f5817},
    {"cm/w1/k257/mb2/gaps", 0xb802e21e},
    {"bitmap/w1/mb2/gaps", 0x6273c90b},
    {"bloom/w64/k1/mb2/gaps", 0x019d28c0},
    {"cm/w64/k1/mb2/gaps", 0xa48f1105},
    {"bloom/w64/k8/mb2/gaps", 0x8c7736a3},
    {"cm/w64/k8/mb2/gaps", 0x985f07e0},
    {"bloom/w64/k257/mb2/gaps", 0x152e929f},
    {"cm/w64/k257/mb2/gaps", 0xd83b23fa},
    {"bitmap/w64/mb2/gaps", 0x490117df},
    {"hll/mb2/gaps", 0x368769e8},
    {"minhash/m64/mb2/gaps", 0x12a79495},
    {"minhash/m300/mb2/gaps", 0xeed9da3a},
    {"monitor/default", 0x8d650464},
};

/// Runs every case against its pinned digest; returns the CRC32 of the SHE
/// telemetry counters after each case (clean/flip counts, hash calls and
/// the per-query age-class tallies), which only move when telemetry is on.
std::uint32_t check_all() {
  obs::SheMetrics& m = obs::she_metrics();
  obs::Counter* counters[] = {&m.groupclock_lazy_clean, &m.groupclock_mark_flips,
                              &m.hash_calls,           &m.queries,
                              &m.query_cells_young,    &m.query_cells_perfect,
                              &m.query_cells_aged,     &m.cm_all_young_queries};
  Digest telemetry;
  std::size_t checked = 0;
  for (const Case& c : cases()) {
    for (obs::Counter* ctr : counters) ctr->reset();
    const std::uint32_t got = c.run(c);
    for (obs::Counter* ctr : counters) telemetry.u64(ctr->value());
    char hex[16];
    std::snprintf(hex, sizeof hex, "0x%08x", got);
    const auto it = kPinned.find(c.name);
    if (it == kPinned.end()) {
      ADD_FAILURE() << "no pinned digest for {\"" << c.name << "\", " << hex
                    << "}";
      continue;
    }
    ++checked;
    EXPECT_EQ(got, it->second) << c.name << " digest " << hex;
  }
  EXPECT_EQ(checked, kPinned.size());
  return telemetry.value();
}

TEST(GoldenBytes, EstimatorsMatchPinnedDigests) { (void)check_all(); }

TEST(GoldenBytes, EstimatorsMatchPinnedDigestsForcedScalar) {
  const simd::ScopedForceScalar pin;
  (void)check_all();
}

// With telemetry on, the answers are unchanged and the counters the query
// paths charge (hash calls, age-class tallies per queried window, lazy
// cleans) match a pinned digest of their own.
TEST(GoldenBytes, TelemetryCountersMatchPinnedDigest) {
  const bool was = obs::enabled();
  obs::set_enabled(true);
  const std::uint32_t native = check_all();
  std::uint32_t scalar = 0;
  {
    const simd::ScopedForceScalar pin;
    scalar = check_all();
  }
  obs::set_enabled(was);
  EXPECT_EQ(native, 0x53467a8du) << std::hex << std::showbase << native;
  EXPECT_EQ(scalar, native);
}

}  // namespace
}  // namespace she
