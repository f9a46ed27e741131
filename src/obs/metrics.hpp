// Lock-free metrics registry — the core of the telemetry subsystem.
//
// Three metric kinds, all safe to update from any thread without locks:
//
//   Counter    monotone uint64, per-thread sharded: inc() is one relaxed
//              fetch_add on a cache-line-private slot, aggregated at scrape.
//   Gauge      a single int64 (set / add / max_of); gauges are low-rate by
//              construction (queue depths, high-water marks) so one atomic
//              cell is enough.
//   Histogram  log₂-bucketed distribution of uint64 samples (nanosecond
//              latencies in practice): bucket i holds values with
//              bit_width == i, so observe() is a clz plus three relaxed
//              fetch_adds on a sharded slot.
//
// A Registry names metrics (Prometheus-style name + help + label set) and
// hands out stable references; registration takes a mutex, updates never
// do.  The process-wide `default_registry()` carries the SHE-internals
// instrumentation and is gated by the global `enabled()` flag so hot paths
// pay one relaxed load + predictable branch when telemetry is off.
// Components with always-on accounting (IngestPipeline) own private
// Registry instances instead and ignore the flag.
//
// Scrapes (export, value()) are wait-free with respect to writers and may
// observe a torn multi-metric state — normal for monitoring systems; each
// individual counter is exact.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace she::obs {

// ---------------------------------------------------------------- toggle --

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Is the process-wide telemetry (default_registry instrumentation) on?
/// Hot paths call this first and skip all metric work when it is false.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flip the process-wide telemetry toggle (any thread, any time).
void set_enabled(bool on) noexcept;

// -------------------------------------------------------------- sharding --

inline constexpr std::size_t kCacheLine = 64;

/// Writer shards per counter; power of two.  More shards than this many
/// concurrently-writing threads just wastes aggregation work.
inline constexpr std::size_t kCounterShards = 16;

/// Histograms carry kBuckets cells per shard, so they shard more coarsely.
inline constexpr std::size_t kHistogramShards = 4;

/// Stable per-thread slot index in [0, kCounterShards): threads hash to
/// slots round-robin at first use, so unrelated threads rarely collide and
/// a given thread always hits the same cache line.
[[nodiscard]] inline std::size_t thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) & (kCounterShards - 1);
  return slot;
}

// --------------------------------------------------------------- metrics --

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    shards_[thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (Slot& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    alignas(kCacheLine) std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kCounterShards> shards_;
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }

  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }

  /// Monotone ratchet: keep the maximum of the current and given value,
  /// correct under concurrent writers (CAS loop).
  void max_of(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  alignas(kCacheLine) std::atomic<std::int64_t> v_{0};
};

class Histogram {
 public:
  /// Bucket 0 holds v == 0; bucket i >= 1 holds bit_width(v) == i, i.e.
  /// v in [2^(i-1), 2^i).  48 buckets cover nanosecond latencies up to
  /// ~39 hours; larger samples clamp into the last bucket.
  static constexpr std::size_t kBuckets = 48;

  void observe(std::uint64_t v) noexcept {
    Slot& s = shards_[thread_shard() & (kHistogramShards - 1)];
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    return v == 0 ? 0
                  : std::min<std::size_t>(kBuckets - 1, std::bit_width(v));
  }

  /// Exclusive upper bound of bucket i (inclusive lower is the previous
  /// bound); the last bucket is unbounded and reported as +Inf.
  [[nodiscard]] static std::uint64_t upper_bound(std::size_t i) noexcept {
    return i == 0 ? 1 : std::uint64_t{1} << i;
  }

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };

  [[nodiscard]] Snapshot snapshot() const noexcept {
    Snapshot out;
    for (const Slot& s : shards_) {
      out.count += s.count.load(std::memory_order_relaxed);
      out.sum += s.sum.load(std::memory_order_relaxed);
      for (std::size_t i = 0; i < kBuckets; ++i)
        out.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return snapshot().count; }

  void reset() noexcept {
    for (Slot& s : shards_) {
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct Slot {
    alignas(kCacheLine) std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };
  std::array<Slot, kHistogramShards> shards_;
};

// -------------------------------------------------------------- registry --

enum class Kind { kCounter, kGauge, kHistogram };

/// Ordered label set ("shard" -> "3").  Kept as a flat vector: label counts
/// are tiny and registration compares whole sets.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register-or-lookup: the same (name, labels) always returns the same
  /// object, so call sites may re-request instead of caching.  Registering
  /// a name under two different kinds throws std::logic_error.
  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       Labels labels = {});

  /// Zero every metric's value (registrations are kept).  Used by tools and
  /// tests that want a per-run baseline from a process-wide registry.
  void reset();

  /// One registered time series: exactly one of the metric pointers is set
  /// (matching `kind`).  Pointers stay valid for the registry's lifetime.
  struct Entry {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    Labels labels;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };

  /// A consistent copy of the registration list, in registration order.
  /// Metric values are still read live through the entry pointers.
  [[nodiscard]] std::vector<Entry> entries() const;

  /// Total of every counter series named `name`, across its label sets
  /// (e.g. a pipeline's per-shard she_pipeline_inserted_total); 0 when no
  /// counter by that name is registered.
  [[nodiscard]] std::uint64_t sum(std::string_view name) const;

 private:
  struct Row {
    std::string name;
    std::string help;
    Kind kind;
    Labels labels;
    std::size_t index;  ///< into the matching metric deque
  };

  /// Finds an existing row or appends one; returns its index in rows_.
  std::size_t intern(const std::string& name, const std::string& help,
                     Kind kind, Labels&& labels);

  mutable std::mutex mu_;
  std::vector<Row> rows_;
  std::deque<Counter> counters_;      // deque: stable addresses
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

/// The process-wide registry carrying the SHE-internals instrumentation.
[[nodiscard]] Registry& default_registry();

}  // namespace she::obs
