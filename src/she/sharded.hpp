// Sharded — the sequential reference for key-space sharding.
//
// The FPGA pipeline processes one item per cycle; on CPUs the equivalent
// lever is key-space partitioning: route each key to one of S shards by an
// independent hash and give every shard its own estimator over a window of
// N/S items.  runtime::IngestPipeline feeds the shards from worker threads
// (bench/pipeline_throughput measures its scaling); Sharded<T> feeds them
// on the calling thread, and is the reference the runtime's tests compare
// against.  Because a shard only ever sees its own keys:
//
//   * membership / frequency queries go to the owning shard;
//   * cardinality adds across shards (distinct keys are partitioned);
//   * each shard's count-based window of N/S items approximates the global
//     last-N window — an item's shard-local depth is binomially distributed
//     around global_depth/S, so the window edge blurs by O(sqrt(N/S)) items
//     (quantified in the tests).  Deep-in-window items are still always
//     found: SHE-BF's no-false-negative property holds for any item whose
//     global depth is comfortably below N.
//
// insert_bulk() partitions a batch once and then feeds the shards in
// order; per-shard insertion order equals the arrival order, so the result
// is bit-identical to per-key routing (tested).
// Estimators exposing insert_batch() (every SHE estimator and
// StreamMonitor) get the hash-ahead + prefetch pipelined path per shard;
// anything else falls back to per-key insert().
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/bobhash.hpp"
#include "common/simd_hash.hpp"

namespace she {

/// Seed of the routing hash (independent of the estimators' families).
/// Sharded and runtime::IngestPipeline both route with it, so a key lands
/// on the same shard index in either.
inline constexpr std::uint64_t kRouteSeed = 0x5ead5eedULL;

template <typename Estimator>
class Sharded {
 public:
  /// `shards` estimators built by `factory(shard_index)`.
  Sharded(std::size_t shards,
          const std::function<Estimator(std::size_t)>& factory) {
    if (shards == 0) throw std::invalid_argument("Sharded: shards must be > 0");
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) shards_.push_back(factory(s));
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Owning shard of a key.
  [[nodiscard]] std::size_t shard_of(std::uint64_t key) const {
    return static_cast<std::size_t>(hash64(key, kRouteSeed) % shards_.size());
  }

  /// Route one item to its shard.
  void insert(std::uint64_t key) { shards_[shard_of(key)].insert(key); }

  /// Partition `keys` by shard, then feed each shard its partition.
  /// Final state is identical to calling insert() over `keys` in order.
  void insert_bulk(std::span<const std::uint64_t> keys);

  /// Owning-shard access for queries, e.g.
  /// `sharded.owner(key).contains(key)`.
  [[nodiscard]] Estimator& owner(std::uint64_t key) { return shards_[shard_of(key)]; }
  [[nodiscard]] const Estimator& owner(std::uint64_t key) const {
    return shards_[shard_of(key)];
  }

  [[nodiscard]] Estimator& shard(std::size_t s) { return shards_[s]; }
  [[nodiscard]] const Estimator& shard(std::size_t s) const { return shards_[s]; }

  /// Total payload memory across shards.
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t total = 0;
    for (const auto& s : shards_) total += s.memory_bytes();
    return total;
  }

 private:
  std::vector<Estimator> shards_;
};

/// Feed one shard its partition: the pipelined batch path when the
/// estimator has one (same final state as the scalar loop, tested), the
/// per-key loop otherwise.
template <typename Estimator>
void feed_shard(Estimator& est, std::span<const std::uint64_t> part) {
  if constexpr (requires { est.insert_batch(part); }) {
    est.insert_batch(part);
  } else {
    for (std::uint64_t key : part) est.insert(key);
  }
}

template <typename Estimator>
void Sharded<Estimator>::insert_bulk(std::span<const std::uint64_t> keys) {
  const std::size_t n_shards = shards_.size();
  // Partition pass: per-shard key lists in arrival order.  The routing
  // hashes run through the lane-parallel hash64 kernel a chunk at a time
  // (identical values to the scalar hash64, so identical routing).
  std::vector<std::vector<std::uint64_t>> parts(n_shards);
  for (auto& p : parts) p.reserve(keys.size() / n_shards + 16);
  constexpr std::size_t kChunk = 256;
  std::uint64_t h[kChunk];
  for (std::size_t c0 = 0; c0 < keys.size(); c0 += kChunk) {
    const std::size_t n = std::min(kChunk, keys.size() - c0);
    simd::hash64_keys(keys.data() + c0, n, kRouteSeed, h);
    for (std::size_t j = 0; j < n; ++j)
      parts[static_cast<std::size_t>(h[j] % n_shards)].push_back(keys[c0 + j]);
  }
  for (std::size_t s = 0; s < n_shards; ++s)
    feed_shard(shards_[s], std::span<const std::uint64_t>(parts[s]));
}

/// Membership across shards (SHE-BF semantics preserved per shard).
template <typename E>
[[nodiscard]] bool sharded_contains(const Sharded<E>& s, std::uint64_t key) {
  return s.owner(key).contains(key);
}

/// Frequency across shards.
template <typename E>
[[nodiscard]] std::uint64_t sharded_frequency(const Sharded<E>& s,
                                              std::uint64_t key) {
  return s.owner(key).frequency(key);
}

/// Cardinality across shards: distinct keys are partitioned, so estimates
/// add.
template <typename E>
[[nodiscard]] double sharded_cardinality(const Sharded<E>& s) {
  double total = 0;
  for (std::size_t i = 0; i < s.shard_count(); ++i)
    total += s.shard(i).cardinality();
  return total;
}

}  // namespace she
