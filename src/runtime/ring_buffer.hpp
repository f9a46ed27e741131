// SpscRing — bounded lock-free single-producer/single-consumer queue whose
// slots are filled and applied where they lie.
//
// The ingest runtime gives every shard one ring.  Producers take turns
// under the shard's commit-lane mutex, so the ring has one writer at a
// time and one reader and needs no CAS loops.  Indices are free-running
// 64-bit counters (never wrapped), which makes full/empty tests simple
// subtractions and sidesteps the classic "one slot wasted" scheme.  Head
// and tail live on separate cache lines to avoid false sharing between
// the two threads.
//
// The ring has one way in and one way out, and neither copies a key:
//   * In: stage(n) hands the producer the next n free slots as one or two
//     runs (two when they wrap past the end of the slot array) without
//     making them visible; the producer fills them, and publish(n) hands
//     them to the consumer with one release store of `tail_`.  The WAL
//     commit lane logs a sub-batch straight from those runs and publishes
//     only once the append succeeded; staged slots that are never
//     published are simply staged over next time.
//   * Out: peek(max) hands the consumer up to `max` published keys, oldest
//     first, as one or two const runs, without freeing them; the consumer
//     applies them in place, and release(n) gives the slots back to the
//     producer with one release store of `head_`.  A key stays in the ring
//     until its slot is released, so a consumer that dies while applying
//     a block leaves that block for its successor.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace she::runtime {

/// Alignment that keeps producer- and consumer-owned state on distinct
/// cache lines (std::hardware_destructive_interference_size is still
/// patchy across toolchains; 64 covers x86 and common ARM parts).
inline constexpr std::size_t kCacheLine = 64;

class SpscRing {
 public:
  /// Largest accepted capacity: 2^26 slots, 512 MiB of keys per ring.
  /// The bound keeps the power-of-two round-up below from overflowing.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 26;

  /// Capacity is rounded up to the next power of two (minimum 1); above
  /// kMaxCapacity throws std::length_error.
  explicit SpscRing(std::size_t capacity) {
    if (capacity > kMaxCapacity)
      throw std::length_error("SpscRing: capacity above 2^26 slots");
    const std::size_t cap = std::bit_ceil(capacity);
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Consecutive slots in ring order: `first` up to the end of the slot
  /// array, then `second` from its start (empty unless the run wraps).
  template <typename T>
  struct Runs {
    std::span<T> first;
    std::span<T> second;
    [[nodiscard]] std::size_t size() const {
      return first.size() + second.size();
    }
  };

  /// Producer side: the next `n` free slots, for the caller to fill before
  /// publish(n) makes them visible; both runs are empty when fewer than
  /// `n` slots are free.  Staging changes nothing the consumer sees, so
  /// an unpublished stage is simply overwritten by the next one.
  Runs<std::uint64_t> stage(std::size_t n) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (capacity() - (tail - head_.load(std::memory_order_acquire)) < n)
      return {};
    const auto at = static_cast<std::size_t>(tail & mask_);
    const std::size_t first = std::min(n, capacity() - at);
    return {{slots_.data() + at, first}, {slots_.data(), n - first}};
  }

  /// Producer side: make the first `n` slots of the last stage() visible
  /// to the consumer, with one release store.
  void publish(std::size_t n) {
    tail_.store(tail_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
  }

  /// Consumer side: up to `max` published keys, oldest first, still in
  /// their slots (both runs empty when the ring is empty).  They stay
  /// valid, and in the ring, until release() frees them.
  Runs<const std::uint64_t> peek(std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (cached_tail_ - head < max)
      cached_tail_ = tail_.load(std::memory_order_acquire);
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(cached_tail_ - head, max));
    const auto at = static_cast<std::size_t>(head & mask_);
    const std::size_t first = std::min(n, capacity() - at);
    return {{slots_.data() + at, first}, {slots_.data(), n - first}};
  }

  /// Consumer side: free the oldest `n` peeked slots for the producer,
  /// with one release store.
  void release(std::size_t n) {
    head_.store(head_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
  }

  /// Approximate depth; exact when called by the consumer.
  [[nodiscard]] std::size_t size_approx() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

 private:
  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};   // next release
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};   // next publish
  alignas(kCacheLine) std::uint64_t cached_tail_ = 0;        // consumer-owned
};

}  // namespace she::runtime
