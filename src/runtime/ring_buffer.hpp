// SpscRing — bounded lock-free single-producer/single-consumer queue.
//
// The ingest runtime gives every shard one ring.  Producers take turns
// under the shard's commit-lane mutex, so the ring has one writer at a
// time and one reader and needs no CAS loops: the producer publishes
// slots with a release store of `tail_`, the consumer acquires it, and
// both sides keep a cached copy of the opposite index so the common case
// touches only one shared cache line.  Indices are free-running 64-bit
// counters (never wrapped), which makes full/empty tests simple
// subtractions and sidesteps the classic "one slot wasted" scheme.  Head
// and tail live on separate cache lines to avoid false sharing between
// the two threads.
//
// Besides push_n, a producer can fill free slots in place: stage(n) hands
// out the next n free slots as one or two runs (two when they wrap past
// the end of the slot array) without making them visible, and publish(n)
// releases them to the consumer.  The WAL commit lane logs a sub-batch
// straight from those runs and publishes only once the append succeeded;
// staged slots that are never published are simply staged over next time.
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

  /// Producer side.  Returns false when the ring is full.
  bool try_push(std::uint64_t v) {
    return push_n(1, [v] { return v; }) == 1;
  }

  /// Producer side: append up to `max` items, taken in order from
  /// `next()`, and publish them with one release store.  Returns how many
  /// fit (0 when the ring is full); `next` is called exactly that often.
  template <typename Next>
  std::size_t push_n(std::size_t max, Next&& next) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (capacity() - (tail - cached_head_) < max)
      cached_head_ = head_.load(std::memory_order_acquire);
    const std::size_t room =
        static_cast<std::size_t>(capacity() - (tail - cached_head_));
    const std::size_t n = room < max ? room : max;
    for (std::size_t i = 0; i < n; ++i) slots_[(tail + i) & mask_] = next();
    if (n > 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// The next free slots in ring order: `first` up to the end of the slot
  /// array, then `second` from its start (empty unless the run wraps).
  struct Runs {
    std::span<std::uint64_t> first;
    std::span<std::uint64_t> second;
  };

  /// Producer side: the next `n` free slots, for the caller to fill before
  /// publish(n) makes them visible; both runs are empty when fewer than
  /// `n` slots are free.  Staging changes nothing the consumer sees, so
  /// an unpublished stage is simply overwritten by the next one.
  Runs stage(std::size_t n) {
    // Refresh the cached head here, not only when push_n runs short: a
    // publish moves the tail on without looking at it, and push_n's room
    // is computed from the cache.
    cached_head_ = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (capacity() - (tail - cached_head_) < n) return {};
    const std::size_t at = static_cast<std::size_t>(tail & mask_);
    const std::size_t first = std::min(n, capacity() - at);
    return {std::span<std::uint64_t>(slots_.data() + at, first),
            std::span<std::uint64_t>(slots_.data(), n - first)};
  }

  /// Producer side: make the first `n` slots of the last stage() visible
  /// to the consumer, with one release store.
  void publish(std::size_t n) {
    tail_.store(tail_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
  }

  /// Consumer side.  Returns false when the ring is empty.
  bool try_pop(std::uint64_t& v) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    v = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: pop up to `max` items into `out`, preserving order.
  std::size_t drain(std::uint64_t* out, std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::uint64_t avail = cached_tail_ - head;
    if (avail == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = cached_tail_ - head;
      if (avail == 0) return 0;
    }
    const std::size_t n = avail < max ? static_cast<std::size_t>(avail) : max;
    for (std::size_t i = 0; i < n; ++i) out[i] = slots_[(head + i) & mask_];
    head_.store(head + n, std::memory_order_release);
    return n;
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
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};   // next pop
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};   // next push
  alignas(kCacheLine) std::uint64_t cached_head_ = 0;        // producer-owned
  alignas(kCacheLine) std::uint64_t cached_tail_ = 0;        // consumer-owned
};

}  // namespace she::runtime
