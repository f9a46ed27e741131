// Doorbell — the one way the ingest runtime waits: spin briefly, then park.
// wait(ready, deadline) spin-yields while the bell was last used (a wait
// ended ready, or ring() woke a sleeper) less than kSpinNs ago, then sleeps
// until ring() or the deadline.  ring() is a fence and one load while
// nobody sleeps.  No wake-up is lost: a waiter registers as a sleeper,
// fences, re-checks ready() and sleeps, all under the mutex; a ringer
// changes what ready() reads, fences, then reads the sleeper count.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace she::runtime {

/// Steady-clock nanoseconds: the clock of every wait and request deadline.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Doorbell {
 public:
  /// Chosen on bench/e2e (4-vCPU VM), where waking a thread on a halted
  /// vCPU costs more than a request: near one point request (20–50 µs)
  /// point_ops lost 30–50 % of its query rate, up to 1 ms mixed_read_write
  /// (a frame every 16 ms) lost 40 %, and 20 ms matched the old spinning
  /// workers.  So a shard fed every 20 ms stays hot and a quiet one parks.
  static constexpr std::int64_t kSpinNs = 20'000'000;

  /// Wait until ready() or the steady-clock deadline_ns (0 = none);
  /// returns ready().
  template <typename Ready>
  bool wait(Ready&& ready, std::int64_t deadline_ns) {
    while (!ready()) {
      const std::int64_t now = now_ns();
      if (deadline_ns != 0 && now >= deadline_ns) return false;
      if (now < used_ns_.load(std::memory_order_relaxed) + kSpinNs) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lk(mu_);
      sleepers_.fetch_add(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!ready()) {
        if (deadline_ns == 0) cv_.wait(lk);
        else cv_.wait_until(lk, std::chrono::steady_clock::time_point(
                                    std::chrono::nanoseconds(deadline_ns)));
      }
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
    used_ns_.store(now_ns(), std::memory_order_relaxed);
    return true;
  }

  void ring() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_relaxed) == 0) return;
    used_ns_.store(now_ns(), std::memory_order_relaxed);
    { std::lock_guard<std::mutex> lk(mu_); }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<std::int64_t> used_ns_{0};  ///< the bell's last use
};

}  // namespace she::runtime
