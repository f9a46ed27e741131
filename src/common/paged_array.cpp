#include "common/paged_array.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <new>

namespace she::frames {

namespace {

/// Frames are carved from 256 KiB slabs mapped with mmap, which are never
/// unmapped: a frame returned to the pool is handed out again, and a
/// released frame is whole pages the pool owns.
constexpr std::size_t kSlabFrames = 64;

/// madvise works on whole pages, so frames go back to the kernel only when
/// a page is exactly one frame.
bool can_release() {
  static const bool ok = ::sysconf(_SC_PAGESIZE) == static_cast<long>(kBytes);
  return ok;
}

class Pool {
 public:
  Frame* acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty() && released_.empty()) grow();
    Frame* f = nullptr;
    if (!free_.empty()) {
      f = free_.back();
      free_.pop_back();
      low_water_ = std::min(low_water_, free_.size());
    } else {
      f = released_.back();
      released_.pop_back();
    }
    f->refs.store(1, std::memory_order_relaxed);
    return f;
  }

  void recycle(Frame* f) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(f);  // grow() reserved room for every frame
  }

  std::size_t trim() {
    if (!can_release()) return 0;
    std::vector<Frame*> cold;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // The bottom low_water_ entries of the LIFO stack were not popped
      // since the last trim.
      const auto end = free_.begin() + static_cast<std::ptrdiff_t>(low_water_);
      cold.assign(free_.begin(), end);
      free_.erase(free_.begin(), end);
      low_water_ = free_.size();
    }
    if (cold.empty()) return 0;
    // One madvise per run of adjacent frames, outside the lock.  A frame
    // madvise refused stays resident and goes back on the free stack.
    std::sort(cold.begin(), cold.end(),
              [](const Frame* a, const Frame* b) { return a->bytes < b->bytes; });
    std::vector<Frame*> released, kept;
    for (std::size_t i = 0; i < cold.size();) {
      std::size_t j = i + 1;
      while (j < cold.size() && cold[j]->bytes == cold[j - 1]->bytes + kBytes)
        ++j;
      std::vector<Frame*>& to =
          ::madvise(cold[i]->bytes, (j - i) * kBytes, MADV_DONTNEED) == 0
              ? released
              : kept;
      to.insert(to.end(), cold.begin() + static_cast<std::ptrdiff_t>(i),
                cold.begin() + static_cast<std::ptrdiff_t>(j));
      i = j;
    }
    std::lock_guard<std::mutex> lock(mu_);
    released_.insert(released_.end(), released.begin(), released.end());
    free_.insert(free_.end(), kept.begin(), kept.end());
    return released.size();
  }

  PoolStats stats() {
    std::lock_guard<std::mutex> lock(mu_);
    return {slabs_.size() * kSlabFrames, free_.size(), released_.size()};
  }

 private:
  void grow() {
    const std::size_t total = (slabs_.size() + 1) * kSlabFrames;
    free_.reserve(total);
    released_.reserve(total);
    slabs_.reserve(slabs_.size() + 1);
    auto frames = std::make_unique<Frame[]>(kSlabFrames);
    void* bytes = ::mmap(nullptr, kSlabFrames * kBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (bytes == MAP_FAILED) throw std::bad_alloc();
    for (std::size_t i = kSlabFrames; i-- > 0;) {
      frames[i].bytes = static_cast<std::byte*>(bytes) + i * kBytes;
      free_.push_back(&frames[i]);
    }
    slabs_.push_back(std::move(frames));
  }

  std::mutex mu_;
  // Resident free frames, a LIFO stack: the most recently recycled frame is
  // handed out first, so the bottom of the stack is the coldest.
  std::vector<Frame*> free_;
  // The fewest entries free_ held since the last trim().
  std::size_t low_water_ = 0;
  // Free frames whose pages went back to the kernel; used only once free_
  // is empty.
  std::vector<Frame*> released_;
  std::vector<std::unique_ptr<Frame[]>> slabs_;  // kSlabFrames frames each
};

// Never destroyed, so an estimator that outlives static destruction can
// still return its frames.
Pool& pool() {
  static Pool* p = new Pool;
  return *p;
}

}  // namespace

Frame* acquire() { return pool().acquire(); }

void recycle(Frame* f) { pool().recycle(f); }

std::size_t trim() { return pool().trim(); }

PoolStats pool_stats() { return pool().stats(); }

}  // namespace she::frames
