#include "common/paged_array.hpp"

#include <memory>
#include <mutex>
#include <new>

namespace she::frames {

namespace {

/// Frames are carved from 256 KiB slabs, which are never freed: a frame
/// returned to the pool is handed out again.
constexpr std::size_t kSlabFrames = 64;

class Pool {
 public:
  Frame* acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_ == nullptr) grow();
    Frame* f = free_;
    free_ = f->next_free;
    f->next_free = nullptr;
    --free_count_;
    f->refs.store(1, std::memory_order_relaxed);
    return f;
  }

  void recycle(Frame* f) {
    std::lock_guard<std::mutex> lock(mu_);
    f->next_free = free_;
    free_ = f;
    ++free_count_;
  }

  PoolStats stats() {
    std::lock_guard<std::mutex> lock(mu_);
    return {slabs_.size() * kSlabFrames, free_count_};
  }

 private:
  struct AlignedDelete {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t{kBytes});
    }
  };
  struct Slab {
    std::unique_ptr<std::byte[], AlignedDelete> bytes;  // kSlabFrames frames
    std::unique_ptr<Frame[]> frames;
  };

  void grow() {
    Slab slab;
    slab.bytes.reset(static_cast<std::byte*>(::operator new[](
        kSlabFrames * kBytes, std::align_val_t{kBytes})));
    slab.frames = std::make_unique<Frame[]>(kSlabFrames);
    slabs_.push_back(std::move(slab));
    const Slab& s = slabs_.back();
    for (std::size_t i = kSlabFrames; i-- > 0;) {
      Frame& f = s.frames[i];
      f.bytes = s.bytes.get() + i * kBytes;
      f.next_free = free_;
      free_ = &f;
    }
    free_count_ += kSlabFrames;
  }

  std::mutex mu_;
  Frame* free_ = nullptr;
  std::size_t free_count_ = 0;
  std::vector<Slab> slabs_;
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

PoolStats pool_stats() { return pool().stats(); }

}  // namespace she::frames
