// Copy-on-write paged array: the cell storage behind the SHE estimators'
// stores (she/csm.hpp).
//
// Elements live in fixed 4 KiB frames drawn from one process-wide pool.
// Copying a PagedArray copies its page table and shares every frame, so a
// published estimator view costs a table of pointers, not the cells.
//
// Ownership is explicit.  A freshly built array owns all of its frames.  A
// copy leaves every frame shared in *both* objects: the copy owns nothing,
// and the source's ownership marks are cleared.  A writer calls own() (or
// own_range()) before writing an element; the first write to a shared
// frame clones it, and later writes to the clone go straight through.  A
// frame's reference count only decides when it goes back to the pool; it is
// never read to decide ownership, because a reader that has just dropped
// its last reference would have no happens-before edge to the writer.
//
// Copying a const array writes its ownership marks only when it owns a
// frame.  A copy owns nothing, so concurrent copies of a published view
// (itself a copy) are pure reads; copying an owning array is a write, as
// any other mutation of it is.
//
// Frames are recycled through a pool that takes frames back from any
// thread.  Frames allocated with plain operator new would be freed by
// whichever reader drops the last view, and glibc keeps such memory in the
// arena of the thread that first allocated it, so the resident set grows
// instead of being reused.
//
// The pool gives cold frames back to the kernel.  frames::trim() releases
// (madvise(MADV_DONTNEED)) every frame that stayed free since the previous
// trim; a released frame keeps its place in the pool and is handed out
// again, zero-filled by the kernel, once no resident free frame is left.
// Nothing on the acquire, recycle or clone path makes a syscall: a
// long-running process calls trim() from a housekeeping thread (she_server
// does, about once per second).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace she {

namespace frames {

/// Bytes of storage in one frame.
inline constexpr std::size_t kBytes = 4096;

/// A frame's control block: its reference count and its storage.
struct Frame {
  std::atomic<std::uint32_t> refs{0};
  std::byte* bytes = nullptr;  // kBytes, 4 KiB aligned
};

/// A frame holding one reference; its bytes are unspecified.  Throws
/// std::bad_alloc when the pool cannot grow.
[[nodiscard]] Frame* acquire();

/// Return a frame whose last reference was dropped to the pool.
void recycle(Frame* f);

/// Drop one reference to `f`, from any thread; the last one recycles it.
inline void release(Frame* f) {
  if (f->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) recycle(f);
}

/// Release to the kernel every frame that stayed free since the previous
/// call; returns how many.  Does nothing where a page is not 4 KiB.
std::size_t trim();

/// Frames the pool has carved so far, how many are free and resident, and
/// how many are free and released; the rest are in use.
struct PoolStats {
  std::size_t frames = 0;
  std::size_t free = 0;
  std::size_t released = 0;
};
[[nodiscard]] PoolStats pool_stats();

}  // namespace frames

template <typename T>
class PagedArray {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::has_single_bit(sizeof(T)) && sizeof(T) <= frames::kBytes);

 public:
  /// Elements per frame, and the shift and mask that split an index.
  static constexpr std::size_t kPerFrame = frames::kBytes / sizeof(T);
  static constexpr unsigned kShift = std::countr_zero(kPerFrame);
  static constexpr std::size_t kMask = kPerFrame - 1;

  PagedArray() = default;

  /// `n` elements, all `fill`, in frames this array owns.
  PagedArray(std::size_t n, T fill) : size_(n) {
    const std::size_t np = (n + kMask) >> kShift;
    data_.reserve(np);
    frames_.reserve(np);
    try {
      for (std::size_t p = 0; p < np; ++p) {
        frames_.push_back(frames::acquire());
        data_.push_back(reinterpret_cast<T*>(frames_.back()->bytes));
        std::fill_n(data_.back(), kPerFrame, fill);
      }
    } catch (...) {
      drop();
      throw;
    }
    owned_.assign(np, 1);
    owned_count_ = np;
  }

  PagedArray(const PagedArray& o)
      : size_(o.size_),
        data_(o.data_),
        frames_(o.frames_),
        owned_(o.frames_.size(), 0) {
    for (frames::Frame* f : frames_)
      f->refs.fetch_add(1, std::memory_order_relaxed);
    o.share();
  }

  PagedArray(PagedArray&& o) noexcept { steal(o); }

  PagedArray& operator=(const PagedArray& o) {
    if (this != &o) *this = PagedArray(o);
    return *this;
  }

  PagedArray& operator=(PagedArray&& o) noexcept {
    if (this != &o) {
      drop();
      steal(o);
    }
    return *this;
  }

  ~PagedArray() { drop(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t pages() const { return data_.size(); }

  [[nodiscard]] T get(std::size_t i) const {
    return data_[i >> kShift][i & kMask];
  }

  /// Element `i` for writing.  Its frame must be owned: call own() first.
  [[nodiscard]] T& at(std::size_t i) {
    assert(owned_[i >> kShift] != 0);
    return data_[i >> kShift][i & kMask];
  }

  /// Address of element `i`, for prefetch hints.
  [[nodiscard]] const T* addr(std::size_t i) const {
    return data_[i >> kShift] + (i & kMask);
  }

  /// Make element `i`'s frame writable, cloning it if it is shared.
  void own(std::size_t i) {
    const std::size_t p = i >> kShift;
    if (owned_[p] == 0) clone(p);
  }

  /// own() for every element in [first, first + count).
  void own_range(std::size_t first, std::size_t count) {
    if (count == 0) return;
    for (std::size_t p = first >> kShift; p <= (first + count - 1) >> kShift;
         ++p)
      if (owned_[p] == 0) clone(p);
  }

  /// Whether every frame is owned (no own() call would clone).
  [[nodiscard]] bool owns_all() const { return owned_count_ == data_.size(); }

  /// own() for every element.
  void own_all() {
    if (!owns_all()) own_range(0, size_);
  }

  /// Set [first, first + count) to `v`.
  void fill(std::size_t first, std::size_t count, T v) {
    own_range(first, count);
    while (count > 0) {
      const std::size_t off = first & kMask;
      const std::size_t n = std::min(count, kPerFrame - off);
      std::fill_n(data_[first >> kShift] + off, n, v);
      first += n;
      count -= n;
    }
  }

  /// The elements of page `p` (the last page may be partial).
  [[nodiscard]] std::span<const T> page(std::size_t p) const {
    return {data_[p], page_size(p)};
  }

  /// page(p) for writing; owns the frame first.
  [[nodiscard]] std::span<T> page_for_write(std::size_t p) {
    if (owned_[p] == 0) clone(p);
    return {data_[p], page_size(p)};
  }

 private:
  [[nodiscard]] std::size_t page_size(std::size_t p) const {
    return std::min(kPerFrame, size_ - (p << kShift));
  }

  /// Replace shared frame `p` with an owned copy of it.
  [[gnu::noinline]] void clone(std::size_t p) {
    frames::Frame* f = frames::acquire();
    std::memcpy(f->bytes, data_[p], frames::kBytes);
    frames::release(frames_[p]);
    frames_[p] = f;
    data_[p] = reinterpret_cast<T*>(f->bytes);
    owned_[p] = 1;
    ++owned_count_;
  }

  /// A copy was taken: every frame is now shared.
  void share() const {
    if (owned_count_ == 0) return;
    std::fill(owned_.begin(), owned_.end(), std::uint8_t{0});
    owned_count_ = 0;
  }

  void drop() {
    for (frames::Frame* f : frames_) frames::release(f);
    frames_.clear();
    data_.clear();
  }

  /// Take `o`'s frames, leaving it empty.
  void steal(PagedArray& o) noexcept {
    size_ = std::exchange(o.size_, 0);
    data_ = std::exchange(o.data_, {});
    frames_ = std::exchange(o.frames_, {});
    owned_ = std::exchange(o.owned_, {});
    owned_count_ = std::exchange(o.owned_count_, 0);
  }

  std::size_t size_ = 0;
  std::vector<T*> data_;  // frame contents: the only table reads touch
  std::vector<frames::Frame*> frames_;
  // 1 where this array is the frame's only holder and may write it.
  mutable std::vector<std::uint8_t> owned_;
  mutable std::size_t owned_count_ = 0;
};

}  // namespace she
