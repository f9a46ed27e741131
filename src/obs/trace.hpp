// Low-overhead request tracing — spans across server ops, pipeline drains
// and batched estimator inserts.
//
// Design:
//
//   SpanRing   fixed-capacity per-thread ring of completed spans,
//              overwrite-oldest.  Exactly one writer (the owning thread);
//              readers (the /trace exporter, the slow-request log) copy
//              slots guarded by a per-slot version counter and discard
//              torn reads, so recording never takes a lock and never
//              waits on a scrape.
//   Clock      timestamps are raw TSC ticks on x86-64 (one rdtsc per span
//              edge), calibrated once against steady_clock at first use;
//              other targets fall back to steady_clock nanoseconds with
//              ticks == ns.
//   Context    a thread-local trace id (0 = untraced) tags every span the
//              thread records; TraceIdScope sets/restores it RAII-style.
//              Pipelines hand the id across the push → drain thread hop
//              via a per-shard atomic (see ingest_pipeline.cpp).
//
// When tracing is off (the default), SHE_TRACE_SPAN costs one relaxed
// load and a predictable branch; nothing is written anywhere.
//
// Rings outlive their threads: a thread's ring returns to a free list on
// thread exit and is recycled by the next new thread, so a scrape can
// still export spans from short-lived connection handlers and the ring
// count is bounded by the peak live-thread count, not thread churn.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace she::obs::trace {

// ---------------------------------------------------------------- toggle --

namespace detail {
extern std::atomic<bool> g_enabled;
// constinit: direct TLS access, not GCC's TLS wrapper (whose result
// UBSan's null check rejects on writes).
extern constinit thread_local bool t_suppress;
}  // namespace detail

/// Is span collection on?  SHE_TRACE_SPAN checks this first; when false
/// the macro is a single predictable branch.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Is this thread inside a SuppressScope (an unsampled request)?  Only
/// consulted after enabled() passes, so the tracing-off fast path stays
/// one relaxed load + branch.
[[nodiscard]] inline bool suppressed() noexcept { return detail::t_suppress; }

/// Flip span collection (any thread, any time).  Spans already recorded
/// stay in their rings until overwritten or reset().
void set_enabled(bool on) noexcept;

/// RAII: hide the calling thread's spans while in scope.  The server's
/// 1-in-N request sampler wraps unsampled requests in one of these; every
/// SHE_TRACE_SPAN below (dispatch, pipeline push, estimator batch) then
/// records nothing, at the cost of one thread-local read per span start.
class SuppressScope {
 public:
  SuppressScope() noexcept : prev_(detail::t_suppress) {
    detail::t_suppress = true;
  }
  ~SuppressScope() { detail::t_suppress = prev_; }
  SuppressScope(const SuppressScope&) = delete;
  SuppressScope& operator=(const SuppressScope&) = delete;

 private:
  bool prev_;
};

// ----------------------------------------------------------------- clock --

/// Raw timestamp: TSC ticks on x86-64, steady_clock ns elsewhere.
[[nodiscard]] std::uint64_t now_ticks() noexcept;

/// Nanoseconds represented by `ticks` raw units (calibrated once, at the
/// first call into the trace clock).
[[nodiscard]] std::uint64_t ticks_to_ns(std::uint64_t ticks) noexcept;

/// steady_clock nanoseconds corresponding to raw timestamp `tick` — maps
/// span edges onto the same clock the rest of the runtime uses.
[[nodiscard]] std::int64_t tick_to_steady_ns(std::uint64_t tick) noexcept;

// ----------------------------------------------------------------- spans --

/// One completed span.  `name` and `cat` must be string literals (or
/// otherwise immortal): the ring stores the pointers, not copies.
struct Span {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t start_ticks = 0;
  std::uint64_t end_ticks = 0;
  std::uint64_t trace_id = 0;  ///< 0 = not part of a traced request
};

/// A span copied out of a ring, timestamps resolved to steady-clock ns.
struct CollectedSpan {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t start_ns = 0;  ///< steady_clock ns
  std::uint64_t dur_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint32_t tid = 0;  ///< stable small id of the recording thread
};

/// Spans retained per thread.  4096 × 64-byte slots = 256 KiB per ring;
/// at ~10 spans per request that is the last ~400 requests of history,
/// which comfortably covers the /trace?ms=500 window under load.
inline constexpr std::size_t kRingCapacity = 4096;

namespace detail {

class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity_pow2, std::uint32_t tid);

  /// Writer-only (owning thread).  Lock-free: bump the slot version to
  /// odd, write the payload, bump to even.
  void record(const Span& s) noexcept;

  /// Copy out up to `capacity` most-recent spans, skipping slots that are
  /// mid-write.  Safe from any thread.
  void collect(std::vector<CollectedSpan>& out) const;

  /// Spans ever recorded by this ring (monotone; readers diff it to size
  /// a `spans_since` window).
  [[nodiscard]] std::uint64_t head() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Hide retained spans from future collects without touching the slots
  /// (the owning thread may be mid-record).
  void clear() noexcept;

  /// Owner-thread read of one slot (no tearing possible: caller is the
  /// writer).  `seq` is an absolute sequence number < head().
  [[nodiscard]] Span slot_unsynchronized(std::uint64_t seq) const noexcept;

 private:
  // Payload fields are relaxed atomics so a torn cross-thread read yields
  // stale *values* the version check discards — the classic seqlock made
  // well-defined under the C++ memory model, and clean under tsan.
  struct Slot {
    std::atomic<std::uint32_t> ver{0};  ///< odd while the writer is in it
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> cat{nullptr};
    std::atomic<std::uint64_t> start{0};
    std::atomic<std::uint64_t> end{0};
    std::atomic<std::uint64_t> trace{0};
  };
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> floor_{0};  ///< collects ignore seq < floor
  std::uint32_t tid_;
  std::vector<Slot> slots_;
};

/// The calling thread's ring, creating/recycling one on first use.
[[nodiscard]] SpanRing& thread_ring();

}  // namespace detail

/// Record a completed span on the calling thread's ring.  No-op unless
/// enabled().  `name`/`cat` must be immortal (string literals).
void record(const char* name, const char* cat, std::uint64_t start_ticks,
            std::uint64_t end_ticks, std::uint64_t trace_id) noexcept;

// --------------------------------------------------------------- context --

/// The calling thread's current trace id (0 = untraced).
[[nodiscard]] std::uint64_t current_trace_id() noexcept;
void set_current_trace_id(std::uint64_t id) noexcept;

/// RAII set/restore of the thread's trace id.
class TraceIdScope {
 public:
  explicit TraceIdScope(std::uint64_t id) noexcept
      : prev_(current_trace_id()) {
    set_current_trace_id(id);
  }
  ~TraceIdScope() { set_current_trace_id(prev_); }
  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// RAII span: captures start on construction, records on destruction.
/// Use through SHE_TRACE_SPAN so disabled builds stay one branch.
class SpanGuard {
 public:
  SpanGuard(const char* name, const char* cat) noexcept {
    if (enabled() && !suppressed()) {
      name_ = name;
      cat_ = cat;
      start_ = now_ticks();
    }
  }
  ~SpanGuard() {
    if (name_ != nullptr) finish();
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  void finish() noexcept;  // out-of-line: keeps the inline path tiny

  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t start_ = 0;
};

#define SHE_TRACE_CONCAT2(a, b) a##b
#define SHE_TRACE_CONCAT(a, b) SHE_TRACE_CONCAT2(a, b)

/// Trace the enclosing scope as a span.  `name` and `cat` must be string
/// literals.  Compiles to one relaxed load + branch when tracing is off.
#define SHE_TRACE_SPAN(name, cat)                                      \
  ::she::obs::trace::SpanGuard SHE_TRACE_CONCAT(she_trace_span_,       \
                                                __LINE__)((name), (cat))

// ------------------------------------------------------------ collection --

/// Copy retained spans out of every ring (live and parked).  When
/// `window_ns` > 0, only spans whose *end* falls within the trailing
/// window are returned.  Sorted by start time.
[[nodiscard]] std::vector<CollectedSpan> collect(std::uint64_t window_ns = 0);

/// Drop every retained span (rings stay registered).  For tools/tests
/// that want a per-run baseline.
void reset();

/// Position marker into the calling thread's ring; see spans_since().
struct ThreadCursor {
  const detail::SpanRing* ring = nullptr;
  std::uint64_t head = 0;
};

/// Marks "now" on the calling thread's ring.  Cheap (no allocation once
/// the ring exists).
[[nodiscard]] ThreadCursor thread_cursor();

/// Spans the calling thread recorded since `cur` (oldest first).  Only
/// valid on the thread that made the cursor — that makes the reads
/// tear-free without touching the slot versions.  Used by the server's
/// slow-request log to attach a breakdown of the request it just timed.
[[nodiscard]] std::vector<CollectedSpan> spans_since(const ThreadCursor& cur);

// ---------------------------------------------------------------- export --

/// Write spans as Chrome trace-event JSON ("Trace Event Format", the
/// array-of-"X"-events flavour chrome://tracing and Perfetto load).
/// `ts`/`dur` are microseconds; `pid` is fixed at 1; `tid` is the ring's
/// stable thread id; nonzero trace ids land in args.trace_id.
void write_chrome_trace(std::ostream& os,
                        const std::vector<CollectedSpan>& spans);

/// collect(window_ns) + write_chrome_trace in one call.
void export_chrome_trace(std::ostream& os, std::uint64_t window_ns = 0);

}  // namespace she::obs::trace
