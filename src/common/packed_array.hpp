// Fixed-width packed counter array.
//
// HyperLogLog registers are 5 bits in the paper's setup ("store the numbers
// of leading 0 of these hash values in 5-bit cells"); TBF uses 18-bit
// wraparound counters.  PackedArray stores 2^many small counters at their
// true bit width so the memory budgets in the figures are honest, while
// keeping get/set O(1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/io.hpp"

namespace she {

class PackedArray {
 public:
  PackedArray() = default;

  /// `count` cells of `bits_per_cell` bits each (1..64), zero-initialized.
  PackedArray(std::size_t count, unsigned bits_per_cell);

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] unsigned cell_bits() const { return bits_; }

  /// Payload bytes (rounded up to whole 64-bit words).
  [[nodiscard]] std::size_t memory_bytes() const { return words_.size() * sizeof(std::uint64_t); }

  /// Largest storable value: 2^bits - 1.
  [[nodiscard]] std::uint64_t max_value() const { return mask_; }

  /// Hint the cache to fetch the line holding cell `i` (no-op semantics),
  /// mirroring BitArray::prefetch: batched inserts warm CM counters, HLL
  /// registers and GroupClock marks ahead of the apply stage.  `write`
  /// selects the exclusive-state hint; pass false on query paths.
  void prefetch(std::size_t i, bool write = true) const {
#if defined(__GNUC__) || defined(__clang__)
    if (write)
      __builtin_prefetch(&words_[(i * bits_) >> 6], 1, 1);
    else
      __builtin_prefetch(&words_[(i * bits_) >> 6], 0, 1);
#else
    (void)i;
    (void)write;
#endif
  }

  /// Read cell `i`.  Inline: the GroupClock mark probe sits on the insert
  /// hot path (one read per hashed cell), where an out-of-line call would
  /// cost more than the extraction itself.
  [[nodiscard]] std::uint64_t get(std::size_t i) const {
    if (i >= count_) throw std::out_of_range("PackedArray::get");
    std::size_t bitpos = i * bits_;
    std::size_t w = bitpos >> 6;
    unsigned off = bitpos & 63;
    std::uint64_t v = words_[w] >> off;
    if (off + bits_ > 64) v |= words_[w + 1] << (64 - off);
    return v & mask_;
  }

  /// Write cell `i`; `v` must fit in the cell width.
  void set(std::size_t i, std::uint64_t v) {
    if (i >= count_) throw std::out_of_range("PackedArray::set");
    v &= mask_;
    std::size_t bitpos = i * bits_;
    std::size_t w = bitpos >> 6;
    unsigned off = bitpos & 63;
    words_[w] = (words_[w] & ~(mask_ << off)) | (v << off);
    if (off + bits_ > 64) {
      unsigned spill = off + bits_ - 64;
      std::uint64_t spill_mask = (std::uint64_t{1} << spill) - 1;
      words_[w + 1] = (words_[w + 1] & ~spill_mask) | (v >> (bits_ - spill));
    }
  }

  /// Saturating increment of cell `i` by `delta` (clamps at max_value()).
  void add_saturating(std::size_t i, std::uint64_t delta = 1);

  /// Zero every cell.
  void clear();

  /// Zero cells [first, first+count).
  void clear_range(std::size_t first, std::size_t count);

  /// Set cells [first, first+count) to max_value(): one run of one bits,
  /// written a word at a time.
  void fill_max(std::size_t first, std::size_t count);

  /// Checkpoint to / restore from a binary stream.
  void save(BinaryWriter& out) const;
  static PackedArray load(BinaryReader& in);

 private:
  std::size_t count_ = 0;
  unsigned bits_ = 0;
  std::uint64_t mask_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace she
