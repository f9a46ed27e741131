#include "common/packed_array.hpp"

#include <algorithm>
#include <stdexcept>

namespace she {

PackedArray::PackedArray(std::size_t count, unsigned bits_per_cell)
    : count_(count),
      bits_(bits_per_cell),
      mask_(bits_per_cell >= 64 ? ~std::uint64_t{0}
                                : ((std::uint64_t{1} << bits_per_cell) - 1)),
      words_((count * bits_per_cell + 63) / 64, 0) {
  if (bits_per_cell == 0 || bits_per_cell > 64)
    throw std::invalid_argument("PackedArray: bits_per_cell must be in [1,64]");
}

void PackedArray::add_saturating(std::size_t i, std::uint64_t delta) {
  std::uint64_t v = get(i);
  std::uint64_t room = mask_ - v;
  set(i, v + std::min(delta, room));
}

void PackedArray::save(BinaryWriter& out) const {
  out.tag("PAKD");
  out.u64(count_);
  out.u32(bits_);
  out.u64_vector(words_);
}

PackedArray PackedArray::load(BinaryReader& in) {
  in.expect_tag("PAKD");
  std::uint64_t count = in.u64();
  unsigned bits = in.u32();
  if (bits == 0 || bits > 64)
    throw SerializeError("PackedArray::load: cell width out of range");
  // Read (and length-check) the words before sizing anything from `count`.
  auto words = in.u64_vector();
  if (words.size() != count / 64 * bits + (count % 64 * bits + 63) / 64)
    throw SerializeError("PackedArray::load: word count mismatch");
  PackedArray a(count, bits);
  a.words_ = std::move(words);
  return a;
}

void PackedArray::clear() { std::fill(words_.begin(), words_.end(), 0); }

void PackedArray::clear_range(std::size_t first, std::size_t count) {
  if (first + count > count_) throw std::out_of_range("PackedArray::clear_range");
  for (std::size_t i = first; i < first + count; ++i) set(i, 0);
}

void PackedArray::fill_max(std::size_t first, std::size_t count) {
  if (first + count > count_) throw std::out_of_range("PackedArray::fill_max");
  const std::size_t end = (first + count) * bits_;
  for (std::size_t bit = first * bits_; bit < end;) {
    const unsigned off = bit & 63;
    const std::size_t n = std::min<std::size_t>(64 - off, end - bit);
    const std::uint64_t run = n == 64 ? ~std::uint64_t{0}
                                      : ((std::uint64_t{1} << n) - 1) << off;
    words_[bit >> 6] |= run;
    bit += n;
  }
}

}  // namespace she
