#include "common/bit_array.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace she {

BitArray::BitArray(std::size_t nbits)
    : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

void BitArray::clear() { std::fill(words_.begin(), words_.end(), 0); }

void BitArray::clear_range(std::size_t first, std::size_t count) {
  if (count == 0) return;
  if (first + count > nbits_) throw std::out_of_range("BitArray::clear_range");
  std::size_t last = first + count;  // exclusive
  std::size_t fw = first >> 6;
  std::size_t lw = (last - 1) >> 6;
  if (fw == lw) {
    std::uint64_t mask = ((count == 64) ? ~std::uint64_t{0}
                                        : ((std::uint64_t{1} << count) - 1))
                         << (first & 63);
    words_[fw] &= ~mask;
    return;
  }
  words_[fw] &= (std::uint64_t{1} << (first & 63)) - 1;
  for (std::size_t w = fw + 1; w < lw; ++w) words_[w] = 0;
  std::size_t tail = last & 63;
  if (tail == 0) {
    words_[lw] = 0;
  } else {
    words_[lw] &= ~((std::uint64_t{1} << tail) - 1);
  }
}

void BitArray::save(BinaryWriter& out) const {
  out.tag("BITV");
  out.u64(nbits_);
  out.u64_vector(words_);
}

BitArray BitArray::load(BinaryReader& in) {
  in.expect_tag("BITV");
  std::uint64_t nbits = in.u64();
  // Read (and length-check) the words before sizing anything from `nbits`.
  auto words = in.u64_vector();
  if (words.size() != nbits / 64 + (nbits % 64 != 0 ? 1 : 0))
    throw SerializeError("BitArray::load: word count mismatch");
  BitArray a(nbits);
  a.words_ = std::move(words);
  return a;
}

BitArray& BitArray::operator|=(const BitArray& other) {
  if (nbits_ != other.nbits_)
    throw std::invalid_argument("BitArray::operator|=: size mismatch");
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  return *this;
}

BitArray& BitArray::operator&=(const BitArray& other) {
  if (nbits_ != other.nbits_)
    throw std::invalid_argument("BitArray::operator&=: size mismatch");
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  return *this;
}

std::size_t BitArray::popcount() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

std::size_t BitArray::popcount_range(std::size_t first, std::size_t count) const {
  if (count == 0) return 0;
  if (first + count > nbits_) throw std::out_of_range("BitArray::popcount_range");
  std::size_t last = first + count;
  std::size_t fw = first >> 6;
  std::size_t lw = (last - 1) >> 6;
  auto masked = [&](std::size_t w, std::uint64_t mask) {
    return static_cast<std::size_t>(std::popcount(words_[w] & mask));
  };
  if (fw == lw) {
    std::uint64_t mask = ((count == 64) ? ~std::uint64_t{0}
                                        : ((std::uint64_t{1} << count) - 1))
                         << (first & 63);
    return masked(fw, mask);
  }
  std::size_t total = masked(fw, ~((std::uint64_t{1} << (first & 63)) - 1));
  for (std::size_t w = fw + 1; w < lw; ++w)
    total += static_cast<std::size_t>(std::popcount(words_[w]));
  std::size_t tail = last & 63;
  total += masked(lw, tail == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << tail) - 1));
  return total;
}

}  // namespace she
