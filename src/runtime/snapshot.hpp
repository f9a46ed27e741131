// Estimator byte images: the save()/load() format checkpoints use.
//
// The ingest runtime publishes each shard as an immutable decoded estimator
// shared by every reader (IngestPipeline::view), so queries never decode
// anything.  These helpers turn an estimator into its byte image and back
// only where bytes are needed: the checkpoint writer serializes the
// published view into a frame, and resume deserializes a frame's payload.
#pragma once

#include <cstddef>
#include <istream>
#include <ostream>
#include <streambuf>
#include <vector>

#include "common/io.hpp"

namespace she::runtime {

namespace detail {

/// std::streambuf appending to a caller-owned byte vector.
class VectorSink final : public std::streambuf {
 public:
  explicit VectorSink(std::vector<char>& v) : v_(v) {}

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) v_.push_back(static_cast<char>(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    v_.insert(v_.end(), s, s + n);
    return n;
  }

 private:
  std::vector<char>& v_;
};

/// std::streambuf reading from a caller-owned byte range.  Seekable so
/// BinaryReader can bound length prefixes against the remaining bytes
/// (a corrupted prefix must fail fast, not allocate gigabytes).
class MemSource final : public std::streambuf {
 public:
  MemSource(const char* data, std::size_t n) {
    char* p = const_cast<char*>(data);
    setg(p, p, p + n);
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    if (!(which & std::ios_base::in)) return pos_type(off_type(-1));
    const off_type size = egptr() - eback();
    off_type target = off;
    if (dir == std::ios_base::cur) target += gptr() - eback();
    else if (dir == std::ios_base::end) target += size;
    if (target < 0 || target > size) return pos_type(off_type(-1));
    setg(eback(), eback() + target, egptr());
    return pos_type(target);
  }

  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekoff(off_type(pos), std::ios_base::beg, which);
  }
};

}  // namespace detail

/// Serialize `obj` (anything with save(BinaryWriter&)) into `out`,
/// reusing its capacity.
template <typename T>
void serialize_to(std::vector<char>& out, const T& obj) {
  out.clear();
  detail::VectorSink sink(out);
  std::ostream os(&sink);
  BinaryWriter w(os);
  obj.save(w);
}

/// Reconstruct a T (anything with static load(BinaryReader&)) from bytes.
template <typename T>
[[nodiscard]] T deserialize(const char* data, std::size_t n) {
  detail::MemSource src(data, n);
  std::istream is(&src);
  BinaryReader r(is);
  return T::load(r);
}

}  // namespace she::runtime
