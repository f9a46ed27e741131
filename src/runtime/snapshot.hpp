// Estimator byte images: the save()/load() format checkpoints use.
//
// The ingest runtime publishes each shard as an immutable decoded estimator
// shared by every reader (IngestPipeline::view), so queries never decode
// anything.  These helpers turn an estimator into its byte image and back
// only where bytes are needed: resume deserializes a frame's payload, and
// tests and benchmarks build whole images.  (The checkpoint writer builds
// no image: its frame borrows the view's cell pages, common/checkpoint.hpp.)
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/io.hpp"

namespace she::runtime {

/// Serialize `obj` (anything with save(BinaryWriter&)) into `out`,
/// reusing its capacity.
template <typename T>
void serialize_to(std::vector<char>& out, const T& obj) {
  out.clear();
  BinaryWriter w(out);
  obj.save(w);
}

/// Reconstruct a T (anything with static load(BinaryReader&)) from bytes.
template <typename T>
[[nodiscard]] T deserialize(const char* data, std::size_t n) {
  BinaryReader r(std::span<const char>(data, n));
  return T::load(r);
}

}  // namespace she::runtime
