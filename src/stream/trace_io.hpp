// Trace file IO: persist generated traces so experiment runs can share the
// exact same input (or import externally-converted traces — any sequence of
// 64-bit keys).  Format: "SHTR" magic, version byte, u64 count, u64 keys,
// all little-endian.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "stream/trace.hpp"

namespace she::stream {

/// Append `trace`'s bytes to `out` / write them to a file.  The file
/// variant throws std::runtime_error on IO failure.
void save_trace(std::vector<char>& out, const Trace& trace);
void save_trace_file(const std::string& path, const Trace& trace);

/// Decode a trace from `bytes` / read a whole file and decode it.  Throws
/// std::runtime_error on bad magic, version or truncation, or when the file
/// cannot be read.
Trace load_trace(std::span<const char> bytes);
Trace load_trace_file(const std::string& path);

/// Import keys from a text stream: one token per line (surrounding blanks
/// ignored, empty lines and '#' comments skipped).  Decimal tokens become
/// their integer value; anything else is hashed to a 64-bit key, so flow
/// IDs like "10.0.0.1:443" work directly.
Trace load_text_keys(std::istream& is);
Trace load_text_keys_file(const std::string& path);

}  // namespace she::stream
