#include "stream/trace_io.hpp"

#include <fstream>
#include <stdexcept>

#include "common/bobhash.hpp"
#include "common/io.hpp"

namespace she::stream {

namespace {
constexpr std::uint8_t kVersion = 1;
}

void save_trace(std::vector<char>& out, const Trace& trace) {
  BinaryWriter w(out);
  w.tag("SHTR");
  w.u8(kVersion);
  w.u64_vector(trace);
}

void save_trace_file(const std::string& path, const Trace& trace) {
  std::vector<char> bytes;
  save_trace(bytes, trace);
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_trace_file: cannot open " + path);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("save_trace_file: cannot write " + path);
}

Trace load_trace(std::span<const char> bytes) {
  BinaryReader in(bytes);
  in.expect_tag("SHTR");
  std::uint8_t version = in.u8();
  if (version != kVersion)
    throw std::runtime_error("load_trace: unsupported version " +
                             std::to_string(version));
  return in.u64_vector();
}

Trace load_trace_file(const std::string& path) {
  std::vector<char> bytes;
  if (!read_file(path, bytes))
    throw std::runtime_error("load_trace_file: cannot open " + path);
  return load_trace(bytes);
}

Trace load_text_keys(std::istream& is) {
  Trace out;
  std::string line;
  while (std::getline(is, line)) {
    std::size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    std::size_t end = line.find_last_not_of(" \t\r");
    std::string token = line.substr(begin, end - begin + 1);
    if (token.empty() || token[0] == '#') continue;
    // Pure decimal tokens keep their numeric identity; everything else is
    // hashed (stable across runs: BOBHash over the bytes + a 64-bit mix).
    bool numeric = token.find_first_not_of("0123456789") == std::string::npos &&
                   token.size() <= 19;
    if (numeric) {
      out.push_back(std::stoull(token));
    } else {
      BobHash32 h1(0x7e57), h2(0x7e58);
      out.push_back((std::uint64_t{h1(token)} << 32) | h2(token));
    }
  }
  return out;
}

Trace load_text_keys_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_text_keys_file: cannot open " + path);
  return load_text_keys(is);
}

}  // namespace she::stream
