// Trace file IO tests.
#include "stream/trace_io.hpp"

#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace she::stream {
namespace {

TEST(TraceIo, StreamRoundTrip) {
  Trace t = distinct_trace(10000, 3);
  std::vector<char> bytes;
  save_trace(bytes, t);
  Trace back = load_trace(bytes);
  EXPECT_EQ(back, t);
}

TEST(TraceIo, EmptyTraceRoundTrip) {
  std::vector<char> bytes;
  save_trace(bytes, {});
  EXPECT_TRUE(load_trace(bytes).empty());
}

TEST(TraceIo, BadMagicRejected) {
  const std::string bytes = "NOPE12345678";
  EXPECT_THROW((void)load_trace(bytes), std::runtime_error);
}

TEST(TraceIo, TruncationRejected) {
  Trace t = distinct_trace(100, 1);
  std::vector<char> bytes;
  save_trace(bytes, t);
  const std::span<const char> cut(bytes.data(), bytes.size() - 40);
  EXPECT_THROW((void)load_trace(cut), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  Trace t = zipf_trace({.length = 5000, .universe = 1000, .skew = 1.0, .seed = 9,
                        .key_offset = 0});
  std::string path = ::testing::TempDir() + "/she_trace_test.bin";
  save_trace_file(path, t);
  Trace back = load_trace_file(path);
  EXPECT_EQ(back, t);
  std::remove(path.c_str());
}

TEST(TextKeys, ParsesNumbersCommentsAndStrings) {
  std::stringstream ss;
  ss << "# flow log\n"
     << "42\n"
     << "   7   \n"
     << "\n"
     << "10.0.0.1:443\n"
     << "10.0.0.1:443\n"
     << "10.0.0.2:443\n";
  Trace t = load_text_keys(ss);
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[0], 42u);
  EXPECT_EQ(t[1], 7u);
  EXPECT_EQ(t[2], t[3]);  // identical strings -> identical keys
  EXPECT_NE(t[2], t[4]);
}

TEST(TextKeys, HugeDecimalFallsBackToHash) {
  std::stringstream ss;
  ss << "123456789012345678901234567890\n";  // > 19 digits: hash, don't stoull
  Trace t = load_text_keys(ss);
  ASSERT_EQ(t.size(), 1u);
}

TEST(TextKeys, EmptyInputGivesEmptyTrace) {
  std::stringstream ss;
  ss << "\n# only comments\n\n";
  EXPECT_TRUE(load_text_keys(ss).empty());
}

TEST(TextKeys, MissingFileThrows) {
  EXPECT_THROW((void)load_text_keys_file("/nonexistent/keys.txt"),
               std::runtime_error);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW((void)load_trace_file("/nonexistent/dir/trace.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace she::stream
