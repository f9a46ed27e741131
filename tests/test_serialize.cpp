// Serialization tests: checkpoint/restore round-trips must resume with
// *identical* answers, and corrupted streams must be rejected loudly.
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/bit_array.hpp"
#include "common/io.hpp"
#include "common/packed_array.hpp"
#include "she/she.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she {
namespace {

// Peak resident set size of this process in KiB (VmHWM; 0 without /proc).
std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  return 0;
}

// Restart the peak at the current resident set, where the kernel allows it.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

TEST(BinaryIo, PrimitivesRoundTrip) {
  std::vector<char> buf;
  BinaryWriter w(buf);
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  w.u64_vector({1, 2, 3});

  BinaryReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.u64_vector(), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(BinaryIo, TruncationThrows) {
  std::vector<char> buf;
  BinaryWriter w(buf);
  w.u32(7);
  BinaryReader r(buf);
  EXPECT_THROW((void)r.u64(), std::runtime_error);
}

TEST(BinaryIo, TagMismatchThrows) {
  std::vector<char> buf;
  BinaryWriter w(buf);
  w.tag("AAAA");
  BinaryReader r(buf);
  EXPECT_THROW(r.expect_tag("BBBB"), std::runtime_error);
}

TEST(BinaryIo, ImplausibleVectorLengthThrows) {
  std::vector<char> buf;
  BinaryWriter w(buf);
  w.u64(~std::uint64_t{0});  // absurd length header
  BinaryReader r(buf);
  EXPECT_THROW((void)r.u64_vector(), std::runtime_error);
}

TEST(BinaryIo, ShortStreamThrowsTypedSerializeError) {
  std::vector<char> buf;
  BinaryWriter w(buf);
  w.u32(7);
  BinaryReader r(buf);
  EXPECT_THROW((void)r.u64(), SerializeError);
}

TEST(BinaryIo, VectorLengthBoundedByRemainingStream) {
  // A plausible-looking length (1M elements) over a near-empty seekable
  // stream must be rejected *before* allocating, from the length check —
  // not by limping through a giant read.
  std::vector<char> buf;
  BinaryWriter w(buf);
  w.u64(1u << 20);
  w.u64(42);  // only one element actually present
  BinaryReader r(buf);
  EXPECT_THROW((void)r.u64_vector(), SerializeError);
}

TEST(BinaryIo, ExactLengthVectorStillLoads) {
  std::vector<char> buf;
  BinaryWriter w(buf);
  w.u64_vector({5, 6, 7, 8});
  BinaryReader r(buf);
  EXPECT_EQ(r.u64_vector(), (std::vector<std::uint64_t>{5, 6, 7, 8}));
}

TEST(Serialize, BitArrayRoundTrip) {
  BitArray a(1000);
  for (std::size_t i = 0; i < 1000; i += 3) a.set(i);
  std::vector<char> buf;
  BinaryWriter w(buf);
  a.save(w);
  BinaryReader r(buf);
  BitArray b = BitArray::load(r);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < 1000; ++i) ASSERT_EQ(b.test(i), a.test(i));
}

TEST(Serialize, PackedArrayRoundTrip) {
  PackedArray a(333, 5);
  for (std::size_t i = 0; i < 333; ++i) a.set(i, i % 32);
  std::vector<char> buf;
  BinaryWriter w(buf);
  a.save(w);
  BinaryReader r(buf);
  PackedArray b = PackedArray::load(r);
  ASSERT_EQ(b.size(), a.size());
  ASSERT_EQ(b.cell_bits(), a.cell_bits());
  for (std::size_t i = 0; i < 333; ++i) ASSERT_EQ(b.get(i), a.get(i));
}

TEST(Serialize, WrongTypeTagRejected) {
  BitArray a(10);
  std::vector<char> buf;
  BinaryWriter w(buf);
  a.save(w);
  BinaryReader r(buf);
  EXPECT_THROW((void)PackedArray::load(r), std::runtime_error);
}

template <typename T, typename SaveFn, typename Equal>
void roundtrip_and_continue(T& original, SaveFn make_copy, Equal answers_equal,
                            const stream::Trace& more) {
  T copy = make_copy(original);
  ASSERT_TRUE(answers_equal(original, copy));
  // Both must evolve identically when the stream continues.
  for (auto k : more) {
    original.insert(k);
    copy.insert(k);
  }
  ASSERT_TRUE(answers_equal(original, copy));
}

TEST(Serialize, SheBloomResumesIdentically) {
  SheConfig cfg;
  cfg.window = 2048;
  cfg.cells = 1 << 14;
  cfg.group_cells = 64;
  cfg.alpha = 2.0;
  SheBloomFilter bf(cfg, 8);
  auto trace = stream::distinct_trace(3 * cfg.window, 3);
  for (auto k : trace) bf.insert(k);

  auto copy_of = [](const SheBloomFilter& x) {
    std::vector<char> buf;
    BinaryWriter w(buf);
    x.save(w);
    BinaryReader r(buf);
    return SheBloomFilter::load(r);
  };
  auto equal = [&](const SheBloomFilter& a, const SheBloomFilter& b) {
    if (a.time() != b.time()) return false;
    for (std::uint64_t p = 0; p < 2000; ++p) {
      std::uint64_t probe = hash64(p, 71);
      if (a.contains(probe) != b.contains(probe)) return false;
    }
    for (std::size_t i = trace.size() - 500; i < trace.size(); ++i)
      if (a.contains(trace[i]) != b.contains(trace[i])) return false;
    return true;
  };
  roundtrip_and_continue(bf, copy_of, equal, stream::distinct_trace(3000, 9));
}

TEST(Serialize, SheBitmapResumesIdentically) {
  SheConfig cfg;
  cfg.window = 2048;
  cfg.cells = 1 << 13;
  cfg.group_cells = 64;
  cfg.alpha = 0.2;
  SheBitmap bm(cfg);
  for (auto k : stream::distinct_trace(3 * cfg.window, 5)) bm.insert(k);

  auto copy_of = [](const SheBitmap& x) {
    std::vector<char> buf;
    BinaryWriter w(buf);
    x.save(w);
    BinaryReader r(buf);
    return SheBitmap::load(r);
  };
  auto equal = [](const SheBitmap& a, const SheBitmap& b) {
    return a.time() == b.time() && a.cardinality() == b.cardinality();
  };
  roundtrip_and_continue(bm, copy_of, equal, stream::distinct_trace(3000, 11));
}

TEST(Serialize, SheHllResumesIdentically) {
  SheConfig cfg;
  cfg.window = 2048;
  cfg.cells = 512;
  cfg.group_cells = 1;
  cfg.alpha = 0.2;
  SheHyperLogLog hll(cfg);
  for (auto k : stream::distinct_trace(3 * cfg.window, 7)) hll.insert(k);

  auto copy_of = [](const SheHyperLogLog& x) {
    std::vector<char> buf;
    BinaryWriter w(buf);
    x.save(w);
    BinaryReader r(buf);
    return SheHyperLogLog::load(r);
  };
  auto equal = [](const SheHyperLogLog& a, const SheHyperLogLog& b) {
    return a.time() == b.time() && a.cardinality() == b.cardinality();
  };
  roundtrip_and_continue(hll, copy_of, equal, stream::distinct_trace(3000, 13));
}

TEST(Serialize, SheCountMinResumesIdentically) {
  SheConfig cfg;
  cfg.window = 2048;
  cfg.cells = 1 << 13;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  SheCountMin cm(cfg, 8);
  auto trace = stream::distinct_trace(3 * cfg.window, 15);
  for (auto k : trace) cm.insert(k);

  auto copy_of = [](const SheCountMin& x) {
    std::vector<char> buf;
    BinaryWriter w(buf);
    x.save(w);
    BinaryReader r(buf);
    return SheCountMin::load(r);
  };
  auto equal = [&](const SheCountMin& a, const SheCountMin& b) {
    if (a.time() != b.time()) return false;
    for (std::size_t i = 0; i < trace.size(); i += 97)
      if (a.frequency(trace[i]) != b.frequency(trace[i])) return false;
    return true;
  };
  roundtrip_and_continue(cm, copy_of, equal, stream::distinct_trace(3000, 17));
}

TEST(Serialize, SheMinHashResumesIdentically) {
  SheConfig cfg;
  cfg.window = 1024;
  cfg.cells = 128;
  cfg.group_cells = 1;
  cfg.alpha = 0.2;
  SheMinHash a(cfg), b(cfg);
  auto pair = stream::relevant_pair(3 * cfg.window, 2 * cfg.window, 0.6, 0.8, 9);
  for (std::size_t i = 0; i < pair.a.size(); ++i) {
    a.insert(pair.a[i]);
    b.insert(pair.b[i]);
  }

  std::vector<char> buf;
  BinaryWriter w(buf);
  a.save(w);
  BinaryReader r(buf);
  SheMinHash a2 = SheMinHash::load(r);
  EXPECT_DOUBLE_EQ(SheMinHash::jaccard(a, b), SheMinHash::jaccard(a2, b));
}

// A SHE-BF image of 16 groups with 1-bit marks, and where its GCLK section
// sits: tag, tcycle, then the marks' PAKD tag, count, width, word vector.
struct ClockImage {
  std::string data;
  std::size_t tcycle_at = 0, count_at = 0, bits_at = 0, words_at = 0;
  std::uint64_t words = 0;

  ClockImage() {
    SheConfig cfg;
    cfg.window = 100;
    cfg.cells = 1024;
    cfg.group_cells = 64;
    cfg.alpha = 1.0;
    SheBloomFilter bf(cfg, 4);
    for (std::uint64_t k = 0; k < 300; ++k) bf.insert(k);
    std::vector<char> buf;
    BinaryWriter w(buf);
    bf.save(w);
    data = std::string(buf.begin(), buf.end());
    tcycle_at = data.find("GCLK") + 4;
    const std::size_t pakd = tcycle_at + 8;
    count_at = pakd + 4;
    bits_at = count_at + 8;
    words_at = bits_at + 4;  // the vector's length, then its words
    std::memcpy(&words, data.data() + words_at, sizeof words);
  }

  static void load(const std::string& bytes) {
    BinaryReader r(bytes);
    (void)SheBloomFilter::load(r);
  }
};

// A clock whose cycle is not the config's Tcycle is malformed: a cycle of 7
// or 2^62 does not load silently (tcycle * gid would wrap at 2^62), and a
// cycle of 0 fails as malformed input, not as std::invalid_argument.
TEST(Serialize, ClockTcycleCheckedAgainstConfig) {
  const ClockImage img;
  ASSERT_NO_THROW(ClockImage::load(img.data));
  for (const std::uint64_t tcycle :
       {std::uint64_t{7}, std::uint64_t{1} << 62, std::uint64_t{0}}) {
    SCOPED_TRACE(tcycle);
    std::string patched = img.data;
    put_le(patched.data() + img.tcycle_at, tcycle);
    EXPECT_THROW(ClockImage::load(patched), SerializeError);
  }
}

// A clock with more groups than the config is rejected before anything is
// sized from its mark count: 2 MiB of 1-bit marks would otherwise build a
// 16 M-group clock before the shape check.
TEST(Serialize, ClockGroupCountCheckedAgainstConfig) {
  const ClockImage img;
  constexpr std::uint64_t kWords = std::uint64_t{1} << 18;
  std::string patched = img.data.substr(0, img.count_at);
  patched.append(8 + 4 + 8, '\0');
  put_le(patched.data() + img.count_at, kWords * 64);
  put_le<std::uint32_t>(patched.data() + img.bits_at, 1);
  put_le(patched.data() + img.words_at, kWords);
  patched.append(kWords * 8, '\0');
  patched.append(img.data, img.words_at + 8 + img.words * 8);
  reset_peak_rss();
  const std::uint64_t before = peak_rss_kib();
  EXPECT_THROW(ClockImage::load(patched), SerializeError);
  EXPECT_LT(peak_rss_kib() - before, std::uint64_t{64} << 10);
}

// Marks wider than the config's mark_bits (same word count) are malformed.
TEST(Serialize, ClockMarkBitsCheckedAgainstConfig) {
  const ClockImage img;
  std::string patched = img.data;
  put_le<std::uint32_t>(patched.data() + img.bits_at, 2);
  EXPECT_THROW(ClockImage::load(patched), SerializeError);
}

TEST(Serialize, CorruptedEstimatorStreamRejected) {
  SheConfig cfg;
  cfg.window = 100;
  cfg.cells = 1024;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  SheBloomFilter bf(cfg, 4);
  std::vector<char> buf;
  BinaryWriter w(buf);
  bf.save(w);
  std::string data(buf.begin(), buf.end());
  // Truncate the payload.
  const std::string cut(data.substr(0, data.size() / 2));
  BinaryReader r(cut);
  EXPECT_THROW((void)SheBloomFilter::load(r), std::runtime_error);

  // A `cells` field the stream cannot hold is rejected as malformed before
  // anything is sized from it: no multi-gigabyte allocation first.
  const std::size_t cells_at = data.find("SCFG") + 4 + 8;  // tag, window
  for (const std::uint64_t cells :
       {std::uint64_t{1} << 33, std::uint64_t{1} << 40}) {
    SCOPED_TRACE(cells);
    std::string patched = data;
    put_le(patched.data() + cells_at, cells);
    reset_peak_rss();
    const std::uint64_t before = peak_rss_kib();
    BinaryReader pr(patched);
    EXPECT_THROW((void)SheBloomFilter::load(pr), SerializeError);
    EXPECT_LT(peak_rss_kib() - before, std::uint64_t{64} << 10);
  }

  // Config checks a load reaches fail as malformed input too, not as the
  // std::invalid_argument direct construction throws.
  const std::size_t window_at = data.find("SCFG") + 4;
  const std::size_t hashes_at = window_at + 6 * 8;  // window .. mark_bits
  for (const std::size_t at : {window_at, hashes_at}) {
    SCOPED_TRACE(at);
    std::string patched = data;
    if (at == window_at) {
      put_le<std::uint64_t>(patched.data() + at, 0);
    } else {
      put_le<std::uint32_t>(patched.data() + at, 0);
    }
    BinaryReader pr(patched);
    EXPECT_THROW((void)SheBloomFilter::load(pr), SerializeError);
  }

  // The same for a StreamMonitor image.
  {
    MonitorConfig mcfg;
    mcfg.window = 4096;
    mcfg.memory_bytes = 64 << 10;
    StreamMonitor mon(mcfg);
    for (auto k : stream::distinct_trace(3 * mcfg.window, 3)) mon.insert(k);
    std::vector<char> buf;
    BinaryWriter w(buf);
    mon.save(w);
    const std::string data(buf.begin(), buf.end());
    {
      BinaryReader r(data);
      EXPECT_EQ(StreamMonitor::load(r).time(), mon.time());
    }
    // Header: tag, window, memory_bytes, four task flags, expected
    // cardinality, heavy_hitter_slots.
    const std::size_t window_at = 4, memory_at = 12, hint_at = 24,
                      slots_at = 32;
    struct Patch {
      const char* what;
      std::size_t at;
      std::uint64_t value;
    };
    // A sizing field the stream does not back is rejected before anything
    // is built from it: no multi-terabyte allocation first.
    for (const Patch p :
         {Patch{"memory_bytes", memory_at, std::uint64_t{1} << 40},
          Patch{"heavy_hitter_slots", slots_at, std::uint64_t{1} << 40},
          Patch{"expected_cardinality", hint_at,
                std::bit_cast<std::uint64_t>(1e300)},
          Patch{"window", window_at, 0}}) {
      SCOPED_TRACE(p.what);
      std::string patched = data;
      put_le(patched.data() + p.at, p.value);
      reset_peak_rss();
      const std::uint64_t before = peak_rss_kib();
      BinaryReader pr(patched);
      EXPECT_THROW((void)StreamMonitor::load(pr), SerializeError);
      EXPECT_LT(peak_rss_kib() - before, std::uint64_t{64} << 10);
    }
    // A table wider than its budget over 16 bytes a slot still round-trips;
    // only more slots than budget bytes are refused.
    {
      MonitorConfig wide = mcfg;
      wide.heavy_hitter_slots = mcfg.memory_bytes / 8;
      StreamMonitor m(wide);
      for (auto k : stream::distinct_trace(mcfg.window, 4)) m.insert(k);
      std::vector<char> wide_buf;
      BinaryWriter ww(wide_buf);
      m.save(ww);
      BinaryReader wr(wide_buf);
      const StreamMonitor back = StreamMonitor::load(wr);
      EXPECT_EQ(back.config().heavy_hitter_slots, wide.heavy_hitter_slots);
      const auto top = back.report(5).top, want = m.report(5).top;
      ASSERT_EQ(top.size(), want.size());
      for (std::size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].key, want[i].key);
        EXPECT_EQ(top[i].estimate, want[i].estimate);
      }
    }
    // A saturated budget must not wrap plan()'s `* 8` round to a small
    // plan: a membership-only header claiming a 2^64-byte budget over a
    // 1024-cell filter is refused.
    {
      SheConfig c;
      c.window = mcfg.window;
      c.cells = 1024;
      c.group_cells = 64;
      std::vector<char> header_buf;
      BinaryWriter hw(header_buf);
      hw.tag("SMN2");
      hw.u64(mcfg.window);
      hw.u64(std::numeric_limits<std::uint64_t>::max());  // memory_bytes
      for (const std::uint8_t flag : {1, 0, 0, 0}) hw.u8(flag);
      hw.f64(0);   // expected cardinality
      hw.u64(64);  // heavy_hitter_slots
      hw.u32(0);   // seed
      hw.u8(0);    // track_similarity
      hw.u64(0);   // similarity_slots
      hw.u64(0);   // time
      SheBloomFilter(c, 8).save(hw);
      BinaryReader pr(header_buf);
      EXPECT_THROW((void)StreamMonitor::load(pr), SerializeError);
    }
    // The pre-similarity "SMON" layout is no longer read.
    std::string smon = data;
    smon.replace(0, 4, "SMON");
    BinaryReader pr(smon);
    EXPECT_THROW((void)StreamMonitor::load(pr), SerializeError);
  }
}

// Every proper prefix of `original`'s image fails to load with
// SerializeError (never another exception, never a load) without a large
// allocation first; the whole image loads to its last byte and saves back
// byte for byte.
template <typename T>
void expect_every_truncation_rejected(const T& original) {
  std::vector<char> image;
  BinaryWriter w(image);
  original.save(w);
  reset_peak_rss();
  const std::uint64_t before = peak_rss_kib();
  for (std::size_t n = 0; n < image.size(); ++n) {
    BinaryReader r(std::span<const char>(image.data(), n));
    try {
      (void)T::load(r);
      ADD_FAILURE() << "the " << n << "-byte prefix of a " << image.size()
                    << "-byte image loaded";
      return;
    } catch (const SerializeError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "the " << n << "-byte prefix of a " << image.size()
                    << "-byte image threw " << e.what();
      return;
    }
  }
  EXPECT_LT(peak_rss_kib() - before, std::uint64_t{64} << 10);
  BinaryReader r(image);
  const T back = T::load(r);
  EXPECT_EQ(r.remaining(), 0u);
  std::vector<char> again;
  BinaryWriter back_w(again);
  back.save(back_w);
  EXPECT_TRUE(again == image);
}

TEST(Serialize, EveryTruncationOfEveryImageIsRejected) {
  SheConfig cfg;
  cfg.window = 1024;
  cfg.cells = 1 << 12;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  const auto trace = stream::distinct_trace(3 * cfg.window, 21);
  const auto fill = [&](auto est) {
    for (const auto k : trace) est.insert(k);
    return est;
  };
  {
    SCOPED_TRACE("SHE-BF");
    expect_every_truncation_rejected(fill(SheBloomFilter(cfg, 4)));
  }
  {
    SCOPED_TRACE("SHE-BM");
    expect_every_truncation_rejected(fill(SheBitmap(cfg)));
  }
  {
    SCOPED_TRACE("SHE-CM");
    expect_every_truncation_rejected(fill(SheCountMin(cfg, 4)));
  }
  SheConfig per_cell = cfg;
  per_cell.cells = 256;
  per_cell.group_cells = 1;
  {
    SCOPED_TRACE("SHE-HLL");
    expect_every_truncation_rejected(fill(SheHyperLogLog(per_cell)));
  }
  {
    SCOPED_TRACE("SHE-MH");
    expect_every_truncation_rejected(fill(SheMinHash(per_cell)));
  }

  MonitorConfig bitmap;
  bitmap.window = cfg.window;
  bitmap.memory_bytes = 16 << 10;
  MonitorConfig hll = bitmap;
  hll.use_hll = true;
  MonitorConfig similarity = bitmap;
  similarity.track_similarity = true;
  for (const MonitorConfig& mcfg : {bitmap, hll, similarity}) {
    SCOPED_TRACE(mcfg.use_hll ? "StreamMonitor, HLL cardinality"
                 : mcfg.track_similarity ? "StreamMonitor, similarity"
                                         : "StreamMonitor, bitmap cardinality");
    expect_every_truncation_rejected(fill(StreamMonitor(mcfg)));
  }
}

}  // namespace
}  // namespace she
