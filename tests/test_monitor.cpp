// StreamMonitor façade tests.
#include "she/monitor.hpp"

#include <sstream>

#include "common/bobhash.hpp"
#include "stream/oracle.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she {
namespace {

MonitorConfig small_cfg() {
  MonitorConfig cfg;
  cfg.window = 4096;
  cfg.memory_bytes = 256 * 1024;
  return cfg;
}

TEST(Monitor, ConfigValidation) {
  MonitorConfig cfg = small_cfg();
  cfg.window = 0;
  EXPECT_THROW(StreamMonitor{cfg}, std::invalid_argument);

  cfg = small_cfg();
  cfg.memory_bytes = 100;
  EXPECT_THROW(StreamMonitor{cfg}, std::invalid_argument);

  cfg = small_cfg();
  cfg.track_membership = cfg.track_cardinality = cfg.track_frequency = false;
  EXPECT_THROW(StreamMonitor{cfg}, std::invalid_argument);

  cfg = small_cfg();
  cfg.heavy_hitter_slots = 0;
  EXPECT_THROW(StreamMonitor{cfg}, std::invalid_argument);
}

TEST(Monitor, DisabledTasksThrowOnQuery) {
  MonitorConfig cfg = small_cfg();
  cfg.track_membership = false;
  StreamMonitor mon(cfg);
  EXPECT_THROW((void)mon.seen(1), std::logic_error);

  MonitorConfig cfg2 = small_cfg();
  cfg2.track_frequency = false;
  StreamMonitor mon2(cfg2);
  EXPECT_THROW((void)mon2.frequency(1), std::logic_error);
}

TEST(Monitor, BudgetRoughlyRespected) {
  MonitorConfig cfg = small_cfg();
  StreamMonitor mon(cfg);
  EXPECT_LE(mon.memory_bytes(), cfg.memory_bytes + cfg.memory_bytes / 4);
  EXPECT_GE(mon.memory_bytes(), cfg.memory_bytes / 4);
}

TEST(Monitor, TracksAllThreeSignals) {
  MonitorConfig cfg = small_cfg();
  StreamMonitor mon(cfg);
  stream::WindowOracle oracle(cfg.window);

  stream::ZipfTraceConfig tc;
  tc.length = 4 * cfg.window;
  tc.universe = 2 * cfg.window;
  tc.skew = 1.1;
  tc.seed = 3;
  auto trace = stream::zipf_trace(tc);
  for (auto k : trace) {
    mon.insert(k);
    oracle.insert(k);
  }

  EXPECT_TRUE(mon.seen(trace.back()));
  auto rep = mon.report(5);
  EXPECT_EQ(rep.items, trace.size());
  ASSERT_TRUE(rep.cardinality.has_value());
  EXPECT_NEAR(*rep.cardinality, static_cast<double>(oracle.cardinality()),
              0.25 * static_cast<double>(oracle.cardinality()));
  ASSERT_EQ(rep.top.size(), 5u);
  // The top-1 key's reported estimate should be near its exact frequency.
  EXPECT_GE(rep.top[0].estimate + 5, oracle.frequency(rep.top[0].key));
}

TEST(Monitor, HllVariant) {
  MonitorConfig cfg = small_cfg();
  cfg.use_hll = true;
  cfg.window = 1 << 15;
  StreamMonitor mon(cfg);
  auto trace = stream::distinct_trace(3 * cfg.window, 5);
  for (auto k : trace) mon.insert(k);
  auto rep = mon.report(1);
  ASSERT_TRUE(rep.cardinality.has_value());
  EXPECT_NEAR(*rep.cardinality, static_cast<double>(cfg.window),
              0.3 * static_cast<double>(cfg.window));
}

TEST(Monitor, LoadRejectsCandidateCountAboveCapacity) {
  // A frequency-only monitor saved before any insert ends with its
  // heavy-hitter candidate count (0).  Patched to 2^40, load used to size
  // a vector from it and throw std::bad_alloc; the table never holds more
  // than its capacity, so the frame is malformed.
  MonitorConfig cfg = small_cfg();
  cfg.track_membership = false;
  cfg.track_cardinality = false;
  std::stringstream ss;
  BinaryWriter w(ss);
  StreamMonitor(cfg).save(w);
  std::string frame = ss.str();
  ASSERT_GE(frame.size(), 8u);
  frame.resize(frame.size() - 8);
  std::stringstream patched;
  patched << frame;
  BinaryWriter pw(patched);
  pw.u64(std::uint64_t{1} << 40);
  BinaryReader r(patched);
  EXPECT_THROW((void)StreamMonitor::load(r), SerializeError);
}

TEST(Monitor, CheckpointRoundTrip) {
  MonitorConfig cfg = small_cfg();
  StreamMonitor mon(cfg);
  auto trace = stream::distinct_trace(2 * cfg.window, 7);
  for (auto k : trace) mon.insert(k);

  std::stringstream ss;
  BinaryWriter w(ss);
  mon.save(w);
  BinaryReader r(ss);
  StreamMonitor back = StreamMonitor::load(r);

  EXPECT_EQ(back.time(), mon.time());
  // Membership answers identical.
  for (std::uint64_t p = 0; p < 1000; ++p) {
    std::uint64_t probe = hash64(p, 9);
    ASSERT_EQ(back.seen(probe), mon.seen(probe));
  }
  // Point frequencies identical (sketch roundtrips exactly).
  for (std::size_t i = trace.size() - 200; i < trace.size(); ++i)
    ASSERT_EQ(back.frequency(trace[i]), mon.frequency(trace[i]));
  // Heavy-hitter candidates travel with the checkpoint, so top-k answers
  // are identical immediately after restore (not only after a re-warm).
  {
    auto before = mon.report(5).top;
    auto after = back.report(5).top;
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(after[i].key, before[i].key);
      EXPECT_EQ(after[i].estimate, before[i].estimate);
    }
  }
  // Both continue identically.
  auto more = stream::distinct_trace(1000, 11);
  for (auto k : more) {
    mon.insert(k);
    back.insert(k);
  }
  EXPECT_EQ(back.report(1).items, mon.report(1).items);
}

std::string monitor_bytes(const StreamMonitor& mon) {
  std::stringstream ss;
  BinaryWriter w(ss);
  mon.save(w);
  return ss.str();
}

/// Save -> load -> short continuation, in lock-step with a copy that never
/// stopped: the two must serialize identically.  A restored monitor has to
/// resume the heavy-hitter refresh phase (a refresh every `capacity` keys,
/// counted from the start of the stream), not restart it at the load, or
/// the candidate tables drift apart until they reconverge.
TEST(Monitor, RestoredMonitorMatchesUninterruptedInLockStep) {
  stream::ZipfTraceConfig tc;
  tc.length = 503'009;
  tc.seed = 7;
  const auto trace = stream::zipf_trace(tc);
  const std::size_t cuts[] = {12345, 65537, 100003, 300001, 500009};
  const std::size_t tails[] = {7, 50, 300, 3000};

  StreamMonitor live{MonitorConfig{}};
  std::size_t fed = 0;
  for (std::size_t cut : cuts) {
    live.insert_batch(std::span<const std::uint64_t>(trace.data() + fed,
                                                     cut - fed));
    fed = cut;
    const std::string image = monitor_bytes(live);
    std::size_t prev = 0;
    StreamMonitor uninterrupted = live;
    std::stringstream ss(image);
    BinaryReader r(ss);
    StreamMonitor restored = StreamMonitor::load(r);
    for (std::size_t tail : tails) {
      const std::span<const std::uint64_t> more(trace.data() + cut + prev,
                                                tail - prev);
      uninterrupted.insert_batch(more);
      restored.insert_batch(more);
      prev = tail;
      EXPECT_TRUE(monitor_bytes(restored) == monitor_bytes(uninterrupted))
          << "cut " << cut << ", continuation " << tail;
    }
  }
}

/// On a stream of distinct keys every heavy-hitter candidate ties at the
/// same estimate, so each admission evicts one of many equal minima.  A
/// restored table iterates its hash map in a different order than the one
/// that grew key by key; eviction must not depend on that order, or the
/// resumed monitor's bytes drift from the uninterrupted one's.
TEST(Monitor, ResumedMonitorIsByteIdenticalOnTiedCandidates) {
  const MonitorConfig cfg = small_cfg();
  const auto trace = stream::distinct_trace(4 * cfg.window, 5);
  const std::size_t cut = trace.size() / 2 + 17;
  const std::span<const std::uint64_t> all(trace);

  StreamMonitor live(cfg);
  live.insert_batch(all.first(cut));
  std::stringstream ss(monitor_bytes(live));
  BinaryReader r(ss);
  StreamMonitor resumed = StreamMonitor::load(r);
  live.insert_batch(all.subspan(cut));
  resumed.insert_batch(all.subspan(cut));
  EXPECT_TRUE(monitor_bytes(resumed) == monitor_bytes(live));
}

TEST(Monitor, ClearResets) {
  StreamMonitor mon(small_cfg());
  mon.insert(1);
  mon.clear();
  EXPECT_EQ(mon.time(), 0u);
  EXPECT_EQ(mon.report(3).items, 0u);
}

TEST(Monitor, MembershipOnlyConfiguration) {
  MonitorConfig cfg = small_cfg();
  cfg.track_cardinality = false;
  cfg.track_frequency = false;
  StreamMonitor mon(cfg);
  for (std::uint64_t k = 0; k < 1000; ++k) mon.insert(k);
  EXPECT_TRUE(mon.seen(500));
  auto rep = mon.report(3);
  EXPECT_FALSE(rep.cardinality.has_value());
  EXPECT_TRUE(rep.top.empty());
  // The full budget flows to the one enabled sketch.
  EXPECT_GE(mon.memory_bytes(), cfg.memory_bytes / 2);
}

}  // namespace
}  // namespace she
