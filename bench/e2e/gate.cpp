#include "gate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "server/pipeline_manager.hpp"
#include "she/monitor.hpp"
#include "stream/oracle.hpp"
#include "stream/trace.hpp"

namespace she::bench::e2e {
namespace {

constexpr const char* kCheck = "check";
// The server is fed the first kGateKeys keys and compared with the
// reference at every kCheckEvery keys once a window is full: 7
// checkpoints.  Per checkpoint: 700 + 700 membership queries (keys in the
// window; keys that aged out or were never sent) and 1430 frequency
// queries, ~10K of each.
constexpr std::size_t kGateKeys = 256 * 1024;
constexpr std::size_t kCheckEvery = 32 * 1024;
constexpr std::size_t kPresentPerCheck = 700;
constexpr std::size_t kAgedPerCheck = 350;
constexpr std::size_t kNeverPerCheck = 350;
constexpr std::size_t kFreqPerCheck = 1430;
// The reference alone then runs on to kAccuracyKeys, so the accuracy
// metrics average ~60 checkpoints (about 30 disjoint windows) and barely
// move with the seed; the per-window cardinality error needs that many.
constexpr std::size_t kAccuracyKeys = 2 * 1024 * 1024;
constexpr std::uint64_t kGateSalt = 0x6a09e667f3bcc909ULL;
constexpr std::uint64_t kNeverKeyBase = std::uint64_t{1} << 40;

/// Sorted, then shuffled by the seed, then cut to `n`: the same selection
/// for the same seed whatever the hash-map iteration order.
std::vector<std::uint64_t> pick(std::vector<std::uint64_t> keys, std::size_t n,
                                Rng& rng) {
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = keys.size(); i > 1; --i)
    std::swap(keys[i - 1], keys[rng.below(i)]);
  if (keys.size() > n) keys.resize(n);
  return keys;
}

/// The in-process reference's published state, one StreamMonitor per
/// shard, queried the way the server's handler threads query theirs.
struct RefView {
  const ConcurrentMonitor& ref;
  std::vector<StreamMonitor> shards;

  explicit RefView(const ConcurrentMonitor& m) : ref(m) {
    for (std::size_t s = 0; s < m.shard_count(); ++s)
      shards.push_back(m.shard_snapshot(s));
  }
  [[nodiscard]] MonitorReport report(std::size_t top_k) const {
    std::vector<MonitorReport> parts;
    for (const StreamMonitor& s : shards) parts.push_back(s.report(top_k));
    return MonitorReport::combine(parts, top_k);
  }
  [[nodiscard]] bool seen(std::uint64_t key) const {
    return shards[ref.shard_of(key)].seen(key);
  }
  [[nodiscard]] std::uint64_t frequency(std::uint64_t key) const {
    return shards[ref.shard_of(key)].frequency(key);
  }
};

void put(std::string& out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

}  // namespace

GateResult run_gate(server::SheClient& client, const Workload& w,
                    std::uint64_t seed) {
  GateResult g;
  // Errors count as failures; a thrown ClientError ends the gate.
  const auto ask = [&](auto&& query) {
    ++g.attempted;
    return query();
  };
  const auto check = [&](bool same) {
    if (!same) {
      ++g.mismatches;
      ++g.failed;
    }
  };
  try {
    const std::string spec = pipeline_spec(w, 1);
    ask([&] {
      client.create(kCheck, spec);
      return 0;
    });
    const server::PipelineSpec ps = server::parse_sketch_spec(spec);
    const std::size_t window = ps.monitor.window;
    ConcurrentMonitor ref(ps.monitor, ps.pipeline);
    ref.start();
    stream::WindowOracle oracle(window);
    const stream::Trace keys = stream::named_dataset("caida", kAccuracyKeys, seed ^ kGateSalt);
    std::unordered_set<std::uint64_t> sent;
    Rng rng(seed ^ (kGateSalt >> 1));
    double card_err = 0;
    double freq_rel = 0;
    std::size_t false_pos = 0;
    std::size_t never = 0;
    OpStats feed;
    for (std::size_t fed = 0; fed < keys.size();) {
      const std::span<const std::uint64_t> frame(keys.data() + fed, kFrameKeys);
      const bool served = fed < kGateKeys;
      // A failed insert is counted by insert_frames; the two sides no
      // longer hold the same keys, so it also fails the comparison.
      if (served && !insert_frames(client, kCheck, frame, feed)) ++g.mismatches;
      check(ref.push_bulk(0, frame) == frame.size());
      for (std::uint64_t k : frame) {
        oracle.insert(k);
        if (served) sent.insert(k);
      }
      fed += frame.size();
      if (fed % kCheckEvery != 0 || fed < window) continue;

      check(ref.flush());
      const RefView view(ref);
      if (served) {
        // A checkpoint: the server's answers must equal the reference's.
        ask([&] {
          client.flush(kCheck);
          return 0;
        });
        std::vector<std::uint64_t> window_keys;
        for (const auto& [k, n] : oracle.counts()) window_keys.push_back(k);
        std::vector<std::uint64_t> aged;
        for (std::uint64_t k : sent)
          if (oracle.frequency(k) == 0) aged.push_back(k);
        std::vector<std::uint64_t> absent = pick(aged, kAgedPerCheck, rng);
        for (std::size_t n = 0; n < kNeverPerCheck; ++n)
          absent.push_back(kNeverKeyBase + never++);
        const double card = ask([&] { return client.query_cardinality(kCheck); });
        check(card == *view.report(0).cardinality);
        for (std::uint64_t k : pick(window_keys, kPresentPerCheck, rng))
          check(ask([&] { return client.query_membership(kCheck, k); }) == view.seen(k));
        for (std::uint64_t k : absent)
          check(ask([&] { return client.query_membership(kCheck, k); }) == view.seen(k));
        for (std::uint64_t k : pick(window_keys, kFreqPerCheck, rng))
          check(ask([&] { return client.query_frequency(kCheck, k); }) == view.frequency(k));
        const auto top = ask([&] { return client.query_topk(kCheck, 10); });
        const MonitorReport want = view.report(10);
        bool same = top.size() == want.top.size();
        for (std::size_t t = 0; same && t < top.size(); ++t)
          same = top[t].first == want.top[t].key && top[t].second == want.top[t].estimate;
        check(same);
      }

      // Accuracy against the exact window: every key in it, every key of
      // the segment that just aged out of it, and as many never-sent keys.
      const auto distinct = static_cast<double>(oracle.cardinality());
      card_err += std::abs(*view.report(0).cardinality - distinct) / distinct;
      ++g.card_samples;
      for (const auto& [k, n] : oracle.counts()) {
        const double err =
            std::abs(static_cast<double>(view.frequency(k)) - static_cast<double>(n));
        freq_rel += err / static_cast<double>(n);
        ++g.freq_samples;
      }
      if (fed >= window + kCheckEvery) {
        for (std::uint64_t k : std::span(keys).subspan(fed - window - kCheckEvery, kCheckEvery)) {
          if (oracle.frequency(k) != 0) continue;
          false_pos += view.seen(k) ? 1 : 0;
          false_pos += view.seen(kNeverKeyBase + never++) ? 1 : 0;
          g.member_samples += 2;
        }
      }
    }
    g.attempted += feed.attempted;
    g.failed += feed.failed;
    g.card_re = card_err / static_cast<double>(g.card_samples);
    g.member_fpr = static_cast<double>(false_pos) / static_cast<double>(g.member_samples);
    g.freq_are = freq_rel / static_cast<double>(g.freq_samples);
    g.completed = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "she_bench: correctness gate aborted: %s\n", e.what());
    ++g.failed;
  }
  return g;
}

std::string recovery_answers(server::SheClient& client,
                             std::span<const std::uint64_t> pool) {
  constexpr std::size_t kKeys = 1000;
  std::string out;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::uint64_t k = pool[i * (pool.size() / kKeys)];
    put(out, client.query_membership(kPipeline, k) ? 1 : 0);
    put(out, client.query_frequency(kPipeline, k));
  }
  const double card = client.query_cardinality(kPipeline);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &card, 8);
  put(out, bits);
  for (const auto& [key, est] : client.query_topk(kPipeline, 10)) {
    put(out, key);
    put(out, est);
  }
  return out;
}

}  // namespace she::bench::e2e
