// Randomized differential testing: independent implementations of the same
// semantics must agree across randomly drawn configurations and workloads.
//
//   * engine, vector store vs  engine, packed store (exact agreement)
//   * estimator class      vs  bare engine, same policy (same saved bytes)
//   * sharded routing     vs  monolithic per-shard feeding (exact agreement)
//   * serialization       vs  live object (exact agreement)
//   * SHE-BF              vs  exact oracle (one-sidedness)
//
// 20 random trials each, seeds printed on failure for reproduction.
#include <vector>

#include "common/io.hpp"
#include "common/rng.hpp"
#include "she/csm.hpp"
#include "she/she.hpp"
#include "stream/oracle.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she {
namespace {

struct RandomScenario {
  SheConfig cfg;
  unsigned hashes;
  stream::Trace trace;
  std::uint64_t seed;
};

RandomScenario draw_scenario(std::uint64_t seed) {
  Rng rng(seed);
  RandomScenario s;
  s.seed = seed;
  s.cfg.window = 256 + rng.below(4096);
  s.cfg.cells = 1024 << rng.below(4);  // 1K..8K cells
  // group_cells from {1, 8, 16, 64, 128}, never exceeding cells.
  const std::size_t choices[] = {1, 8, 16, 64, 128};
  s.cfg.group_cells = choices[rng.below(5)];
  s.cfg.alpha = 0.1 + rng.uniform() * 3.0;
  s.cfg.beta = 0.7 + rng.uniform() * 0.29;
  s.cfg.seed = static_cast<std::uint32_t>(rng());
  s.cfg.mark_bits = 1 + static_cast<unsigned>(rng.below(4));
  s.hashes = 1 + static_cast<unsigned>(rng.below(10));

  // Workload: mix of zipf and distinct segments.
  std::uint64_t len = 3 * s.cfg.window + rng.below(4 * s.cfg.window);
  if (rng.below(2) == 0) {
    s.trace = stream::distinct_trace(len, seed + 1);
  } else {
    stream::ZipfTraceConfig tc;
    tc.length = len;
    tc.universe = 64 + rng.below(4 * s.cfg.window);
    tc.skew = rng.uniform() * 1.4;
    tc.seed = seed + 2;
    s.trace = stream::zipf_trace(tc);
  }
  return s;
}

/// The probed cells of `key` agree in value and age on both engines.
template <typename A, typename B>
void expect_same_probes(const A& a, const B& b, std::uint64_t key,
                        unsigned k, std::uint64_t seed, std::size_t i) {
  for (unsigned p = 0; p < k; ++p) {
    const auto va = a.probe(key, p);
    const auto vb = b.probe(key, p);
    ASSERT_EQ(va.value, vb.value) << "trial seed " << seed << " i=" << i;
    ASSERT_EQ(va.age, vb.age) << "trial seed " << seed << " i=" << i;
  }
}

template <typename E>
std::string saved_bytes(const E& e) {
  std::vector<char> buf;
  BinaryWriter w(buf);
  e.save(w);
  return std::string(buf.begin(), buf.end());
}

/// The Bloom policy on the default one-Cell-per-slot store.
struct VecBloom : csm::BloomPolicy {
  using Store = csm::VectorStore<Cell>;
};

// The engine on its default one-Cell-per-slot store against the engine on
// the packed store SHE-BF uses, same policy: every probed cell agrees.  The
// estimator class itself saves the packed engine's bytes.

TEST(Differential, GenericCsmMatchesSpecializedBloom) {
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    auto s = draw_scenario(1000 + trial);
    SheBloomFilter cls(s.cfg, s.hashes);
    csm::SlidingEstimator<csm::BloomPolicy> special(
        s.cfg, csm::BloomPolicy{s.hashes, s.cfg.seed});
    csm::SlidingEstimator<VecBloom> generic(
        s.cfg, VecBloom{{s.hashes, s.cfg.seed}});
    Rng rng(s.seed + 3);
    for (std::size_t i = 0; i < s.trace.size(); ++i) {
      cls.insert(s.trace[i]);
      special.insert(s.trace[i]);
      generic.insert(s.trace[i]);
      if (i % 41 == 0) {
        expect_same_probes(generic, special, rng(), s.hashes, s.seed, i);
        expect_same_probes(generic, special, s.trace[i], s.hashes, s.seed, i);
      }
    }
    ASSERT_EQ(saved_bytes(cls), saved_bytes(special))
        << "trial seed " << s.seed;
  }
}

TEST(Differential, GenericCsmMatchesSpecializedCountMin) {
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    auto s = draw_scenario(2000 + trial);
    SheCountMin special(s.cfg, s.hashes);
    csm::SlidingEstimator<csm::CountMinPolicy> generic(
        s.cfg, csm::CountMinPolicy{s.hashes, s.cfg.seed});
    for (std::size_t i = 0; i < s.trace.size(); ++i) {
      special.insert(s.trace[i]);
      generic.insert(s.trace[i]);
      if (i % 53 == 0) {
        ASSERT_EQ(saved_bytes(special), saved_bytes(generic))
            << "trial seed " << s.seed << " i=" << i;
      }
    }
  }
}

TEST(Differential, ShardedMatchesManualRouting) {
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    auto s = draw_scenario(3000 + trial);
    std::size_t shards = 1 + trial % 5;
    auto factory = [&](std::size_t idx) {
      SheConfig cfg = s.cfg;
      cfg.seed = static_cast<std::uint32_t>(idx) * 7919u + s.cfg.seed;
      return SheBloomFilter(cfg, s.hashes);
    };
    Sharded<SheBloomFilter> routed(shards, factory);
    Sharded<SheBloomFilter> bulk(shards, factory);
    for (auto k : s.trace) routed.insert(k);
    bulk.insert_bulk(s.trace);
    Rng rng(s.seed + 5);
    for (int q = 0; q < 500; ++q) {
      std::uint64_t probe = rng();
      ASSERT_EQ(sharded_contains(routed, probe), sharded_contains(bulk, probe))
          << "trial seed " << s.seed;
    }
  }
}

TEST(Differential, CheckpointMatchesLiveObject) {
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    auto s = draw_scenario(4000 + trial);
    SheBloomFilter live(s.cfg, s.hashes);
    for (auto k : s.trace) live.insert(k);

    std::vector<char> buf;
    BinaryWriter w(buf);
    live.save(w);
    BinaryReader r(buf);
    SheBloomFilter restored = SheBloomFilter::load(r);

    // Continue both with a second stream; answers stay identical.
    auto more = stream::distinct_trace(2000, s.seed + 6);
    for (auto k : more) {
      live.insert(k);
      restored.insert(k);
    }
    Rng rng(s.seed + 7);
    for (int q = 0; q < 500; ++q) {
      std::uint64_t probe = rng();
      ASSERT_EQ(live.contains(probe), restored.contains(probe))
          << "trial seed " << s.seed;
    }
  }
}

TEST(Differential, OneSidednessAcrossRandomConfigs) {
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    auto s = draw_scenario(5000 + trial);
    SheBloomFilter bf(s.cfg, s.hashes);
    stream::WindowOracle oracle(s.cfg.window);
    Rng rng(s.seed + 8);
    for (std::size_t i = 0; i < s.trace.size(); ++i) {
      bf.insert(s.trace[i]);
      oracle.insert(s.trace[i]);
      if (i % 29 == 0 && i > 0) {
        std::uint64_t back =
            rng.below(std::min<std::uint64_t>(i, s.cfg.window - 1));
        ASSERT_TRUE(bf.contains(s.trace[i - back]))
            << "trial seed " << s.seed << " false negative at i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace she
