// StreamMonitor dashboard — the one-stop façade, with checkpointing.
//
// A gateway process tracks membership + distinct flows + heavy hitters over
// the last 200K packets with a single 512 KB budget, prints a periodic
// dashboard line, checkpoints itself mid-stream, "crashes", restores from
// the checkpoint, and continues — demonstrating that a restored monitor
// picks up exactly where it left off.
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "she/she.hpp"

int main() {
  she::MonitorConfig cfg;
  cfg.window = 200'000;
  cfg.memory_bytes = 512 * 1024;
  cfg.expected_cardinality = 30'000;
  she::StreamMonitor monitor(cfg);

  she::Rng rng(21);
  she::ZipfDistribution flows(100'000, 1.05);
  auto next_packet = [&] { return she::hash64(flows(rng), 4); };

  std::printf("%-10s %-16s %-14s %s\n", "packets", "distinct flows",
              "top flow pkts", "top flow id");
  auto dashboard = [&] {
    auto rep = monitor.report(1);
    std::printf("%-10llu %-16.0f %-14llu %llu\n",
                static_cast<unsigned long long>(rep.items),
                rep.cardinality.value_or(0.0),
                rep.top.empty() ? 0ULL
                                : static_cast<unsigned long long>(rep.top[0].estimate),
                rep.top.empty() ? 0ULL
                                : static_cast<unsigned long long>(rep.top[0].key));
  };

  for (int i = 0; i < 300'000; ++i) monitor.insert(next_packet());
  dashboard();

  // Checkpoint, simulate a restart, restore.
  std::vector<char> checkpoint;
  {
    she::BinaryWriter w(checkpoint);
    monitor.save(w);
  }
  std::printf("-- checkpointed (%zu bytes), restarting --\n",
              checkpoint.size());
  she::BinaryReader r(checkpoint);
  she::StreamMonitor restored = she::StreamMonitor::load(r);

  for (int i = 0; i < 300'000; ++i) restored.insert(next_packet());
  auto rep = restored.report(3);
  std::printf("%-10llu %-16.0f (restored monitor, stream continued)\n",
              static_cast<unsigned long long>(rep.items),
              rep.cardinality.value_or(0.0));
  std::printf("top flows now:\n");
  for (const auto& e : rep.top)
    std::printf("  flow %llu  ~%llu pkts in window\n",
                static_cast<unsigned long long>(e.key),
                static_cast<unsigned long long>(e.estimate));
  std::printf("monitor memory: %zu bytes (budget %zu)\n",
              restored.memory_bytes(), cfg.memory_bytes);
  return 0;
}
