// Ablation — the accuracy cost of window sharding.
//
// The FPGA hits 544 Mips with one pipeline; on CPUs, sharding partitions
// the key space so shards run on separate cores with no synchronization,
// each over a window of N/S items.  This harness measures what that costs
// in accuracy: cardinality RE of sharded vs monolithic SHE-BM, through the
// sequential Sharded<T> reference.  Multi-core throughput scaling is
// measured over the real runtime by bench/pipeline_throughput.
#include <iostream>

#include "common.hpp"
#include "common/stats.hpp"
#include "she/she.hpp"
#include "she/sharded.hpp"
#include "stream/oracle.hpp"

namespace she::bench {
namespace {

constexpr std::uint64_t kN = kWindow;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

void sharding_accuracy_cost() {
  std::printf("\n--- Sharding accuracy cost (SHE-BM cardinality RE) ---\n");
  Table table({"shards", "RE"});
  auto trace = caida_like(4 * kN);
  for (std::size_t shards : {1, 2, 4, 8}) {
    Sharded<SheBitmap> s(shards, [&](std::size_t idx) {
      SheConfig cfg;
      cfg.window = kN / shards;
      cfg.cells = (1u << 16) / shards;
      cfg.group_cells = 64;
      cfg.alpha = 0.2;
      cfg.seed = static_cast<std::uint32_t>(idx);
      return SheBitmap(cfg);
    });
    stream::WindowOracle oracle(kN);
    RunningStats err;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      s.insert(trace[i]);
      oracle.insert(trace[i]);
      if (i > 2 * kN && i % (kN / 2) == 0)
        err.add(relative_error(static_cast<double>(oracle.cardinality()),
                               sharded_cardinality(s)));
    }
    table.add(shards, fmt(err.mean()));
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace she::bench

int main() {
  she::bench::banner("Ablation — sharding accuracy cost",
                     "The accuracy cost of window sharding for SHE-BM.");
  she::bench::sharding_accuracy_cost();
  return 0;
}
