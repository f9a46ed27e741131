#include "hw/builders.hpp"

#include <string>

namespace she::hw {

namespace {
// LUT-equivalent figures calibrated against the paper's Table 2 synthesis.
constexpr std::size_t kCounterLuts = 40;    // 32-bit item counter + compare
constexpr std::size_t kHashLuts = 1200;     // BOBHash32 rounds, unrolled
constexpr std::size_t kMarkLuts = 140;      // mark arithmetic + compare
constexpr std::size_t kUpdateLuts = 180;    // group reset mux + bit set
}  // namespace

Pipeline make_she_bm_pipeline(std::size_t array_bits, std::size_t group_bits) {
  std::size_t groups = (array_bits + group_bits - 1) / group_bits;
  std::vector<MemoryRegion> regions = {
      {"item_counter", 32},
      {"time_marks", groups},
      {"bit_array", array_bits},
  };
  std::vector<Stage> stages = {
      {"fetch_time", {{0, 32, true, true, true}}, 64, kCounterLuts},
      {"hash_index", {}, 170, kHashLuts},
      {"mark_check", {{1, 1, true, true, true}}, 203, kMarkLuts},
      {"cell_update", {{2, group_bits, true, true, true}}, 0, kUpdateLuts},
  };
  return Pipeline("SHE-BM", std::move(regions), std::move(stages));
}

Pipeline make_she_bf_pipeline(std::size_t array_bits, std::size_t group_bits,
                              unsigned hashes) {
  std::size_t groups = (array_bits + group_bits - 1) / group_bits;
  std::vector<MemoryRegion> regions = {{"item_counter", 32}};
  std::vector<Stage> stages = {
      {"fetch_time", {{0, 32, true, true, true}}, 64, kCounterLuts},
  };
  for (unsigned lane = 0; lane < hashes; ++lane) {
    std::string suffix = "[";
    suffix += std::to_string(lane);
    suffix += ']';
    std::size_t marks_region = regions.size();
    regions.push_back({"time_marks" + suffix, groups});
    std::size_t array_region = regions.size();
    regions.push_back({"bit_array" + suffix, array_bits});
    stages.push_back({"hash_index" + suffix, {}, 170, kHashLuts});
    stages.push_back(
        {"mark_check" + suffix, {{marks_region, 1, true, true, true}}, 203, kMarkLuts});
    stages.push_back(
        {"cell_update" + suffix, {{array_region, group_bits, true, true, true}}, 0,
         kUpdateLuts});
  }
  return Pipeline("SHE-BF", std::move(regions), std::move(stages));
}

Pipeline make_swamp_pipeline(std::uint64_t window, unsigned fingerprint_bits) {
  std::size_t queue_bits = static_cast<std::size_t>(window) * fingerprint_bits;
  std::size_t table_bits = queue_bits * 9 / 4;  // TinyTable at 2.25x fingerprints
  std::vector<MemoryRegion> regions = {
      {"fingerprint_queue", queue_bits},
      {"tiny_table", table_bits},
  };
  std::vector<Stage> stages = {
      {"fetch_time", {}, 64, kCounterLuts},
      {"hash_fingerprint", {}, 96, kHashLuts},
      // The queue slot must be read (evicted fingerprint) and overwritten
      // (new fingerprint) for the same item: two accesses in one stage.
      {"queue_swap",
       {{0, fingerprint_bits, false, true, true},
        {0, fingerprint_bits, true, true, true}},
       fingerprint_bits * 2,
       220},
      // Inserting the new fingerprint may expand into adjacent buckets
      // (domino effect): data-dependent, unbounded access.
      {"table_insert", {{1, 64, true, false, false}}, 0, 400},
      // Decrementing the evicted fingerprint touches the same table again,
      // from a different stage: read-write hazard.
      {"table_evict", {{1, 64, true, true, true}}, 0, 300},
  };
  return Pipeline("SWAMP", std::move(regions), std::move(stages));
}

}  // namespace she::hw
