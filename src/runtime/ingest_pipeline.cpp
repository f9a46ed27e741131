#include "runtime/ingest_pipeline.hpp"

#include <string>

namespace she::runtime {

void PipelineOptions::validate() const {
  if (shards == 0 || shards > kMaxShards)
    throw std::invalid_argument("PipelineOptions: shards must be in 1..256");
  if (producers == 0)
    throw std::invalid_argument("PipelineOptions: producers must be > 0");
  if (queue_capacity == 0 || queue_capacity > SpscRing::kMaxCapacity)
    throw std::invalid_argument(
        "PipelineOptions: queue_capacity must be in 1..2^26");
  if (publish_interval == 0)
    throw std::invalid_argument(
        "PipelineOptions: publish_interval must be > 0");
  if (resume && checkpoint_dir.empty())
    throw std::invalid_argument(
        "PipelineOptions: resume needs a checkpoint_dir");
  if (!checkpoint_dir.empty() && checkpoint_interval == 0)
    throw std::invalid_argument(
        "PipelineOptions: checkpoint_interval must be > 0");
  if (checkpoint_keep == 0)
    throw std::invalid_argument(
        "PipelineOptions: checkpoint_keep must be >= 1");
  if (wal_mode != WalMode::kOff && checkpoint_dir.empty())
    throw std::invalid_argument(
        "PipelineOptions: the WAL needs a checkpoint_dir (the log lives "
        "beside the shard checkpoints it backstops)");
}

}  // namespace she::runtime
