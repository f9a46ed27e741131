#include "runtime/ingest_pipeline.hpp"

#include <string>

namespace she::runtime {

const char* to_string(Backpressure p) {
  switch (p) {
    case Backpressure::kBlock: return "block";
    case Backpressure::kDropNewest: return "drop";
    case Backpressure::kBlockTimeout: return "block-timeout";
  }
  return "?";
}

Backpressure backpressure_from(const std::string& name) {
  if (name == "block") return Backpressure::kBlock;
  if (name == "drop" || name == "drop-newest") return Backpressure::kDropNewest;
  if (name == "block-timeout" || name == "timeout")
    return Backpressure::kBlockTimeout;
  throw std::invalid_argument(
      "backpressure policy must be 'block', 'drop', or 'block-timeout'");
}

void PipelineOptions::validate() const {
  if (shards == 0)
    throw std::invalid_argument("PipelineOptions: shards must be > 0");
  if (producers == 0)
    throw std::invalid_argument("PipelineOptions: producers must be > 0");
  if (queue_capacity == 0)
    throw std::invalid_argument("PipelineOptions: queue_capacity must be > 0");
  if (drain_batch == 0)
    throw std::invalid_argument("PipelineOptions: drain_batch must be > 0");
  if (publish_interval == 0)
    throw std::invalid_argument(
        "PipelineOptions: publish_interval must be > 0");
  if (policy == Backpressure::kBlockTimeout && push_timeout_ms == 0)
    throw std::invalid_argument(
        "PipelineOptions: BlockTimeout needs push_timeout_ms > 0");
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
  // kDropNewest rejects items one by one *inside* an accepted batch,
  // which the log cannot express — a logged-but-dropped key would be
  // replayed at resume and double counted.  kBlockTimeout is safe with
  // the WAL: ring space for the whole sub-batch is reserved before the
  // append (IngestPipeline::wal_push), so an expiry sheds the batch
  // with nothing logged and nothing acked — never after durability.
  if (wal_mode != WalMode::kOff && policy == Backpressure::kDropNewest)
    throw std::invalid_argument(
        "PipelineOptions: the WAL needs an all-or-nothing backpressure "
        "policy (a logged item must not be droppable; use block or "
        "block-timeout — timeouts shed before the append)");
}

}  // namespace she::runtime
