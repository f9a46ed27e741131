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

void RateWindow::sample(std::int64_t now_ns, std::uint64_t total) {
  samples_.emplace_back(now_ns, total);
  // Keep one sample at or before the window start so the rate really
  // covers the whole window, not just the interior samples.
  while (samples_.size() > 2 && samples_[1].first <= now_ns - window_ns_)
    samples_.pop_front();
}

double RateWindow::rate() const {
  if (samples_.size() < 2) return 0.0;
  const auto& [t0, c0] = samples_.front();
  const auto& [t1, c1] = samples_.back();
  if (t1 <= t0 || c1 < c0) return 0.0;
  return static_cast<double>(c1 - c0) /
         (static_cast<double>(t1 - t0) / 1e9);
}

}  // namespace she::runtime
