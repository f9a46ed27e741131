// Latency sample sets and their order statistics.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

#include "common/stats.hpp"

namespace she::bench::e2e {

struct Summary {
  std::size_t count = 0;
  double mean = 0;
  double p10 = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Raw samples in one unit.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] std::size_t count() const { return v_.size(); }
  [[nodiscard]] double sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

  /// Mean and interpolated percentiles; all zero when empty.
  [[nodiscard]] Summary summarize() const {
    Summary s;
    s.count = v_.size();
    if (v_.empty()) return s;
    s.mean = sum() / static_cast<double>(v_.size());
    s.p10 = percentile(v_, 10);
    s.p50 = percentile(v_, 50);
    s.p95 = percentile(v_, 95);
    s.p99 = percentile(v_, 99);
    return s;
  }

 private:
  std::vector<double> v_;
};

}  // namespace she::bench::e2e
