#include "obs/metrics.hpp"

#include <stdexcept>

namespace she::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::size_t Registry::intern(const std::string& name, const std::string& help,
                             Kind kind, Labels&& labels) {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    if (r.name != name || r.labels != labels) continue;
    if (r.kind != kind)
      throw std::logic_error("obs::Registry: metric '" + name +
                             "' re-registered under a different kind");
    return i;
  }
  Row row;
  row.name = name;
  row.help = help;
  row.kind = kind;
  row.labels = std::move(labels);
  switch (kind) {
    case Kind::kCounter:
      counters_.emplace_back();
      row.index = counters_.size() - 1;
      break;
    case Kind::kGauge:
      gauges_.emplace_back();
      row.index = gauges_.size() - 1;
      break;
    case Kind::kHistogram:
      histograms_.emplace_back();
      row.index = histograms_.size() - 1;
      break;
  }
  rows_.push_back(std::move(row));
  return rows_.size() - 1;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[rows_[intern(name, help, Kind::kCounter, std::move(labels))]
                       .index];
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[rows_[intern(name, help, Kind::kGauge, std::move(labels))]
                     .index];
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_[rows_[intern(name, help, Kind::kHistogram,
                                  std::move(labels))]
                         .index];
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Counter& c : counters_) c.reset();
  for (Gauge& g : gauges_) g.reset();
  for (Histogram& h : histograms_) h.reset();
}

std::vector<Registry::Entry> Registry::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(rows_.size());
  for (const Row& r : rows_) {
    Entry e;
    e.name = r.name;
    e.help = r.help;
    e.kind = r.kind;
    e.labels = r.labels;
    switch (r.kind) {
      case Kind::kCounter:
        e.counter = &counters_[r.index];
        break;
      case Kind::kGauge:
        e.gauge = &gauges_[r.index];
        break;
      case Kind::kHistogram:
        e.histogram = &histograms_[r.index];
        break;
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::uint64_t Registry::sum(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const Row& r : rows_)
    if (r.kind == Kind::kCounter && r.name == name)
      total += counters_[r.index].value();
  return total;
}

Registry& default_registry() {
  static Registry reg;
  return reg;
}

}  // namespace she::obs
