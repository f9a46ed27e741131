// Registry exporters: Prometheus text exposition format and JSON.
//
// Both walk one or more registries (e.g. the process-wide SHE-internals
// registry plus a pipeline's private registry) and render every time
// series.  Same-name entries across registries are merged into one metric
// family so the output stays valid Prometheus exposition.
//
// Histograms render the Prometheus way — cumulative `_bucket{le="..."}`
// series ending in `le="+Inf"`, plus `_sum` and `_count` — while the JSON
// form keeps per-bucket (non-cumulative) counts so consumers can re-bin
// without differencing.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "obs/metrics.hpp"

namespace she::obs {

/// A registry plus a label set appended to every series it contributes.
/// This is how a multi-pipeline exporter (the `she_server` /metrics
/// endpoint) distinguishes per-pipeline registries that all register the
/// same metric names: each pipeline's registry is exported with an extra
/// `pipeline="<name>"` label.
struct LabeledRegistry {
  const Registry* registry = nullptr;
  Labels extra;  ///< appended after the entry's own labels
};

/// Prometheus text exposition format (version 0.0.4).
void write_prometheus(std::ostream& os,
                      std::span<const Registry* const> registries);
void write_prometheus(std::ostream& os,
                      std::span<const LabeledRegistry> registries);
void write_prometheus(std::ostream& os, const Registry& registry);

/// One JSON object: {"schema_version":1,"metrics":[...]}.
void write_json(std::ostream& os, std::span<const Registry* const> registries);
void write_json(std::ostream& os, std::span<const LabeledRegistry> registries);
void write_json(std::ostream& os, const Registry& registry);

/// Escape a string for use inside a JSON string literal (the exporters'
/// label rendering and the server's /healthz document).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace she::obs
