// Host metadata stamped on every she_bench result: where and how the
// numbers were measured.
#pragma once

#include <string>

namespace she::bench::e2e {

struct HostInfo {
  unsigned nproc = 0;       ///< online CPUs
  std::string isa;          ///< SIMD ISA the server dispatched to (/healthz "simd")
  std::string build_type;   ///< CMake build type of this benchmark build
  std::string git_rev;      ///< `git rev-parse HEAD`, "unknown" outside a git checkout
};

/// Exit with status 2 on a sanitizer build (its timings mean nothing) and
/// warn on stderr when the build is not optimized.
void require_timing_build();

/// Host facts; `healthz` is a /healthz body from the server under test.
[[nodiscard]] HostInfo collect_host_info(const std::string& healthz);

/// {"nproc":..,"isa":..,"build_type":..,"git_rev":..} as one JSON object.
[[nodiscard]] std::string to_json(const HostInfo& h);

}  // namespace she::bench::e2e
