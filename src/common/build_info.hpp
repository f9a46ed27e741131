// Build metadata surfaced by /healthz and the she_build_info gauge.
#pragma once

#include "common/simd.hpp"

namespace she {

/// Project version as configured by CMake (SHE_VERSION), or "dev" for
/// builds driven without it.
[[nodiscard]] inline const char* build_version() noexcept {
#ifdef SHE_VERSION
  return SHE_VERSION;
#else
  return "dev";
#endif
}

/// Compiler family + version string, e.g. "gcc 12.2.0".
[[nodiscard]] inline const char* build_compiler() noexcept {
#if defined(__clang__)
  return "clang " __VERSION__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// SIMD ISA the hot-path kernels dispatch to right now ("avx2", "neon",
/// "scalar").  Reflects SHE_FORCE_SCALAR and programmatic overrides.
[[nodiscard]] inline const char* build_simd_isa() noexcept {
  return simd::active_isa_name();
}

/// "1" when SHE_FORCE_SCALAR pinned the scalar kernels from the environment.
[[nodiscard]] inline const char* build_force_scalar() noexcept {
  return simd::force_scalar_env() ? "1" : "0";
}

}  // namespace she
