// Runtime SIMD dispatch for the vectorized hot paths.
//
// The batching layer (she/batch.hpp) stages work into blocks precisely so
// that stage 1 — hashing, slot arithmetic, GroupClock mark precomputation —
// can run lane-parallel.  This header is the single place that decides which
// instruction set those kernels use:
//
//   * detection happens once (CPUID on x86-64, compile-time on aarch64);
//   * `SHE_FORCE_SCALAR=1` in the environment pins every kernel to its
//     scalar tail (differential tests and the micro benchmarks rely on
//     this to compare the two implementations bit-for-bit; the batch path
//     around the kernels is the same either way);
//   * `set_force_scalar()` flips the same switch programmatically so a test
//     or bench can exercise both paths in one process.
//
// Kernels are compiled with function-level target attributes (no global
// -march flags), so a binary built anywhere runs anywhere: an AVX2 kernel is
// only ever *called* after CPUID says it is safe.
#pragma once

#include <atomic>
#include <cstdint>

namespace she::simd {

enum class Isa : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// Hardware capability, ignoring any scalar override.  Computed once.
[[nodiscard]] Isa detected_isa() noexcept;

/// True when the scalar kernels are pinned, either by the
/// SHE_FORCE_SCALAR environment variable (read once at first use) or by
/// set_force_scalar().
[[nodiscard]] bool force_scalar() noexcept;

/// True when SHE_FORCE_SCALAR was set in the environment at first use
/// (reported separately from the programmatic switch so /healthz shows the
/// deployment's configuration, not a test's transient override).
[[nodiscard]] bool force_scalar_env() noexcept;

/// Programmatically pin (or unpin) the scalar kernels.  Used by differential
/// tests and the micro benchmarks; takes effect on the next dispatch check.
void set_force_scalar(bool on) noexcept;

/// The ISA the vector kernels will actually use right now.
[[nodiscard]] inline Isa active_isa() noexcept {
  return force_scalar() ? Isa::kScalar : detected_isa();
}

[[nodiscard]] const char* isa_name(Isa isa) noexcept;

[[nodiscard]] inline const char* active_isa_name() noexcept {
  return isa_name(active_isa());
}

/// RAII scalar pin for tests/benches: forces scalar on construction (or
/// explicitly un-forces with `ScopedForceScalar(false)`), restores the
/// previous setting on destruction.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on = true) noexcept
      : previous_(force_scalar()) {
    set_force_scalar(on);
  }
  ~ScopedForceScalar() { set_force_scalar(previous_); }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool previous_;
};

}  // namespace she::simd
