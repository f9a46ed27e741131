// Correctness gate: the server's answers must equal an in-process
// reference built from the same spec, and the recovery step's answers must
// survive kill -9 / --resume byte for byte.  Accuracy against the exact
// sliding window (stream/oracle.hpp) comes out of the same pass.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "load.hpp"
#include "server/client.hpp"

namespace she::bench::e2e {

struct GateResult {
  bool completed = false;        ///< false when a request error cut it short
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< error answers plus mismatches
  std::uint64_t mismatches = 0;  ///< answers that differ from the reference
  /// Accuracy against the exact window, error definitions as in Ben Basat
  /// et al., "Efficient Summing over Sliding Windows":
  double freq_are = 0;    ///< mean |est - true| / true over every window key
  double member_fpr = 0;  ///< share of absent (just aged-out or unsent) keys reported present
  double card_re = 0;     ///< mean |est - true| / true over the checkpoints
  std::size_t freq_samples = 0;
  std::size_t member_samples = 0;
  std::size_t card_samples = 0;
};

/// Create pipeline "check" with the workload's spec at producers=1 (so its
/// per-shard order is deterministic) and feed it 256K generated keys over
/// one connection.  At seven points along the stream (FLUSH each time), its
/// membership, frequency, cardinality and top-10 answers — about 10K
/// membership and 10K frequency queries in all — must equal those of an
/// in-process ConcurrentMonitor parsed from the same spec and fed the same
/// keys.  The reference then runs on alone to 2M keys; the accuracy is
/// its error against the exact window (stream/oracle.hpp) every 32K keys,
/// over every key in the window and the keys that just aged out of it.
[[nodiscard]] GateResult run_gate(server::SheClient& client, const Workload& w,
                                  std::uint64_t seed);

/// The answers the recovery step compares across kill -9 / --resume:
/// membership and frequency of keys spread over `pool`, cardinality and
/// top-10 of the workload pipeline, as one byte string.
[[nodiscard]] std::string recovery_answers(server::SheClient& client,
                                           std::span<const std::uint64_t> pool);

}  // namespace she::bench::e2e
