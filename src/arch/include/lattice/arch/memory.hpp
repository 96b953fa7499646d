// Banked main-memory model (§6's footnote 2, made explicit).
//
// The paper's throughput analysis "assumes a memory system capable of
// providing full bandwidth to the processor system" and flags it as "a
// very important assumption". This module checks when it holds: an
// interleaved, banked memory serves the address streams the
// architectures actually generate —
//
//   WSA: one raster stream, P consecutive sites per tick;
//   SPA: L/W concurrent slice streams, row-staggered, one site each
//        per tick, whose global addresses are W apart;
//   WSA-E: each stage's two off-chip line FIFOs, one head write and
//        one tail read each per tick (line_buffer_stall_rate).
//
// Each bank accepts one access and is then busy for `bank_busy_ticks`.
// Raster streams interleave perfectly when banks ≥ busy·P. The SPA
// pattern is hostile exactly when the slice width shares a factor with
// the bank count (all slices hammer the same banks); coprime
// interleaving restores full bandwidth — a real constraint on the "full
// bandwidth" assumption that the paper leaves to the memory designer.

#pragma once

#include <cstdint>
#include <vector>

#include "lattice/common/grid.hpp"

namespace lattice::arch {

struct MemoryConfig {
  int banks = 8;            // interleaved on low-order site-address bits
  int bank_busy_ticks = 4;  // recovery time per access, in ticks
};

/// Outcome of serving a synchronous request schedule.
struct MemoryResult {
  std::int64_t requests = 0;
  std::int64_t ticks = 0;   // wall clock including stalls
  std::int64_t stalls = 0;  // extra ticks beyond the ideal schedule

  /// Achieved fraction of the demanded bandwidth.
  double bandwidth_fraction(std::int64_t ideal_ticks) const {
    return ticks > 0 ? static_cast<double>(ideal_ticks) /
                           static_cast<double>(ticks)
                     : 0.0;
  }
};

/// A synchronous banked memory: each machine tick presents a batch of
/// site addresses that must all issue before the machine advances.
class BankedMemory {
 public:
  explicit BankedMemory(MemoryConfig cfg);

  /// Serve the per-tick batches in order; the machine stalls a tick
  /// whenever a request's bank is still busy.
  MemoryResult service(const std::vector<std::vector<std::int64_t>>& ticks);

  const MemoryConfig& config() const noexcept { return cfg_; }

 private:
  MemoryConfig cfg_;
};

/// WSA address schedule: `batch` consecutive raster addresses per tick.
std::vector<std::vector<std::int64_t>> wsa_address_schedule(Extent e,
                                                            int batch);

/// SPA address schedule: one address per slice per tick, slice j
/// running j·W positions behind slice j-1 (the §6.3 row-staggered
/// pattern). `slice_width` must divide the lattice width.
std::vector<std::vector<std::int64_t>> spa_address_schedule(
    Extent e, std::int64_t slice_width);

/// WSA-E buffer-channel stalls per stream tick (§5): the line buffer
/// of a width-1 WSA stage moved off chip into `parts`. A stage's
/// external buffer is two line FIFOs; per tick each sees a head write
/// at address p mod cap and a tail read at (p+1) mod cap, where cap is
/// the line length plus slack, rounded up to even so the pair always
/// straddles a two-bank part. Every FIFO of every stage runs this
/// pattern in lockstep, so one channel's rate is the machine's. The
/// pattern is periodic in cap ticks, so a window of a pass's
/// `extent.area() + lead` stream ticks, capped at max(4·cap, 1024),
/// measures it exactly up to end-of-window rounding. 0 for
/// dual-bank, single-tick parts, which sustain full bandwidth.
double line_buffer_stall_rate(Extent extent, std::int64_t lead,
                              MemoryConfig parts);

}  // namespace lattice::arch
