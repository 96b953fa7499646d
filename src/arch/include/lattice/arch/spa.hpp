// Sternberg partitioned architecture simulator (§5, §6.2).
//
// The lattice is cut into vertical slices W sites wide; each slice gets
// its own serial pipeline of `depth` stages. Sites whose neighborhoods
// straddle a slice boundary are completed over synchronous side
// channels between same-depth stages of adjacent slices — the paper's
// E-bit-per-tick bidirectional links.
//
// Slice streams are *row-staggered*: slice j runs exactly one slice-row
// (W positions) behind slice j-1. With that stagger, when a stage
// updates its right boundary column the right neighbor's matching row
// has just arrived, and when it updates its left boundary column the
// left neighbor still holds the needed (older) data in its window
// buffer — the data-access pattern the paper contrasts with WSA's plain
// raster scan (§6.3).
//
// Each tick every slice consumes one site, so the whole machine
// performs (L/W)·depth updates per tick; main memory must feed
// 2·D·(L/W) bits each tick — the bandwidth price of SPA's speed.
//
// Execution strategies (identical output and identical counters, both
// verified bit-for-bit against the golden reference):
//
//   threads <= 1 — cycle-exact simulation: one ring-buffered stage per
//     (slice, depth), side-channel peeks between neighbor stages, the
//     global tick loop walking slices right-to-left. This is the
//     hardware model; counters fall out of the walk itself.
//
//   threads >= 2 — the paper's multi-chip parallelism made literal:
//     slice pipelines run on persistent worker lanes, stepping a
//     row-chunk wavefront (stage d trails stage d-1 by two chunks) with
//     a common::Lockstep rendezvous standing in for the synchronous
//     side channels; a rule that throws on one lane ends every lane at
//     the same step, and run() rethrows it. Counters are the closed
//     forms the tick walk provably produces (asserted equal in tests).
//
// With `fast_kernel`, a GasRule's updates go through the fused
// CollisionLut gather instead of Window construction + virtual
// dispatch; non-gas rules fall back to the generic path.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lattice/arch/technology.hpp"
#include "lattice/fault/fault.hpp"
#include "lattice/lgca/lattice.hpp"

namespace lattice::lgca {
class CollisionLut;
}  // namespace lattice::lgca

namespace lattice::arch {

/// Counters for a SPA run.
struct SpaStats {
  std::int64_t ticks = 0;
  std::int64_t site_updates = 0;
  std::int64_t mem_sites_read = 0;
  std::int64_t mem_sites_written = 0;
  std::int64_t boundary_fetches = 0;  // cross-slice window reads
  std::int64_t buffer_sites = 0;

  double updates_per_tick() const {
    return ticks > 0 ? static_cast<double>(site_updates) /
                           static_cast<double>(ticks)
                     : 0.0;
  }
};

class SpaMachine {
 public:
  /// Partition `extent` into slices of width `slice_width` (which must
  /// divide the lattice width) and process `depth` generations per
  /// pass. `threads` selects the execution strategy (see file comment);
  /// `fast_kernel` opts gas rules into the fused CollisionLut path,
  /// resolved once here.
  ///
  /// A non-null *armed* `fault` forces the cycle-exact strategy (the
  /// simulated slice buffers and side channels only exist there), arms
  /// per-stage parity shadows, side-channel link checks, stuck-at masks
  /// for (depth, slice) lanes, and, for gas rules on the fused path,
  /// the per-depth conservation audit (fault::audit_chain).
  /// Slices the injector has remapped (stuck chips taken out of the
  /// datapath) charge one extra slice-stream of ticks per pass — the
  /// surviving neighbor streams the failed slice's columns serially.
  SpaMachine(Extent extent, const lgca::Rule& rule, std::int64_t slice_width,
             int depth, std::int64_t t0 = 0, unsigned threads = 1,
             bool fast_kernel = false, fault::FaultInjector* fault = nullptr);
  ~SpaMachine();
  SpaMachine(SpaMachine&&) noexcept;
  SpaMachine& operator=(SpaMachine&&) noexcept;

  /// One pass: the lattice advanced by `depth` generations.
  ///
  /// Machine state persists across passes: the cycle-exact walk keeps
  /// its (slice × depth) stage grid and rearms it in place, and the
  /// wavefront keeps its generation ladder, so a long-lived machine
  /// allocates its buffers once instead of per pass.
  lgca::SiteLattice run(const lgca::SiteLattice& in);

  /// Retarget the next run() at generation `t0`.
  void set_t0(std::int64_t t0) noexcept { t0_ = t0; }

  const SpaStats& stats() const noexcept { return stats_; }
  std::int64_t slices() const noexcept { return slices_; }
  int depth() const noexcept { return depth_; }
  unsigned threads() const noexcept { return threads_; }

  double modeled_rate(const Technology& tech) const {
    return stats_.updates_per_tick() * tech.clock_hz;
  }

 private:
  lgca::SiteLattice run_cycle_exact(const lgca::SiteLattice& in);
  lgca::SiteLattice run_parallel(const lgca::SiteLattice& in);

  Extent extent_;
  const lgca::Rule* rule_;
  std::int64_t slice_width_;
  std::int64_t slices_;
  int depth_;
  std::int64_t t0_;
  unsigned threads_;
  const lgca::CollisionLut* lut_;  // non-null iff the fused path is on
  fault::FaultInjector* fault_ = nullptr;
  SpaStats stats_;

  // Persistent execution state, built lazily by the strategy that
  // first runs (an armed injector can flip strategies mid-life, so
  // both can coexist). CycleState holds the (slice × depth) SliceStage
  // grid of the cycle-exact walk; gen_ is the wavefront's generation
  // ladder, whose intermediate lattices are reused across passes.
  struct CycleState;
  std::unique_ptr<CycleState> cycle_;
  std::vector<lgca::SiteLattice> gen_;
};

}  // namespace lattice::arch
