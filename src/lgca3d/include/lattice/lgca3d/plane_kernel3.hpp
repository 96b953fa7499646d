// Bit-parallel update of the cubic 3-D gas over PlaneLattice3 planes.
//
// Same construction as the 2-D PlaneKernel, one dimension up:
// propagation is a funnel shift on the ±x channel planes (identical
// word structure to 2-D, and branch-free the same way)
// plus whole-row reads of the y/z neighbor rows, and collision is
// boolean algebra derived from the class structure of Gas3Model's
// table. That structure splits cleanly:
//
//   pair-swap classes — a single mover on axis u plus a head-on pair
//       on one other axis; the collision moves the pair to the third
//       axis. Six size-2 classes, each its own inverse, so they are
//       chirality-independent and evaluate word-parallel (cubic_word's
//       ex/ey/ez masks).
//   axis-cycle classes — the zero-momentum states whose axes each
//       carry a full pair or nothing: {x, y, z} pairs (mass 2) and
//       {xy, xz, yz} double-pairs (mass 4) each form a 3-cycle whose
//       direction is the chirality variant. Not rare: 7.7% of sites
//       at a 0.3 fill, ≈ 4.9 per 64-site word. The two cycles are
//       opposite rotations of the three pair masks, so a majority mask
//       XORed with the chirality word picks each site's rotation and
//       the new pair masks are AND-OR selects — word-parallel, the
//       chirality word included: Gas3Model::chirality_word hashes once
//       per 64 sites, like the 2-D FHP span's.
//   everything else — singleton classes: identity.
//
// Obstacle sites bounce (each channel takes its opposite's gathered
// bit), and the obstacle plane itself is static — primed once per run.
// The algebra is one more word function of the 2-D span family
// (cubic_word in src/lgca/src/plane_span.inc), reached through
// PlaneSpanOps::cubic at the active SIMD level. A row never fills a
// vector block at the shapes that matter (a 192-wide row is 3 payload
// words, stored dense), so the span runs across rows: a z-plane's
// compact rows are one word range per plane, and its interior rows
// (all but y = 0 and y = ny - 1, whose ±y taps wrap or read zero) are
// one run — the ±y taps an offset of ±words, the ±z taps the same rows
// of the neighbouring z-planes, or of the zero plane past a Null
// volume's z edge. The y-edge rows are one-row runs with their taps
// resolved, so a compact volume makes no row-span call; rows of 8 or
// more words are row spans. Every fault
// draw is keyed by global (x, y, z) through the flattened inner
// lattice, so the run is bit-identical at every SIMD level. Bit-
// identical to lgca3d::reference_step per site, by construction, by a
// step that meets every (state, obstacle, chirality), by the parity
// matrix in tests/test_plane_lattice3.cpp and by the level sweep in
// tests/test_lgca3d.cpp.
//
// The runners below are instances of the one band/trapezoid
// scheduler's runner (lattice/lgca/scheduler.hpp) with the unit
// promoted from a row to a z-plane of ny rows: up to `threads`
// contiguous z-slabs are owned by persistent pool lanes, one
// rendezvous per generation. This z-slab
// decomposition is the software shape of the sliced 3-D SPA — slabs of
// z-planes exchanging faces (the slab-boundary rows the neighbor bands
// gather) at each generation barrier, generalizing the 2-D strip
// machines' side channels. plane_gas_run_tiled3 is the §7 Theorem 4
// schedule in d = 3: trapezoidal z-slab tiles advanced depth
// generations per memory visit, R = O(B·S^(1/3)). The kernel supplies
// only its unit operations (update_planes, update_plane_window and the
// plane masks); static planes are primed by the shared 2-D priming.

#pragma once

#include <cstdint>

#include "lattice/lgca/plane_kernel.hpp"
#include "lattice/lgca/temporal_tile.hpp"
#include "lattice/lgca3d/plane_lattice3.hpp"

namespace lattice::lgca3d {

class PlaneKernel3 {
 public:
  /// The (immutable) singleton — one 3-D gas, one kernel.
  static const PlaneKernel3& get();

  /// The six channel planes; obstacle (7) is static, 6 is unused (the
  /// run primes it to zero in both buffers, as the reference gather
  /// never reads it).
  std::uint32_t written_planes() const noexcept { return 0x3fu; }
  /// Only the ±x channels gather with a column shift.
  std::uint32_t halo_planes() const noexcept { return 0x03u; }

  /// Compute generation-(t+1) z-planes [z0, z1) of `next` from the
  /// generation-t lattice `cur`, whose ±x shift halo (wide rows) must
  /// be current (prepare_shift_halo) and whose static planes must be
  /// primed. On return the produced z-planes of a wide `next` are
  /// halo-ready for the following generation.
  void update_planes(PlaneLattice3& next, const PlaneLattice3& cur,
                     std::int64_t t, std::int64_t z0, std::int64_t z1) const;

  /// Windowed single-z-plane update for the temporal tiling driver:
  /// compute one full z-plane into `next` at storage plane `dst_z`
  /// from `cur` centered on storage plane `src_z`, where the two
  /// lattices may have different depths (a trapezoid scratch slab vs
  /// the real volume). `sem_z` is the plane's semantic lattice
  /// coordinate — it feeds the chirality hash alone, since the cubic
  /// taps have no parity structure. Source z-planes resolve as
  /// src_z ± 1 against cur's own depth and boundary (out-of-range
  /// reads zero under Null); y taps resolve within the z-plane, x taps
  /// through the shift halo or the run's wrap. update_planes is exactly
  /// this with
  /// dst_z == src_z == sem_z. Does NOT fill the produced plane's
  /// halo — the callers decide between band-local and per-plane fills.
  void update_plane_window(PlaneLattice3& next, std::int64_t dst_z,
                           const PlaneLattice3& cur, std::int64_t src_z,
                           std::int64_t sem_z, std::int64_t t) const;

 private:
  PlaneKernel3() = default;
};

/// Advance `lat` by `generations` steps of the 3-D gas, double-
/// buffered, with up to `threads` z-slab bands (one rendezvous per
/// generation; a band never owns less than `band_grain_words` payload
/// words per plane per generation — 0 picks the 2-D planner's
/// kDefaultBandGrainWords — so thread scaling stays monotone). `hooks`
/// observe the flattened inner lattice (row r = z*ny + y), which is how
/// the plane-memory fault guard rides the 3-D runner unchanged.
/// Bit-identical to reference_run for any thread count.
void plane_gas_run3(PlaneLattice3& lat, std::int64_t generations,
                    std::int64_t t0 = 0, unsigned threads = 1,
                    std::int64_t band_grain_words = 0,
                    lgca::PlaneRunHooks* hooks = nullptr);

/// Whether the tiled driver would actually tile: same predicate as the
/// 2-D temporal_tiling_feasible with rows promoted to z-planes
/// (tiling.tile_rows = output z-planes per tile).
bool temporal_tiling_feasible3(const lgca::TemporalTiling& tiling,
                               Extent3 extent, Boundary3 boundary);

/// plane_gas_run3 with temporal blocking: tiling.depth generations per
/// trapezoidal z-slab tile, redundant seam recompute, one rendezvous
/// per block. Runs plane_gas_run3's plain sweep when the tiling is
/// infeasible.
/// Bit-identical to plane_gas_run3 for any tiling.
void plane_gas_run_tiled3(PlaneLattice3& lat, std::int64_t generations,
                          std::int64_t t0, unsigned threads,
                          const lgca::TemporalTiling& tiling,
                          lgca::PlaneRunHooks* hooks = nullptr);

/// Byte-volume convenience wrappers: pack once, run, unpack once.
void bitplane_gas_run3(Lattice3& lat, std::int64_t generations,
                       std::int64_t t0 = 0, unsigned threads = 1,
                       std::int64_t band_grain_words = 0,
                       lgca::PlaneRunHooks* hooks = nullptr);
void bitplane_gas_run_tiled3(Lattice3& lat, std::int64_t generations,
                             std::int64_t t0, unsigned threads,
                             const lgca::TemporalTiling& tiling,
                             lgca::PlaneRunHooks* hooks = nullptr);

/// The engine-facing flattened form: `lat` must be the {nx, ny*nz}
/// byte view of an {nx, ny, nz} volume (lgca3d::flat_extent), boundary
/// mapped through to_boundary2.
void bitplane_gas_run3(lgca::SiteLattice& lat, Extent3 extent,
                       std::int64_t generations, std::int64_t t0 = 0,
                       unsigned threads = 1,
                       std::int64_t band_grain_words = 0,
                       lgca::PlaneRunHooks* hooks = nullptr);
void bitplane_gas_run_tiled3(lgca::SiteLattice& lat, Extent3 extent,
                             std::int64_t generations, std::int64_t t0,
                             unsigned threads,
                             const lgca::TemporalTiling& tiling,
                             lgca::PlaneRunHooks* hooks = nullptr);

}  // namespace lattice::lgca3d
