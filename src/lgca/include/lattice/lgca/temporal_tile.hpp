// Temporal (trapezoidal) tiling of the lattice-gas update.
//
// The paper's §7 argument (Theorem 4) is that streaming the lattice
// through the processor once per generation pins the update rate at
// R = B — one update per memory word moved — while a schedule that
// keeps an S-site working set resident and advances it several
// generations before writing back can reach R = O(B·S^(1/d)). This
// header is that schedule in software: split the lattice into row
// tiles sized to the cache, and for each tile compute `depth`
// generations before touching the next one, so the tile's rows are
// read from and written to main memory once per `depth` generations
// instead of once per generation.
//
// The shape of one tile is a trapezoid in (y, t): to produce output
// rows [y0, y1) at generation t+k from committed generation-t state,
// step g (1-based) computes the shrinking window
//   [y0 - (k - g), y1 + (k - g))      (clamped to the lattice under a
//                                      Null boundary, unwrapped under
//                                      Periodic)
// so every row a later step reads was produced one step earlier in the
// same tile. The (k-1)-row skirts overlap the neighboring tiles'
// trapezoids and are recomputed redundantly — the classic overlapped
// "ghost zone" scheme — which makes tiles fully *independent*: any
// tile order, any tile-to-thread assignment, and any thread count give
// bit-identical results, because every tile reads only the committed
// generation-t lattice plus its own intermediates. The recompute tax
// is (depth-1)/tile_rows of the useful row updates (the planner keeps
// it under ~12%); what it buys is the Theorem 4 reuse factor.
//
// Intermediate generations live in two per-worker scratch strips of
// tile_rows + 2(depth-1) rows that ping-pong between steps; only the
// final step writes the real double buffer. Correctness of the
// windowed row update (storage row vs semantic row, hex parity,
// chirality hash, boundary resolution) is documented on
// PlaneKernel::update_row_window / CollisionLut::update_span_window.
// The runners below are the tiled halves of the plain runners' pairs:
// each pair is one call of the band/trapezoid scheduler's one runner
// (scheduler.hpp), which holds the trapezoid step, the runner and the
// feasibility rule once for rows (2-D planes and bytes) and z-planes
// (3-D, plane_kernel3.hpp) alike, the plain sweep being its depth-1
// case. Everything here is bit-identical to plane_gas_run /
// fused_gas_run for every (gas, boundary, SIMD level, thread count,
// depth) — by the induction above, and by the tile-seam sweep in
// tests/test_temporal_tile.cpp.

#pragma once

#include <cstdint>

#include "lattice/lgca/collision_lut.hpp"
#include "lattice/lgca/plane_kernel.hpp"

namespace lattice::lgca {

/// One temporal-blocking decision, as consumed by the tiled drivers.
/// Producing it from a cache model is the job of
/// lattice::core::plan_temporal_tiles (core/tile_plan.hpp); lgca only
/// needs the two numbers.
struct TemporalTiling {
  /// Generations computed per tile visit (k). depth <= 1 means "no
  /// temporal blocking": the runner's plain sweep.
  std::int64_t depth = 1;
  /// Output units per tile at the final step — rows, or z-planes for
  /// the 3-D runners. The scratch strips hold tile_rows + 2*(depth-1)
  /// units each.
  std::int64_t tile_rows = 0;
};

/// Whether the tiled drivers would actually tile this run: the
/// scheduler's tiling_feasible rule over the lattice's rows (depth >=
/// 2, tile_rows >= depth, at least two tiles, and under a Null
/// boundary a scratch strip no taller than the lattice). The drivers
/// fall back to the plain sweep when this is false, so callers may
/// pass any TemporalTiling.
bool temporal_tiling_feasible(const TemporalTiling& tiling, Extent extent,
                              Boundary boundary);

/// plane_gas_run with temporal blocking: advance `lat` by `generations`
/// gas steps, computing tiling.depth generations per cache-resident
/// trapezoidal tile. Tiles of one block are independent (redundant
/// seam recompute) and are distributed over up to `threads` pool lanes;
/// one rendezvous per block (i.e. per depth generations) replaces the
/// plain sweep's rendezvous per generation. `hooks` fire at block
/// granularity, per lane over its own rows — before_rows on the
/// committed lattice before a block, after_rows after it — so fault
/// injection strikes the DRAM-resident committed state while
/// cache-resident intermediates stay clean, and a detected fault still
/// rolls the whole block back. An infeasible tiling (or a single
/// generation) runs the plain sweep at the default grain.
/// Bit-identical to plane_gas_run for any tiling.
void plane_gas_run_tiled(PlaneLattice& lat, const PlaneKernel& kernel,
                         std::int64_t generations, std::int64_t t0,
                         unsigned threads, const TemporalTiling& tiling,
                         PlaneRunHooks* hooks = nullptr);

/// Byte-lattice convenience wrapper: pack once, run tiled, unpack once
/// (the bitplane_gas_run counterpart).
void bitplane_gas_run_tiled(SiteLattice& lat, const PlaneKernel& kernel,
                            std::int64_t generations, std::int64_t t0,
                            unsigned threads, const TemporalTiling& tiling,
                            PlaneRunHooks* hooks = nullptr);

/// fused_gas_run with temporal blocking — the byte-LUT path of the
/// reference executor, covering all four gases (including FHP-III,
/// which has no plane kernel). Same trapezoid scheme over SiteLattice
/// scratch strips; the collide table preserves the obstacle and rest
/// bits, so byte scratch rows carry the full site state automatically.
/// An infeasible tiling runs fused_gas_run's plain sweep.
/// Bit-identical to fused_gas_run for any tiling.
void fused_gas_run_tiled(SiteLattice& lat, const CollisionLut& lut,
                         std::int64_t generations, std::int64_t t0,
                         unsigned threads, const TemporalTiling& tiling);

}  // namespace lattice::lgca
