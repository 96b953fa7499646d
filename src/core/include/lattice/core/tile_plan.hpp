// Temporal tile planning — the cache-size model that picks how many
// generations to compute per cache-resident tile.
//
// The paper's Theorem 4 bounds the update rate of any engine by
// R ≤ B·τ(2S): with S sites of fast storage and B words/s of memory
// bandwidth, at most τ(2S) = O(S^(1/d)) updates can be extracted per
// word moved. The plain sweeps sit at the R = B floor of that bound —
// every generation streams the whole lattice through the cache once.
// plan_temporal_tiles() picks the software analog of the paper's
// blocked pebbling schedule: a tile height small enough that two
// double-buffered strips fit the cache budget, and the largest depth k
// whose skirt overhead stays a small fraction of the tile, so each
// lattice word fetched from DRAM is used k times instead of once.
//
// The planner is deliberately conservative and deterministic: it knows
// the row footprint of the target storage layout (bit-plane rows are
// 8 planes × PlaneLattice::row_stride_for words; byte rows are `width`
// bytes), a fixed cache budget (no runtime cache sniffing —
// reproducible plans beat clever ones), and nothing else. When the
// whole lattice already fits the budget, temporal blocking cannot help
// (the sweep is already cache-resident) and auto mode stays at depth 1.

#pragma once

#include <cstdint>

#include "lattice/lgca/temporal_tile.hpp"
#include "lattice/lgca3d/plane_lattice3.hpp"

namespace lattice::core {

/// A resolved temporal-blocking decision plus the model numbers behind
/// it — everything lattice_profile prints and bench_schedule_io logs.
struct TilePlan {
  /// Generations per tile visit; 1 = no temporal blocking.
  std::int64_t depth = 1;
  /// Output rows per tile (the evened value the drivers will use).
  std::int64_t tile_rows = 0;
  /// Number of tiles the lattice splits into.
  std::int64_t tiles = 0;
  /// Rows per scratch strip: tile_rows + 2*(depth-1).
  std::int64_t scratch_rows = 0;
  /// Bytes of one storage row of the target layout.
  std::int64_t row_bytes = 0;
  /// Bytes the two scratch strips pin in cache.
  std::int64_t working_set_bytes = 0;
  /// Bytes of one full lattice buffer in the target layout.
  std::int64_t lattice_bytes = 0;
  /// The cache budget the plan was sized against.
  std::int64_t cache_bytes = 0;
  /// Redundant skirt-row recompute as a fraction of useful rows:
  /// (depth - 1) / tile_rows.
  double recompute_overhead = 0;
  /// τ(2S) at S = cache_bytes — the Theorem 4 updates-per-word ceiling
  /// the measured k-ladder is bending toward (d = 2).
  double updates_per_io_ceiling = 0;

  /// The two numbers the lgca drivers consume.
  lgca::TemporalTiling tiling() const noexcept {
    return {depth, tile_rows};
  }
};

/// Default cache budget when the caller passes 0: half of a
/// conservative 2 MiB per-core L2 — small enough that the strips stay
/// resident under the rest of the working set on any machine this
/// runs on, large enough for multi-thousand-site rows at useful depth.
inline constexpr std::int64_t kDefaultTileCacheBytes = 1 << 20;

/// Bytes of one bit-plane storage row of a width-`w` lattice: all
/// kPlanes planes at PlaneLattice::row_stride_for(w) words each.
std::int64_t plane_row_bytes(Extent extent);

/// Bytes of one byte-lattice row: one byte per site.
std::int64_t byte_row_bytes(Extent extent);

/// Resolve a temporal tile plan.
///
/// `requested_depth` is Config::tile_generations: 1 (or anything < 0)
/// disables blocking; 0 asks the cache model to choose — the largest
/// depth in [2, 12] whose tile still holds >= 8 useful rows per skirt
/// row inside the budget, and only when the lattice itself does NOT
/// fit the budget (a cache-resident sweep gains nothing from blocking
/// and would pay the skirt tax); >= 2 is honored as given, with
/// tile_rows sized to the budget (never below the depth itself).
/// The returned plan always satisfies temporal_tiling_feasible() or
/// has depth == 1.
TilePlan plan_temporal_tiles(Extent extent, lgca::Boundary boundary,
                             std::int64_t row_bytes,
                             std::int64_t requested_depth,
                             std::int64_t cache_bytes = 0);

/// Bytes of one z-plane slab in the 3-D bit-plane layout: ny bit-plane
/// storage rows. The slab is the tile unit of the z-blocked 3-D
/// drivers, so it plays the role plane_row_bytes plays in 2-D.
std::int64_t plane_slab_bytes(lgca3d::Extent3 extent);

/// The d = 3 plan: identical cache model with the row unit promoted to
/// a z-plane slab (TilePlan::tile_rows counts z-planes, row_bytes holds
/// slab bytes) and the Theorem 4 ceiling evaluated at d = 3 — the
/// working set a depth-k z-slab trapezoid pins is what bends R/B toward
/// the S^(1/3) law. The returned plan always satisfies
/// lgca3d::temporal_tiling_feasible3 or has depth == 1.
TilePlan plan_temporal_tiles3(lgca3d::Extent3 extent,
                              lgca3d::Boundary3 boundary,
                              std::int64_t requested_depth,
                              std::int64_t cache_bytes = 0);

}  // namespace lattice::core
