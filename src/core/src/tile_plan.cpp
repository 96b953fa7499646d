#include "lattice/core/tile_plan.hpp"

#include <algorithm>

#include "lattice/common/error.hpp"
#include "lattice/lgca/plane_lattice.hpp"
#include "lattice/pebble/bounds.hpp"

namespace lattice::core {

std::int64_t plane_row_bytes(Extent extent) {
  using lgca::PlaneLattice;
  return PlaneLattice::kPlanes * PlaneLattice::row_stride_for(extent.width) *
         (PlaneLattice::kWordBits / 8);
}

std::int64_t byte_row_bytes(Extent extent) { return extent.width; }

std::int64_t plane_slab_bytes(lgca3d::Extent3 extent) {
  return extent.ny * plane_row_bytes({extent.nx, extent.ny});
}

TilePlan plan_temporal_tiles(Extent extent, lgca::Boundary boundary,
                             std::int64_t row_bytes,
                             std::int64_t requested_depth,
                             std::int64_t cache_bytes) {
  LATTICE_REQUIRE(row_bytes > 0, "tile plan needs a positive row footprint");
  TilePlan plan;
  plan.row_bytes = row_bytes;
  plan.cache_bytes = cache_bytes > 0 ? cache_bytes : kDefaultTileCacheBytes;
  plan.lattice_bytes = extent.height * row_bytes;
  plan.updates_per_io_ceiling = pebble::updates_per_io_upper(
      pebble::kEngineLatticeDim, static_cast<double>(plan.cache_bytes));
  if (requested_depth == 1 || requested_depth < 0 || extent.area() == 0) {
    return plan;
  }

  // Rows the budget can hold across the two ping-pong strips.
  const std::int64_t rows_budget = plan.cache_bytes / (2 * row_bytes);

  const auto resolve = [&](std::int64_t depth) -> bool {
    // Useful rows left after the budget pays for both skirts.
    const std::int64_t rows = std::max(depth, rows_budget - 2 * (depth - 1));
    lgca::TemporalTiling tiling{depth, rows};
    if (!lgca::temporal_tiling_feasible(tiling, extent, boundary)) {
      return false;
    }
    // Even the tiles out exactly as the drivers will.
    const std::int64_t tiles = (extent.height + rows - 1) / rows;
    plan.depth = depth;
    plan.tile_rows = (extent.height + tiles - 1) / tiles;
    plan.tiles = tiles;
    plan.scratch_rows = rows + 2 * (depth - 1);
    plan.working_set_bytes = 2 * plan.scratch_rows * row_bytes;
    plan.recompute_overhead = static_cast<double>(depth - 1) /
                              static_cast<double>(plan.tile_rows);
    return true;
  };

  if (requested_depth >= 2) {
    // An explicit depth is honored if at all feasible; the fallback is
    // depth 1 (plain sweep), never a silently different depth.
    resolve(requested_depth);
    return plan;
  }

  // Auto (requested_depth == 0): blocking only pays when the sweep is
  // NOT already cache-resident — both double buffers over the budget.
  if (2 * plan.lattice_bytes <= plan.cache_bytes) return plan;
  // Deepest k whose tile keeps >= 8 useful rows per skirt row, so the
  // redundant recompute stays under ~1/8 of the work.
  for (std::int64_t depth = 12; depth >= 2; --depth) {
    const std::int64_t rows = rows_budget - 2 * (depth - 1);
    if (rows < 8 * depth) continue;
    if (resolve(depth)) break;
  }
  return plan;
}

TilePlan plan_temporal_tiles3(lgca3d::Extent3 extent,
                              lgca3d::Boundary3 boundary,
                              std::int64_t requested_depth,
                              std::int64_t cache_bytes) {
  // The 2-D planner with rows promoted to z-plane slabs: a {nx, nz}
  // "lattice" whose row footprint is the whole slab reproduces exactly
  // the feasibility predicate the 3-D tiled driver enforces (>= 2
  // tiles over nz; Null scratch slab no deeper than nz).
  TilePlan plan = plan_temporal_tiles({extent.nx, extent.nz},
                                      lgca3d::to_boundary2(boundary),
                                      plane_slab_bytes(extent),
                                      requested_depth, cache_bytes);
  plan.updates_per_io_ceiling =
      pebble::updates_per_io_upper(3, static_cast<double>(plan.cache_bytes));
  return plan;
}

}  // namespace lattice::core
