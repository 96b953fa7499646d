// Private helpers that let the dimension-blind engine layers carry a
// 3-D volume: the engine's state stays a flat {nx, ny·nz} SiteLattice
// (byte-compatible with lgca3d::Lattice3's raster), and golden_run is
// the one place that picks the golden updater for it — the reference
// executor, the oracle rung and verify_against_reference all replay
// through it.

#pragma once

#include <cstdint>

#include "lattice/core/engine.hpp"
#include "lattice/lgca3d/plane_lattice3.hpp"

namespace lattice::core::detail {

/// The semantic {nx, ny, nz} box of a 3-D engine config.
lgca3d::Extent3 extent3_of(const LatticeEngine::Config& config);

/// Run `generations` golden steps from t0 on the engine's state:
/// lgca::reference_run under `rule` for a 2-D backend; for a 3-D one,
/// copy the flat view into a Lattice3, run the gather-and-collide
/// updater, copy back (exact, because the two rasters coincide). A
/// volume ignores `rule`, which is the 2-D GasRule of config.gas.
void golden_run(lgca::SiteLattice& state, const LatticeEngine::Config& config,
                const lgca::Rule& rule, std::int64_t generations,
                std::int64_t t0);

}  // namespace lattice::core::detail
