// 3-D plane coding and bit-plane kernel: packing round trips, the
// parity matrix against the golden reference (awkward extents ×
// boundaries × threads × temporal tilings), pipeline cross-checks, and
// conservation soaks — the d = 3 leg of the bit-exactness contract.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "lattice/lgca3d/pipeline3.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"

namespace lattice::lgca3d {
namespace {

/// Scattered obstacles plus a seeded random gas — every parity case
/// runs with boundaries in play *and* bounce-back in play.
Lattice3 make_volume(Extent3 e, Boundary3 b, std::uint64_t seed) {
  Lattice3 lat(e, b);
  for (std::int64_t z = 0; z < e.nz; ++z) {
    for (std::int64_t y = 0; y < e.ny; ++y) {
      for (std::int64_t x = 0; x < e.nx; ++x) {
        if ((x * 7 + y * 5 + z * 3 + 1) % 11 == 0) {
          lat.at({x, y, z}) = kObstacleBit;
        }
      }
    }
  }
  fill_random(lat, 0.3, seed);
  return lat;
}

const std::vector<Extent3>& parity_extents() {
  // Non-multiple-of-64 nx (sub-word, straddling, exact), nz = 1
  // degeneracy, ny = 1 degeneracy, and a boxy interior case.
  static const std::vector<Extent3> extents = {
      {5, 4, 3}, {63, 3, 2}, {64, 2, 3}, {65, 2, 4},
      {33, 1, 5}, {40, 5, 1}, {20, 6, 6},
  };
  return extents;
}

TEST(PlaneLattice3, BoundaryAndExtentMaps) {
  EXPECT_EQ(to_boundary2(Boundary3::Null), lgca::Boundary::Null);
  EXPECT_EQ(to_boundary2(Boundary3::Periodic), lgca::Boundary::Periodic);
  EXPECT_EQ(to_boundary3(lgca::Boundary::Null), Boundary3::Null);
  EXPECT_EQ(to_boundary3(lgca::Boundary::Periodic), Boundary3::Periodic);
  const Extent flat = flat_extent({65, 3, 4});
  EXPECT_EQ(flat.width, 65);
  EXPECT_EQ(flat.height, 12);
}

TEST(PlaneLattice3, PackUnpackRoundTrip) {
  for (const Extent3 e : parity_extents()) {
    const Lattice3 lat = make_volume(e, Boundary3::Periodic, 7);
    const PlaneLattice3 planes(lat);
    EXPECT_EQ(planes.to_sites3(), lat);
  }
}

TEST(PlaneLattice3, RowAddressingMatchesRaster) {
  const Extent3 e{70, 3, 4};
  Lattice3 lat(e, Boundary3::Null);
  lat.at({66, 2, 3}) = channel_bit(4);
  const PlaneLattice3 planes(lat);
  EXPECT_EQ(planes.row(4, 3, 2)[1] >> 2 & 1, 1u);
  EXPECT_EQ(planes.row(4, 3, 2)[0], 0u);
  EXPECT_EQ(planes.inner().row(4, 3 * e.ny + 2)[1], planes.row(4, 3, 2)[1]);
}

TEST(PlaneLattice3, FlatPackMatchesVolumePack) {
  const Extent3 e{65, 3, 4};
  const Lattice3 lat = make_volume(e, Boundary3::Periodic, 11);
  const PlaneLattice3 from_volume(lat);

  lgca::SiteLattice flat(flat_extent(e), lgca::Boundary::Periodic);
  for (std::size_t i = 0; i < lat.site_count(); ++i) {
    flat.grid().data()[i] = lat[i];
  }
  PlaneLattice3 from_flat(e, Boundary3::Periodic);
  from_flat.pack(flat);
  EXPECT_EQ(from_flat, from_volume);
}

TEST(PlaneKernel3, SingleStepMatchesReferenceEverywhere) {
  for (const Extent3 e : parity_extents()) {
    for (const Boundary3 b : {Boundary3::Null, Boundary3::Periodic}) {
      Lattice3 ref = make_volume(e, b, 13);
      Lattice3 bp = ref;
      reference_step(ref, 0);
      bitplane_gas_run3(bp, 1);
      EXPECT_EQ(bp, ref) << "extent {" << e.nx << "," << e.ny << "," << e.nz
                         << "} boundary " << static_cast<int>(b);
    }
  }
}

TEST(PlaneKernel3, EveryStateMatchesTheTableUnderBothChiralities) {
  // A periodic volume whose gathered input at (x, y, z) is state x:
  // channel d reaches r from r - e_d, so it is set there. Obstacles on
  // odd z give every moving state both obstacle values, and each of
  // the 128 (state, obstacle) cells spans 16 × 8 sites, enough for the
  // chirality hash to draw both variants in every cell.
  const Extent3 e{64, 16, 16};
  const auto wrap = [](std::int64_t v, std::int64_t n) {
    return ((v % n) + n) % n;
  };
  Lattice3 start(e, Boundary3::Periodic);
  for (std::int64_t z = 0; z < e.nz; ++z) {
    for (std::int64_t y = 0; y < e.ny; ++y) {
      for (std::int64_t x = 0; x < e.nx; ++x) {
        if (z % 2 != 0) start.at({x, y, z}) |= kObstacleBit;
        for (int d = 0; d < kChannels; ++d) {
          if (((x >> d) & 1) == 0) continue;
          const Vec3 v = velocity_of(d);
          start.at({wrap(x - v.x, e.nx), wrap(y - v.y, e.ny),
                    wrap(z - v.z, e.nz)}) |= channel_bit(d);
        }
      }
    }
  }
  PlaneLattice3 planes(start);
  const std::int64_t t = 5;
  plane_gas_run3(planes, 1, t);
  const Lattice3 got = planes.to_sites3();

  const Gas3Model& model = Gas3Model::get();
  std::array<std::array<bool, 2>, 128> seen{};
  for (std::int64_t z = 0; z < e.nz; ++z) {
    for (std::int64_t y = 0; y < e.ny; ++y) {
      for (std::int64_t x = 0; x < e.nx; ++x) {
        const Site in = static_cast<Site>(x | (z % 2 != 0 ? kObstacleBit : 0));
        const int v = Gas3Model::chirality(x, y, z, t);
        ASSERT_EQ(got.at({x, y, z}), model.collide(in, v))
            << "state " << x << " at (" << x << "," << y << "," << z << ")";
        const auto cell = static_cast<std::size_t>(x + 64 * (z % 2));
        seen[cell][static_cast<std::size_t>(v)] = true;
      }
    }
  }
  for (std::size_t cell = 0; cell < seen.size(); ++cell) {
    EXPECT_TRUE(seen[cell][0] && seen[cell][1])
        << "state " << cell % 64 << " obstacle " << cell / 64;
  }
}

TEST(PlaneKernel3, MultiGenerationParityAcrossThreads) {
  for (const Extent3 e : parity_extents()) {
    for (const Boundary3 b : {Boundary3::Null, Boundary3::Periodic}) {
      Lattice3 ref = make_volume(e, b, 17);
      const Lattice3 init = ref;
      reference_run(ref, 6, 2);
      for (const unsigned threads : {1u, 4u}) {
        Lattice3 bp = init;
        // Grain of 1 word forces real multi-band execution on these
        // small volumes when threads > 1.
        bitplane_gas_run3(bp, 6, 2, threads, 1);
        EXPECT_EQ(bp, ref)
            << "extent {" << e.nx << "," << e.ny << "," << e.nz
            << "} boundary " << static_cast<int>(b) << " threads " << threads;
      }
    }
  }
}

TEST(PlaneKernel3, TiledParityAcrossDepthsAndThreads) {
  const Extent3 e{40, 4, 24};
  for (const Boundary3 b : {Boundary3::Null, Boundary3::Periodic}) {
    Lattice3 ref = make_volume(e, b, 19);
    const Lattice3 init = ref;
    reference_run(ref, 7, 1);
    for (const lgca::TemporalTiling tiling :
         {lgca::TemporalTiling{2, 4}, lgca::TemporalTiling{3, 6},
          lgca::TemporalTiling{4, 8}}) {
      ASSERT_TRUE(temporal_tiling_feasible3(tiling, e, b));
      for (const unsigned threads : {1u, 4u}) {
        Lattice3 bp = init;
        bitplane_gas_run_tiled3(bp, 7, 1, threads, tiling);
        EXPECT_EQ(bp, ref) << "boundary " << static_cast<int>(b) << " depth "
                           << tiling.depth << " tile_rows "
                           << tiling.tile_rows << " threads " << threads;
      }
    }
  }
}

TEST(PlaneKernel3, InfeasibleTilingFallsBackToPlainSweep) {
  const Extent3 e{33, 3, 4};
  for (const lgca::TemporalTiling tiling :
       {lgca::TemporalTiling{1, 0}, lgca::TemporalTiling{2, 1},
        lgca::TemporalTiling{2, 4},  // one tile: nz/tile_rows < 2
        lgca::TemporalTiling{3, 3}}) {  // Null: scratch 7 > nz 4
    EXPECT_FALSE(temporal_tiling_feasible3(tiling, e, Boundary3::Null));
    Lattice3 ref = make_volume(e, Boundary3::Null, 23);
    Lattice3 bp = ref;
    reference_run(ref, 4);
    bitplane_gas_run_tiled3(bp, 4, 0, 2, tiling);
    EXPECT_EQ(bp, ref);
  }
}

TEST(PlaneKernel3, FlatViewMatchesVolumeRun) {
  const Extent3 e{65, 3, 6};
  const Lattice3 init = make_volume(e, Boundary3::Periodic, 29);
  Lattice3 volume = init;
  bitplane_gas_run3(volume, 5, 3, 2, 1);

  lgca::SiteLattice flat(flat_extent(e), lgca::Boundary::Periodic);
  for (std::size_t i = 0; i < init.site_count(); ++i) {
    flat.grid().data()[i] = init[i];
  }
  bitplane_gas_run3(flat, e, 5, 3, 2, 1);
  for (std::size_t i = 0; i < init.site_count(); ++i) {
    ASSERT_EQ(flat.grid().data()[i], volume[i]) << "site " << i;
  }

  lgca::SiteLattice flat_tiled(flat_extent(e), lgca::Boundary::Periodic);
  for (std::size_t i = 0; i < init.site_count(); ++i) {
    flat_tiled.grid().data()[i] = init[i];
  }
  Lattice3 volume_tiled = init;
  const lgca::TemporalTiling tiling{2, 2};
  bitplane_gas_run_tiled3(volume_tiled, 5, 3, 2, tiling);
  bitplane_gas_run_tiled3(flat_tiled, e, 5, 3, 2, tiling);
  for (std::size_t i = 0; i < init.site_count(); ++i) {
    ASSERT_EQ(flat_tiled.grid().data()[i], volume_tiled[i]) << "site " << i;
  }
}

TEST(PlaneKernel3, AgreesWithPipeline3) {
  // Three-way: golden reference vs systolic pipeline vs bit-plane
  // kernel, all from one initial state (Pipeline3 is Null-only).
  const Extent3 e{17, 5, 4};
  Lattice3 init(e, Boundary3::Null);
  fill_random(init, 0.35, 31);

  Lattice3 ref = init;
  reference_run(ref, 4);

  Pipeline3 pipe(e, 4);
  const Lattice3 piped = pipe.run(init);

  Lattice3 bp = init;
  bitplane_gas_run3(bp, 4);

  EXPECT_EQ(piped, ref);
  EXPECT_EQ(bp, ref);
}

TEST(PlaneKernel3, ConservationSoak) {
  const Extent3 e{48, 6, 8};
  // Obstacle-free periodic volume: mass and momentum are both exact
  // invariants of the collision table.
  Lattice3 lat(e, Boundary3::Periodic);
  fill_random(lat, 0.3, 37);
  const Invariants3 before = measure_invariants(lat);
  bitplane_gas_run3(lat, 50, 0, 4, 1);
  EXPECT_EQ(measure_invariants(lat), before);

  const lgca::TemporalTiling tiling{3, 4};
  ASSERT_TRUE(temporal_tiling_feasible3(tiling, e, Boundary3::Periodic));
  bitplane_gas_run_tiled3(lat, 50, 50, 4, tiling);
  EXPECT_EQ(measure_invariants(lat), before);

  // With obstacles, bounce-back reverses momentum at the walls: mass
  // and the obstacle census stay exact, momentum deliberately not.
  Lattice3 walls = make_volume(e, Boundary3::Periodic, 37);
  const Invariants3 wb = measure_invariants(walls);
  bitplane_gas_run3(walls, 50, 0, 4, 1);
  const Invariants3 wa = measure_invariants(walls);
  EXPECT_EQ(wa.mass, wb.mass);
  EXPECT_EQ(wa.obstacles, wb.obstacles);
}

TEST(PlaneKernel3, ZeroGenerationsIsIdentity) {
  const Extent3 e{65, 2, 3};
  const Lattice3 init = make_volume(e, Boundary3::Null, 41);
  Lattice3 lat = init;
  bitplane_gas_run3(lat, 0);
  EXPECT_EQ(lat, init);
}

}  // namespace
}  // namespace lattice::lgca3d
