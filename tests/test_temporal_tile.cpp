// Temporal (trapezoidal) tiling — the tiled drivers against the plain
// sweeps, bit for bit. The sweep is deliberately hostile to the seam
// logic: awkward extents whose last tile is short, both boundary
// modes, generation counts that are not a multiple of the depth, every
// compiled SIMD level, and multiple thread counts — any off-by-one in
// the trapezoid windows, the scratch-strip base, or the semantic-row
// bookkeeping shows up as a flipped bit at a tile seam. The engine
// half proves the checkpoint cadence quantizes to tile blocks and that
// fault recovery still converges on the tiled path.

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

#include "lattice/core/engine.hpp"
#include "lattice/core/tile_plan.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/plane_lattice.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/lgca/reference.hpp"
#include "lattice/lgca/temporal_tile.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"
#include "lattice/obs/metrics.hpp"

namespace lattice::lgca {
namespace {

const char* kind_name(GasKind k) {
  switch (k) {
    case GasKind::HPP: return "HPP";
    case GasKind::FHP_I: return "FHP_I";
    case GasKind::FHP_II: return "FHP_II";
    case GasKind::FHP_III: return "FHP_III";
  }
  return "unknown";
}

SiteLattice seeded(Extent e, Boundary b, const GasModel& model,
                   std::uint64_t seed) {
  SiteLattice lat(e, b);
  fill_random(lat, model, 0.35, seed, 0.2);
  if (e.width > 8 && e.height > 8) {
    add_obstacle_disk(lat, e.width / 2, e.height / 2, 2);
  }
  return lat;
}

TEST(TemporalTileFeasibility, RejectsDegenerateTilings) {
  const Extent e{64, 40};
  // depth < 2 is "tiling off".
  EXPECT_FALSE(temporal_tiling_feasible({1, 16}, e, Boundary::Null));
  // tile_rows < depth would spend more rows on skirts than payload.
  EXPECT_FALSE(temporal_tiling_feasible({4, 3}, e, Boundary::Null));
  // One tile covering the whole lattice: the plain sweep already is
  // that schedule, without the skirt recompute.
  EXPECT_FALSE(temporal_tiling_feasible({2, 40}, e, Boundary::Null));
  // Null boundary: scratch strip taller than the lattice.
  EXPECT_FALSE(temporal_tiling_feasible({8, 30}, e, Boundary::Null));
  // ...which Periodic permits (windows unwrap instead of clamping).
  EXPECT_TRUE(temporal_tiling_feasible({8, 30}, e, Boundary::Periodic));
  EXPECT_TRUE(temporal_tiling_feasible({3, 10}, e, Boundary::Null));
}

class TemporalTileGasTest : public ::testing::TestWithParam<GasKind> {};

INSTANTIATE_TEST_SUITE_P(Gases, TemporalTileGasTest,
                         ::testing::Values(GasKind::HPP, GasKind::FHP_I,
                                           GasKind::FHP_II),
                         [](const auto& info) {
                           return std::string(kind_name(info.param));
                         });

TEST_P(TemporalTileGasTest, TiledBitPlaneMatchesPlainAcrossSeams) {
  // Depths 1 (fallback), 2, 3, 5 over extents whose last tile is
  // short, 7 generations so the final block is partial (kb < k) for
  // every depth > 1, both boundaries, serial and threaded.
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  const GasModel& model = kernel.model();
  for (const Boundary b : {Boundary::Null, Boundary::Periodic}) {
    for (const Extent e : {Extent{96, 37}, Extent{65, 23}}) {
      const SiteLattice start = seeded(e, b, model, 1000 + e.width);
      SiteLattice want = start;
      bitplane_gas_run(want, kernel, 7);
      for (const std::int64_t k : {std::int64_t{1}, std::int64_t{2},
                                   std::int64_t{3}, std::int64_t{5}}) {
        for (const unsigned threads : {1u, 3u}) {
          SiteLattice got = start;
          bitplane_gas_run_tiled(got, kernel, 7, 0, threads,
                                 {k, std::int64_t{8}});
          ASSERT_TRUE(got == want)
              << kind_name(GetParam()) << " " << e.width << "x" << e.height
              << " k=" << k << " threads=" << threads
              << (b == Boundary::Null ? " null" : " periodic");
        }
      }
    }
  }
}

TEST_P(TemporalTileGasTest, TiledAgreesAtEveryCompiledSimdLevel) {
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  const GasModel& model = kernel.model();
  const SiteLattice start =
      seeded({640, 30}, Boundary::Periodic, model, 4242);
  SiteLattice want;
  {
    const ScopedSimdLevel pin(SimdLevel::Scalar);
    want = start;
    bitplane_gas_run(want, kernel, 6);
  }
  for (const SimdLevel level :
       {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512}) {
    if (!simd_supported(level)) continue;
    const ScopedSimdLevel pin(level);
    SiteLattice got = start;
    bitplane_gas_run_tiled(got, kernel, 6, 0, 2, {3, 9});
    ASSERT_TRUE(got == want)
        << kind_name(GetParam()) << " level " << to_string(level);
  }
}

TEST_P(TemporalTileGasTest, NonzeroTimeOriginAndChunkingAreInvariant) {
  // Splitting a tiled run at an arbitrary generation (not a block
  // boundary) and resuming with the carried t0 must reproduce the
  // continuous run: chirality is a position-time hash, and each call
  // re-enters the trapezoid schedule from committed state.
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  const SiteLattice start =
      seeded({96, 37}, Boundary::Null, kernel.model(), 7);
  SiteLattice want = start;
  bitplane_gas_run(want, kernel, 9);
  SiteLattice got = start;
  bitplane_gas_run_tiled(got, kernel, 4, 0, 2, {3, 8});
  bitplane_gas_run_tiled(got, kernel, 5, 4, 2, {3, 8});
  EXPECT_TRUE(got == want) << kind_name(GetParam());
}

TEST(TemporalTileSpares, ReusedBuffersStayExactAcrossGasesAndShapes) {
  // A run takes its packed planes, its double buffer and each lane's
  // two strips from its thread's spares, which hold the words the last
  // run at that shape left: FHP-II's rest plane, another gas's
  // channels, another obstacle. FHP-II, then FHP-I, then HPP at one
  // shape on this thread makes each run reuse the last one's buffers,
  // so a static plane a run fails to rewrite shows as a flipped bit.
  // Odd and even block counts leave the result in either buffer, and
  // two lanes reuse a pool worker's strips as well.
  const TemporalTiling tiling{3, 8};
  for (const Extent e : {Extent{520, 40}, Extent{64, 64}}) {
    for (const Boundary b : {Boundary::Null, Boundary::Periodic}) {
      ASSERT_TRUE(temporal_tiling_feasible(tiling, e, b));
      for (const std::int64_t gens : {std::int64_t{7}, std::int64_t{6}}) {
        for (const unsigned threads : {1u, 2u}) {
          for (const GasKind kind :
               {GasKind::FHP_II, GasKind::FHP_I, GasKind::HPP}) {
            const GasRule rule(kind);
            const std::uint64_t seed = 17 + static_cast<std::uint64_t>(kind);
            const SiteLattice start = seeded(e, b, rule.model(), seed);
            SiteLattice want = start;
            reference_run(want, rule, gens);
            SiteLattice got = start;
            bitplane_gas_run_tiled(got, PlaneKernel::get(kind), gens, 0,
                                   threads, tiling);
            ASSERT_TRUE(got == want)
                << kind_name(kind) << " " << e.width << "x" << e.height
                << " generations " << gens << " threads " << threads
                << (b == Boundary::Null ? " null" : " periodic");
          }
        }
      }
    }
  }
  // Two volumes of one shape with different obstacles: the second run
  // reuses the first one's buffers, obstacle plane included.
  const lgca3d::Extent3 e3{70, 6, 24};
  for (const unsigned threads : {1u, 2u}) {
    for (const std::int64_t seed : {1, 2}) {
      lgca3d::Lattice3 start(e3, lgca3d::Boundary3::Periodic);
      lgca3d::fill_random(start, 0.3, static_cast<std::uint64_t>(seed));
      start.at({10 * seed, 2, 3 * seed}) = kObstacleBit;
      lgca3d::Lattice3 want = start;
      lgca3d::reference_run(want, 7);
      lgca3d::Lattice3 got = start;
      lgca3d::bitplane_gas_run_tiled3(got, 7, 0, threads, {3, 4});
      ASSERT_TRUE(got == want) << "volume " << seed << " threads " << threads;
    }
  }
}

TEST(TemporalTileFused, AllGasesMatchPlainFusedRun) {
  // The byte-LUT path covers FHP-III too (no plane kernel exists).
  for (const GasKind kind : {GasKind::HPP, GasKind::FHP_I, GasKind::FHP_II,
                             GasKind::FHP_III}) {
    const CollisionLut& lut = CollisionLut::get(kind);
    for (const Boundary b : {Boundary::Null, Boundary::Periodic}) {
      const SiteLattice start = seeded({65, 23}, b, lut.model(), 99);
      SiteLattice want = start;
      fused_gas_run(want, lut, 7);
      for (const std::int64_t k :
           {std::int64_t{2}, std::int64_t{3}, std::int64_t{5}}) {
        for (const unsigned threads : {1u, 3u}) {
          SiteLattice got = start;
          fused_gas_run_tiled(got, lut, 7, 0, threads, {k, 7});
          ASSERT_TRUE(got == want)
              << kind_name(kind) << " k=" << k << " threads=" << threads
              << (b == Boundary::Null ? " null" : " periodic");
        }
      }
    }
  }
}

TEST(TemporalTileFused, InfeasibleTilingFallsBackToPlainSweep) {
  const CollisionLut& lut = CollisionLut::get(GasKind::FHP_II);
  const SiteLattice start =
      seeded({48, 12}, Boundary::Null, lut.model(), 3);
  SiteLattice want = start;
  fused_gas_run(want, lut, 5);
  SiteLattice got = start;
  // tile_rows = height: one tile, infeasible, must still be exact.
  fused_gas_run_tiled(got, lut, 5, 0, 2, {3, 12});
  EXPECT_TRUE(got == want);
}

// ---- the hook protocol every plane runner keeps ----

/// Counts every hook call per (generation, flat row): how often
/// before_rows covered a row at generation t, and after_rows likewise,
/// and how many before_rows calls came and how many covered no row.
/// Calls may arrive concurrently from the run's lanes.
class RecordingHooks final : public PlaneRunHooks {
 public:
  RecordingHooks(std::int64_t rows, std::int64_t t0, std::int64_t gens)
      : rows_(rows), t0_(t0), gens_(gens),
        before_(static_cast<std::size_t>(rows * gens), 0),
        after_(static_cast<std::size_t>(rows * gens), 0) {}

  int before_calls = 0;
  int empty_befores = 0;

  void run_begin(PlaneLattice& lat, std::uint32_t, std::uint32_t,
                 std::int64_t t0) override {
    const std::lock_guard<std::mutex> lk(mu_);
    ++run_begins;
    EXPECT_EQ(lat.extent().height, rows_);
    EXPECT_EQ(t0, t0_);
  }
  void before_rows(PlaneLattice&, std::int64_t t, std::int64_t y0,
                   std::int64_t y1) override {
    mark(before_, t, y0, y1);
    const std::lock_guard<std::mutex> lk(mu_);
    ++before_calls;
    if (y0 == y1) ++empty_befores;
  }
  void after_rows(const PlaneLattice&, std::int64_t t, std::int64_t y0,
                  std::int64_t y1) override {
    mark(after_, t, y0, y1);
  }

  /// Expect, for each block of `depth` generations, one before_rows
  /// per row at the block's first generation, one after_rows per row
  /// at its last, and no other call.
  void expect_blocks(std::int64_t depth, const std::string& what) const {
    EXPECT_EQ(run_begins, 1) << what;
    for (std::int64_t g = 0; g < gens_; ++g) {
      const std::int64_t in_block = g % depth;
      const bool first = in_block == 0;
      const bool last = in_block == depth - 1 || g == gens_ - 1;
      for (std::int64_t y = 0; y < rows_; ++y) {
        const auto i = static_cast<std::size_t>(g * rows_ + y);
        ASSERT_EQ(before_[i], first ? 1 : 0)
            << what << ": before_rows, generation " << t0_ + g << " row "
            << y;
        ASSERT_EQ(after_[i], last ? 1 : 0)
            << what << ": after_rows, generation " << t0_ + g << " row "
            << y;
      }
    }
  }

 private:
  void mark(std::vector<int>& hits, std::int64_t t, std::int64_t y0,
            std::int64_t y1) {
    const std::lock_guard<std::mutex> lk(mu_);
    ASSERT_TRUE(t >= t0_ && t < t0_ + gens_) << "generation " << t;
    ASSERT_TRUE(0 <= y0 && y0 <= y1 && y1 <= rows_)
        << "rows [" << y0 << ", " << y1 << ")";
    for (std::int64_t y = y0; y < y1; ++y) {
      ++hits[static_cast<std::size_t>((t - t0_) * rows_ + y)];
    }
  }

  std::mutex mu_;
  std::int64_t rows_;
  std::int64_t t0_;
  std::int64_t gens_;
  int run_begins = 0;
  std::vector<int> before_;
  std::vector<int> after_;
};

struct HookCase {
  const char* name;
  std::int64_t depth;  // 1: the plain sweep at grain 1
  unsigned threads;
};

constexpr HookCase kHookCases[] = {
    {"1 band", 1, 1}, {"4 bands", 1, 4}, {"depth 3, 1 lane", 3, 1},
    {"depth 3, 3 lanes", 3, 3}};

TEST(RunnerHooks, EveryRowOncePerBlockOn2dRows) {
  // 7 generations: the last depth-3 block is partial. 12 rows of 3
  // make four tiles, so three lanes each own at least one.
  const PlaneKernel& kernel = PlaneKernel::get(GasKind::FHP_II);
  const Extent e{100, 12};
  const std::int64_t t0 = 5;
  const std::int64_t gens = 7;
  for (const Boundary b : {Boundary::Null, Boundary::Periodic}) {
    const SiteLattice start = seeded(e, b, kernel.model(), 17);
    for (const HookCase& c : kHookCases) {
      const std::string what = std::string(c.name) +
                               (b == Boundary::Null ? " null" : " periodic");
      PlaneLattice planes(start);
      RecordingHooks hooks(e.height, t0, gens);
      obs::MetricsRegistry::global().reset();
      if (c.depth == 1) {
        plane_gas_run(planes, kernel, gens, t0, c.threads, 1, &hooks);
      } else {
        const TemporalTiling tiling{c.depth, 3};
        ASSERT_TRUE(temporal_tiling_feasible(tiling, e, b)) << what;
        plane_gas_run_tiled(planes, kernel, gens, t0, c.threads, tiling,
                            &hooks);
      }
      hooks.expect_blocks(c.depth, what);
      if constexpr (obs::kEnabled) {
        const obs::MetricsSnapshot snap =
            obs::MetricsRegistry::global().snapshot();
        if (c.depth == 1) {
          EXPECT_EQ(snap.gauge_or("bitplane.bands", -1), c.threads) << what;
        } else {
          EXPECT_EQ(snap.gauge_or("bitplane.tiles", -1), 4) << what;
        }
      }
    }
  }
}

TEST(RunnerHooks, EveryRowOncePerBlockOn3dSlabs) {
  // The hooks see the flat inner lattice, row r = z * ny + y. 12
  // z-planes in tiles of 3 make four tiles.
  const lgca3d::Extent3 ext{70, 5, 12};
  const std::int64_t rows = ext.ny * ext.nz;
  const std::int64_t t0 = 2;
  const std::int64_t gens = 7;
  for (const lgca3d::Boundary3 b :
       {lgca3d::Boundary3::Null, lgca3d::Boundary3::Periodic}) {
    lgca3d::Lattice3 vol(ext, b);
    lgca3d::fill_random(vol, 0.3, 23);
    for (const HookCase& c : kHookCases) {
      const std::string what =
          std::string(c.name) +
          (b == lgca3d::Boundary3::Null ? " null" : " periodic");
      lgca3d::PlaneLattice3 planes(vol);
      RecordingHooks hooks(rows, t0, gens);
      obs::MetricsRegistry::global().reset();
      if (c.depth == 1) {
        lgca3d::plane_gas_run3(planes, gens, t0, c.threads, 1, &hooks);
      } else {
        const TemporalTiling tiling{c.depth, 3};
        ASSERT_TRUE(lgca3d::temporal_tiling_feasible3(tiling, ext, b))
            << what;
        lgca3d::plane_gas_run_tiled3(planes, gens, t0, c.threads, tiling,
                                     &hooks);
      }
      hooks.expect_blocks(c.depth, what);
      if constexpr (obs::kEnabled) {
        const obs::MetricsSnapshot snap =
            obs::MetricsRegistry::global().snapshot();
        if (c.depth == 1) {
          EXPECT_EQ(snap.gauge_or("bitplane.bands", -1), c.threads) << what;
        } else {
          EXPECT_EQ(snap.gauge_or("bitplane.tiles", -1), 4) << what;
        }
      }
    }
  }
}

TEST(RunnerHooks, EveryLaneOwnsRowsWhenUnitsAreFew) {
  // 9 units over 4 bands: bands of ceil(9 / 4) = 3 units would be
  // [0, 3), [3, 6), [6, 9) and an empty [9, 9), so one lane would only
  // wait at the rendezvous. Band i owns [9i / 4, 9(i + 1) / 4): 2, 2,
  // 2 and 3 units. Rows on the 2-D runner, z-planes on the 3-D one.
  const std::int64_t t0 = 3;
  const std::int64_t gens = 4;
  const PlaneKernel& kernel = PlaneKernel::get(GasKind::FHP_II);
  const Extent e{128, 9};
  PlaneLattice planes(seeded(e, Boundary::Periodic, kernel.model(), 29));
  RecordingHooks hooks(e.height, t0, gens);
  obs::MetricsRegistry::global().reset();
  plane_gas_run(planes, kernel, gens, t0, 4, 1, &hooks);
  hooks.expect_blocks(1, "2-D");
  EXPECT_EQ(hooks.before_calls, 4 * gens);
  EXPECT_EQ(hooks.empty_befores, 0) << "every lane must own rows";
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(obs::MetricsRegistry::global().snapshot().gauge_or(
                  "bitplane.bands", -1),
              4);
  }

  const lgca3d::Extent3 ext{70, 5, 9};
  lgca3d::Lattice3 vol(ext, lgca3d::Boundary3::Periodic);
  lgca3d::fill_random(vol, 0.3, 31);
  lgca3d::PlaneLattice3 planes3(vol);
  RecordingHooks hooks3(ext.ny * ext.nz, t0, gens);
  lgca3d::plane_gas_run3(planes3, gens, t0, 4, 1, &hooks3);
  hooks3.expect_blocks(1, "3-D");
  EXPECT_EQ(hooks3.before_calls, 4 * gens);
  EXPECT_EQ(hooks3.empty_befores, 0) << "every lane must own z-planes";
}

TEST(TilePlan, AutoModeBlocksOnlyWhenTheSweepIsNotCacheResident) {
  // A 4096² bit-plane lattice is ~20 MB per buffer — far over the
  // budget, so auto picks a real depth with a modest skirt tax.
  const Extent big{4096, 4096};
  const core::TilePlan plan = core::plan_temporal_tiles(
      big, Boundary::Null, core::plane_row_bytes(big), 0);
  EXPECT_GE(plan.depth, 2);
  EXPECT_TRUE(temporal_tiling_feasible(plan.tiling(), big, Boundary::Null));
  EXPECT_LE(plan.working_set_bytes, plan.cache_bytes);
  EXPECT_LT(plan.recompute_overhead, 0.15);
  EXPECT_GT(plan.updates_per_io_ceiling, 1.0);
  // A 128² lattice fits the budget whole: blocking would only add the
  // skirt tax, so auto stays at the plain sweep.
  const Extent small{128, 128};
  EXPECT_EQ(core::plan_temporal_tiles(small, Boundary::Null,
                                      core::plane_row_bytes(small), 0)
                .depth,
            1);
}

TEST(TilePlan, RowFootprintIsThePlaneLatticeLayout) {
  // The planner's row and slab bytes are the bytes a PlaneLattice
  // really allocates per row, compact narrow rows included.
  for (std::int64_t width = 1; width <= 640; ++width) {
    const std::int64_t height = 3;
    const PlaneLattice planes({width, height}, Boundary::Null);
    const std::int64_t stride = planes.row(0, 1) - planes.row(0, 0);
    ASSERT_EQ(planes.row(1, 0) - planes.row(0, 0), height * stride) << width;
    const std::int64_t bytes = PlaneLattice::kPlanes * stride * 8;
    ASSERT_EQ(core::plane_row_bytes({width, height}), bytes) << width;
    ASSERT_EQ(core::plane_slab_bytes({width, 5, 2}), 5 * bytes) << width;
  }
}

TEST(TilePlan, ExplicitDepthIsHonoredOrDroppedToPlain) {
  const Extent e{96, 4800};
  const std::int64_t row = core::plane_row_bytes(e);
  const core::TilePlan plan =
      core::plan_temporal_tiles(e, Boundary::Periodic, row, 3);
  EXPECT_EQ(plan.depth, 3);
  EXPECT_TRUE(
      temporal_tiling_feasible(plan.tiling(), e, Boundary::Periodic));
  // Requesting a depth the lattice cannot tile (one tile would cover
  // it) falls back to the plain sweep, never a different depth.
  EXPECT_EQ(
      core::plan_temporal_tiles({96, 40}, Boundary::Null, row, 3).depth, 1);
  // Depth 1 is always "off".
  EXPECT_EQ(core::plan_temporal_tiles(e, Boundary::Null, row, 1).depth, 1);
}

TEST(TemporalTileEngine, BitPlaneTiledRunVerifiesAgainstReference) {
  // Tall enough that the plan actually tiles (three tiles at depth 3);
  // 0 exercises auto mode end-to-end as well.
  for (const int k : {0, 3}) {
    core::LatticeEngine::Config cfg;
    cfg.extent = {96, 4800};
    cfg.gas = GasKind::FHP_II;
    cfg.boundary = Boundary::Periodic;
    cfg.backend = core::Backend::BitPlane;
    cfg.threads = 3;
    cfg.tile_generations = k;
    core::LatticeEngine engine(cfg);
    fill_flow(engine.state(), engine.gas_model(), 0.3, 0.1, 11);
    const core::EngineCheckpoint start = engine.checkpoint();
    engine.advance(25);
    EXPECT_TRUE(engine.verify_against_reference(start))
        << "tile_generations " << k;
  }
}

TEST(TemporalTileEngine, ReferenceTiledRunMatchesPlainEngine) {
  // The byte path needs a much taller lattice before two strips
  // overflow the budget (rows are 8× leaner than bit-plane rows).
  const auto run = [](int k) {
    core::LatticeEngine::Config cfg;
    cfg.extent = {96, 6000};
    cfg.gas = GasKind::FHP_III;
    cfg.boundary = Boundary::Null;
    cfg.backend = core::Backend::Reference;
    cfg.threads = 2;
    cfg.tile_generations = k;
    core::LatticeEngine engine(cfg);
    fill_flow(engine.state(), engine.gas_model(), 0.3, 0.1, 21);
    engine.advance(10);
    return engine.state();
  };
  EXPECT_TRUE(run(3) == run(1));
}

TEST(TemporalTileEngine, GuardedCheckpointsQuantizeToTileBlocks) {
  // A stuck plane word fires on every attempt until the escalation
  // ladder disables it: rollback retries, one interval shrink (6 → 3,
  // never below the tile depth), then executor degrade — after which
  // the run completes and the committed history is fault-free.
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.stuck_planes.push_back(
      {1, 10, ~std::uint64_t{0}, ~std::uint64_t{0}});
  core::LatticeEngine::Config cfg;
  cfg.extent = {96, 4800};
  cfg.gas = GasKind::FHP_II;
  cfg.boundary = Boundary::Periodic;
  cfg.backend = core::Backend::BitPlane;
  cfg.threads = 2;
  cfg.tile_generations = 3;
  cfg.fault = plan;
  cfg.checkpoint_interval = 5;
  core::LatticeEngine engine(cfg);
  // The requested interval of 5 quantizes up to a whole tile block.
  EXPECT_EQ(engine.config().checkpoint_interval, 6);
  fill_flow(engine.state(), engine.gas_model(), 0.3, 0.1, 31);
  const core::EngineCheckpoint start = engine.checkpoint();
  engine.advance(12);
  EXPECT_EQ(engine.generation(), 12);
  const core::PerformanceReport r = engine.report();
  EXPECT_GT(r.rollbacks, 0);
  EXPECT_GT(r.interval_shrinks, 0);
  EXPECT_GT(r.remapped_slices, 0);
  EXPECT_TRUE(engine.verify_against_reference(start));
}

}  // namespace
}  // namespace lattice::lgca
