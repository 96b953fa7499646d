// Engine-level 3-D backend tests: the cubic gas through the full
// production stack. The tentpole claim is that the dimension-blind
// engine layers (state carry, checkpointing, scheduling, reporting)
// need no 3-D special cases beyond Config::depth — so Reference3 and
// BitPlane3 must be bit-exact with each other and with the Lattice3
// golden reference across boundaries, thread counts, and temporal-
// tiling plans, and every checkpoint must round-trip the volume's
// factorization, not just its flat byte count.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "lattice/core/checkpoint_io.hpp"
#include "lattice/core/engine.hpp"
#include "lattice/lgca/ca_rules.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"

namespace lattice::core {
namespace {

struct Case3 {
  lgca::Boundary boundary;
  unsigned threads;
  int tile_generations;  // 1 = untiled, 0 = planner auto
};

LatticeEngine::Config cfg3(Backend b, lgca3d::Extent3 ext,
                           lgca::Boundary boundary = lgca::Boundary::Null,
                           unsigned threads = 1, int tile_generations = 1) {
  LatticeEngine::Config c;
  c.extent = {ext.nx, ext.ny};
  c.depth = ext.nz;
  c.boundary = boundary;
  c.backend = b;
  c.threads = threads;
  c.tile_generations = tile_generations;
  return c;
}

/// The shared seeding recipe: a couple of obstacle sites (bounce-back
/// in play), then the cubic gas's own random fill. Applied identically
/// to engine state and golden volume so the evolutions are comparable.
void seed_volume(lgca3d::Lattice3& vol, std::uint64_t seed) {
  const lgca3d::Extent3 e = vol.extent();
  vol.at({e.nx / 2, e.ny / 2, e.nz / 2}) = lgca3d::kObstacleBit;
  vol.at({e.nx / 3, e.ny / 3, e.nz / 3}) = lgca3d::kObstacleBit;
  lgca3d::fill_random(vol, 0.3, seed);
}

void seed_engine3(LatticeEngine& e, lgca3d::Extent3 ext,
                  std::uint64_t seed = 31) {
  lgca3d::Lattice3 vol(ext, lgca3d::Boundary3::Null);
  seed_volume(vol, seed);
  ASSERT_EQ(e.state().site_count(), vol.site_count());
  std::memcpy(e.state().grid().data(), vol.data(), vol.site_count());
}

// ---- parity matrix: both 3-D backends vs the golden reference ----

class Exec3Matrix : public ::testing::TestWithParam<Case3> {};

INSTANTIATE_TEST_SUITE_P(
    BoundariesThreadsTiling, Exec3Matrix,
    ::testing::Values(Case3{lgca::Boundary::Null, 1, 1},
                      Case3{lgca::Boundary::Null, 1, 0},
                      Case3{lgca::Boundary::Null, 4, 1},
                      Case3{lgca::Boundary::Null, 4, 0},
                      Case3{lgca::Boundary::Periodic, 1, 1},
                      Case3{lgca::Boundary::Periodic, 1, 0},
                      Case3{lgca::Boundary::Periodic, 4, 1},
                      Case3{lgca::Boundary::Periodic, 4, 0}),
    [](const auto& info) {
      const Case3& c = info.param;
      std::string s =
          c.boundary == lgca::Boundary::Null ? "Null" : "Periodic";
      s += "T" + std::to_string(c.threads);
      s += c.tile_generations == 0 ? "Auto" : "Untiled";
      return s;
    });

TEST_P(Exec3Matrix, BackendsMatchEachOtherAndGolden) {
  const Case3 p = GetParam();
  const lgca3d::Extent3 ext{20, 14, 10};
  LatticeEngine ref3(cfg3(Backend::Reference3, ext, p.boundary, p.threads,
                          p.tile_generations));
  LatticeEngine bp3(cfg3(Backend::BitPlane3, ext, p.boundary, p.threads,
                         p.tile_generations));
  seed_engine3(ref3, ext);
  seed_engine3(bp3, ext);
  const EngineCheckpoint ref3_start = ref3.checkpoint();
  const EngineCheckpoint bp3_start = bp3.checkpoint();

  lgca3d::Lattice3 golden(ext, lgca3d::to_boundary3(p.boundary));
  seed_volume(golden, 31);

  ref3.advance(12);
  bp3.advance(12);
  lgca3d::reference_run(golden, 12);

  EXPECT_TRUE(ref3.state() == bp3.state())
      << "boolean-algebra collisions must match gather-and-collide";
  EXPECT_EQ(std::memcmp(ref3.state().grid().data(), golden.data(),
                        golden.site_count()),
            0)
      << "the flat engine raster must equal the golden volume";
  EXPECT_TRUE(ref3.verify_against_reference(ref3_start));
  EXPECT_TRUE(bp3.verify_against_reference(bp3_start));
}

TEST_P(Exec3Matrix, RaggedAdvancesMatchStraightRun) {
  const Case3 p = GetParam();
  const lgca3d::Extent3 ext{20, 14, 10};
  LatticeEngine straight(cfg3(Backend::BitPlane3, ext, p.boundary,
                              p.threads, p.tile_generations));
  LatticeEngine ragged(cfg3(Backend::BitPlane3, ext, p.boundary, p.threads,
                            p.tile_generations));
  seed_engine3(straight, ext);
  seed_engine3(ragged, ext);
  straight.advance(17);
  // 1 + 5 + 2 + 6 + 3 = 17: tails shorter than any tile depth, so the
  // chunk-quantum rounding and the plain path both run.
  for (const int step : {1, 5, 2, 6, 3}) ragged.advance(step);
  EXPECT_EQ(ragged.generation(), 17);
  EXPECT_TRUE(ragged.state() == straight.state());
}

// ---- temporal tiling at engine level ----

TEST(Exec3Tiling, ExplicitPlanEngagesAndStaysExact) {
  // nz far beyond the slab budget so an explicit k = 2 plan is
  // feasible; chunk_quantum() == 2 proves the plan engaged (it is the
  // executor's scheduling contract, not a private detail). Its 1 KiB
  // slabs give 510 z-planes per tile, so 544 planes make two tiles.
  const lgca3d::Extent3 ext{64, 16, 544};
  LatticeEngine tiled(cfg3(Backend::BitPlane3, ext, lgca::Boundary::Null,
                           2, 2));
  EXPECT_EQ(tiled.chunk_quantum(), 2) << "the k = 2 z-slab plan must hold";
  LatticeEngine untiled(cfg3(Backend::BitPlane3, ext, lgca::Boundary::Null,
                             1, 1));
  EXPECT_EQ(untiled.chunk_quantum(), 1);
  seed_engine3(tiled, ext);
  seed_engine3(untiled, ext);
  const EngineCheckpoint start = tiled.checkpoint();
  tiled.advance(11);  // not a multiple of the quantum: tail path too
  untiled.advance(11);
  EXPECT_TRUE(tiled.state() == untiled.state())
      << "the trapezoidal z-slab schedule must be bit-identical";
  EXPECT_TRUE(tiled.verify_against_reference(start));
}

TEST(Exec3Tiling, ReferenceBackendIgnoresTilePlans) {
  const lgca3d::Extent3 ext{20, 14, 10};
  LatticeEngine e(cfg3(Backend::Reference3, ext, lgca::Boundary::Null, 1, 4));
  EXPECT_EQ(e.chunk_quantum(), 1)
      << "the golden updater has no tiled path to quantize for";
}

// ---- config validation ----

TEST(Exec3Config, DepthRequiresA3dBackend) {
  for (const Backend b : {Backend::Reference, Backend::BitPlane}) {
    LatticeEngine::Config c;
    c.extent = {16, 16};
    c.depth = 2;
    c.backend = b;
    EXPECT_THROW(LatticeEngine{c}, Error)
        << "2-D backends must not silently fold depth into height";
  }
}

TEST(Exec3Config, CustomRulesAreRejected) {
  const lgca::LifeRule life;
  for (const Backend b : {Backend::Reference3, Backend::BitPlane3}) {
    LatticeEngine::Config c = cfg3(b, {16, 8, 4});
    c.custom_rule = &life;
    EXPECT_THROW(LatticeEngine{c}, Error)
        << "the 3-D executors run exactly one gas";
  }
}

TEST(Exec3Config, HostileExtentsFailTyped) {
  EXPECT_THROW(LatticeEngine{cfg3(Backend::Reference3, {16, 8, 0})}, Error);
  EXPECT_THROW(LatticeEngine{cfg3(Backend::BitPlane3, {16, 8, -4})}, Error);
  EXPECT_THROW(LatticeEngine{cfg3(Backend::BitPlane3, {0, 8, 4})}, Error);
  // Overflow-shaped volume: each side legal, product past the bound.
  const std::int64_t big = std::int64_t{1} << 16;
  EXPECT_THROW(LatticeEngine{cfg3(Backend::Reference3, {big, big, big})},
               Error);
}

// ---- checkpointing carries the factorization ----

TEST(Exec3Checkpoint, RoundTripIsBitExactOnBothBackends) {
  const lgca3d::Extent3 ext{20, 14, 10};
  for (const Backend b : {Backend::Reference3, Backend::BitPlane3}) {
    LatticeEngine straight(cfg3(b, ext));
    LatticeEngine resumed(cfg3(b, ext));
    seed_engine3(straight, ext);
    seed_engine3(resumed, ext);
    straight.advance(10);

    resumed.advance(4);
    const EngineCheckpoint ckpt = resumed.checkpoint();
    EXPECT_EQ(ckpt.generation, 4);
    EXPECT_EQ(ckpt.depth, 10) << "the snapshot must name its nz";
    resumed.advance(6);
    resumed.restore(ckpt);
    EXPECT_EQ(resumed.generation(), 4);
    resumed.advance(6);
    EXPECT_TRUE(resumed.state() == straight.state());
  }
}

TEST(Exec3Checkpoint, DurableRoundTripPreservesDepth) {
  const lgca3d::Extent3 ext{20, 14, 10};
  LatticeEngine straight(cfg3(Backend::BitPlane3, ext));
  LatticeEngine resumed(cfg3(Backend::BitPlane3, ext));
  seed_engine3(straight, ext);
  seed_engine3(resumed, ext);
  straight.advance(10);

  resumed.advance(4);
  std::stringstream buf;
  save_checkpoint(resumed.checkpoint(), buf);
  resumed.advance(6);

  const EngineCheckpoint loaded = load_checkpoint(buf);
  EXPECT_EQ(loaded.generation, 4);
  EXPECT_EQ(loaded.depth, 10);
  resumed.restore(loaded);
  resumed.advance(6);
  EXPECT_TRUE(resumed.state() == straight.state())
      << "replay from the durable 3-D snapshot must be bit-exact";
}

TEST(Exec3Checkpoint, RestoreRejectsADifferentFactorization) {
  // {16, 4, 8} and {16, 8, 4} share the same flat byte view {16, 32}:
  // the byte count alone cannot distinguish the volumes, so the
  // checkpoint's depth must.
  LatticeEngine a(cfg3(Backend::Reference3, {16, 4, 8}));
  LatticeEngine b(cfg3(Backend::Reference3, {16, 8, 4}));
  seed_engine3(a, {16, 4, 8});
  a.advance(3);
  const EngineCheckpoint ckpt = a.checkpoint();
  EXPECT_THROW(b.restore(ckpt), Error)
      << "same flat bytes, different volume: must be rejected";
  EXPECT_NO_THROW(a.restore(ckpt));
}

// ---- reporting ----

TEST(Exec3Report, CommittedUpdatesCountTheVolume) {
  const lgca3d::Extent3 ext{20, 14, 10};
  for (const Backend b : {Backend::Reference3, Backend::BitPlane3}) {
    LatticeEngine e(cfg3(b, ext));
    seed_engine3(e, ext);
    e.advance(6);
    const PerformanceReport r = e.report();
    EXPECT_EQ(r.site_updates, ext.volume() * 6);
    EXPECT_EQ(r.committed_updates, ext.volume() * 6);
  }
}

}  // namespace
}  // namespace lattice::core
