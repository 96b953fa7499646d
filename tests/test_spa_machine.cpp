// SPA simulator: slice pipelines with row-staggered streams and side
// channels must reproduce the golden evolution bit-for-bit, and the
// side-channel / bandwidth accounting must match §6.2's model.

#include <gtest/gtest.h>

#include <type_traits>

#include "lattice/arch/spa.hpp"
#include "lattice/common/rng.hpp"
#include "lattice/lgca/ca_rules.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/reference.hpp"

namespace lattice::arch {
namespace {

using lgca::Boundary;
using lgca::GasKind;
using lgca::GasModel;
using lgca::GasRule;
using lgca::SiteLattice;

SiteLattice random_gas(Extent e, GasKind kind, std::uint64_t seed) {
  SiteLattice lat(e, Boundary::Null);
  lgca::fill_random(lat, GasModel::get(kind), 0.35, seed, 0.2);
  return lat;
}

SiteLattice golden(const SiteLattice& in, const lgca::Rule& rule, int gens,
                   std::int64_t t0 = 0) {
  SiteLattice lat = in;
  lgca::reference_run(lat, rule, gens, t0);
  return lat;
}

// gtest prints a parameter that has no printer as its raw bytes into
// the ctest name, so every field is a full word: padding after an int
// would hold stale stack bytes and rename a case between test listings.
struct SpaCase {
  std::int64_t w;       // lattice width
  std::int64_t h;       // lattice height
  std::int64_t slice;   // W
  std::int64_t depth;   // P_k · stages
};
static_assert(std::has_unique_object_representations_v<SpaCase>,
              "SpaCase must have no padding bytes");

class SpaEquivalenceTest : public ::testing::TestWithParam<SpaCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpaEquivalenceTest,
    ::testing::Values(SpaCase{16, 8, 8, 1}, SpaCase{16, 8, 4, 1},
                      SpaCase{16, 8, 4, 3}, SpaCase{24, 10, 6, 2},
                      SpaCase{32, 12, 8, 4}, SpaCase{12, 20, 3, 2},
                      SpaCase{20, 6, 5, 5}, SpaCase{8, 8, 2, 3},
                      SpaCase{40, 8, 10, 2}, SpaCase{16, 16, 16, 2}),
    [](const auto& info) {
      const SpaCase& c = info.param;
      return "w" + std::to_string(c.w) + "h" + std::to_string(c.h) + "s" +
             std::to_string(c.slice) + "d" + std::to_string(c.depth);
    });

TEST_P(SpaEquivalenceTest, MatchesGoldenForFhpGas) {
  const SpaCase c = GetParam();
  const GasRule rule(GasKind::FHP_II);
  const SiteLattice in = random_gas({c.w, c.h}, GasKind::FHP_II, 21);

  SpaMachine spa({c.w, c.h}, rule, c.slice, c.depth);
  EXPECT_TRUE(spa.run(in) == golden(in, rule, c.depth));
}

TEST_P(SpaEquivalenceTest, MatchesGoldenForLife) {
  const SpaCase c = GetParam();
  const lgca::LifeRule rule;
  SiteLattice in({c.w, c.h}, Boundary::Null);
  Pcg32 rng(17);
  for (std::size_t i = 0; i < in.site_count(); ++i)
    in[i] = static_cast<lgca::Site>(rng.next() & 1);

  SpaMachine spa({c.w, c.h}, rule, c.slice, c.depth);
  EXPECT_TRUE(spa.run(in) == golden(in, rule, c.depth));
}

TEST(SpaMachine, MatchesGoldenWithObstacles) {
  const GasRule rule(GasKind::HPP);
  SiteLattice in({24, 12}, Boundary::Null);
  lgca::add_obstacle_disk(in, 12, 6, 3);
  lgca::fill_random(in, GasModel::get(GasKind::HPP), 0.3, 8);

  SpaMachine spa({24, 12}, rule, 6, 3);
  EXPECT_TRUE(spa.run(in) == golden(in, rule, 3));
}

TEST(SpaMachine, MatchesWsaSemanticsAtNonzeroTimeOrigin) {
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({16, 10}, GasKind::FHP_I, 4);
  SpaMachine spa({16, 10}, rule, 4, 2, /*t0=*/31);
  EXPECT_TRUE(spa.run(in) == golden(in, rule, 2, /*t0=*/31));
}

TEST(SpaMachine, SingleSliceDegeneratesToSerialPipeline) {
  // W = lattice width: no side channels at all.
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({12, 12}, GasKind::FHP_I, 6);
  SpaMachine spa({12, 12}, rule, 12, 2);
  EXPECT_TRUE(spa.run(in) == golden(in, rule, 2));
  EXPECT_EQ(spa.stats().boundary_fetches, 0);
}

// ---- accounting ----

TEST(SpaMachine, BoundaryFetchesScaleWithInteriorBoundaries) {
  // Each interior slice boundary is crossed by 3 window cells from each
  // side, per row, per stage: 6·(slices-1)·H·depth fetches in total
  // (top and bottom rows mask one of the three).
  const GasRule rule(GasKind::FHP_I);
  const std::int64_t w = 16;
  const std::int64_t h = 10;
  const SiteLattice in = random_gas({w, h}, GasKind::FHP_I, 6);
  SpaMachine spa({w, h}, rule, 4, 2);
  (void)spa.run(in);
  const std::int64_t slices = 4;
  const std::int64_t interior = slices - 1;
  // Interior rows contribute 6 per boundary; the two edge rows 4 each.
  const std::int64_t per_boundary_per_gen = 6 * (h - 2) + 2 * 4;
  EXPECT_EQ(spa.stats().boundary_fetches,
            interior * per_boundary_per_gen * 2);
}

TEST(SpaMachine, ReadsAndWritesExactlyTheLattice) {
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({16, 16}, GasKind::FHP_I, 6);
  SpaMachine spa({16, 16}, rule, 4, 3);
  (void)spa.run(in);
  EXPECT_EQ(spa.stats().mem_sites_read, 16 * 16);
  EXPECT_EQ(spa.stats().mem_sites_written, 16 * 16);
  EXPECT_EQ(spa.stats().site_updates, 16 * 16 * 3);
}

TEST(SpaMachine, MoreSlicesFinishFaster) {
  // The throughput claim of §6.2: R grows with L/W because every slice
  // streams concurrently.
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({64, 32}, GasKind::FHP_I, 6);
  SpaMachine narrow({64, 32}, rule, 64, 2);  // 1 slice
  SpaMachine wide({64, 32}, rule, 8, 2);     // 8 slices
  (void)narrow.run(in);
  (void)wide.run(in);
  EXPECT_GT(narrow.stats().ticks, 4 * wide.stats().ticks);
  EXPECT_GT(wide.stats().updates_per_tick(),
            4 * narrow.stats().updates_per_tick());
}

TEST(SpaMachine, UpdatesPerTickApproachesSlicesTimesDepth) {
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({64, 64}, GasKind::FHP_I, 6);
  SpaMachine spa({64, 64}, rule, 8, 2);  // 8 slices × 2 deep = 16 PEs
  (void)spa.run(in);
  const double upt = spa.stats().updates_per_tick();
  EXPECT_GT(upt, 0.7 * 16);
  EXPECT_LE(upt, 16.0);
}

TEST(SpaMachine, PerStageBufferIsTwoSliceLines)
{
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({16, 8}, GasKind::FHP_I, 6);
  SpaMachine spa({16, 8}, rule, 4, 2);
  (void)spa.run(in);
  // 4 slices × 2 stages, each buffering 2W+6 sites: the SPA win —
  // buffers scale with W, not L (§5).
  EXPECT_EQ(spa.stats().buffer_sites, 4 * 2 * (2 * 4 + 6));
}

TEST(SpaMachine, RejectsBadConfiguration) {
  const GasRule rule(GasKind::HPP);
  EXPECT_THROW(SpaMachine({16, 8}, rule, 5, 1), Error);  // 5 ∤ 16
  EXPECT_THROW(SpaMachine({16, 8}, rule, 1, 1), Error);  // W < 2
  EXPECT_THROW(SpaMachine({16, 8}, rule, 4, 0), Error);
  SpaMachine spa({16, 8}, rule, 4, 1);
  SiteLattice periodic({16, 8}, Boundary::Periodic);
  EXPECT_THROW((void)spa.run(periodic), Error);
}

}  // namespace
}  // namespace lattice::arch
