#include <gtest/gtest.h>

#include <sstream>

#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/image_io.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/observables.hpp"
#include "lattice/lgca/reference.hpp"

namespace lattice::lgca {
namespace {

TEST(Invariants, CountsSingleParticles) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  SiteLattice lat({8, 8}, Boundary::Periodic);
  lat.at({1, 1}) = channel_bit(0);                       // px=+2
  lat.at({2, 2}) = channel_bit(3);                       // px=-2
  lat.at({3, 3}) = static_cast<Site>(channel_bit(1) | channel_bit(2));
  const Invariants inv = measure_invariants(lat, m);
  EXPECT_EQ(inv.mass, 4);
  EXPECT_EQ(inv.px, 0);
  EXPECT_EQ(inv.py, -2);  // NE + NW = (1,-1)+(-1,-1)
  EXPECT_EQ(inv.obstacles, 0);
}

TEST(Invariants, ObstaclesCountedSeparately) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({6, 6}, Boundary::Null);
  add_obstacle_rect(lat, {0, 0}, {5, 0});
  const Invariants inv = measure_invariants(lat, m);
  EXPECT_EQ(inv.obstacles, 6);
  EXPECT_EQ(inv.mass, 0);
}

TEST(Invariants, RestParticlesHaveMassButNoMomentum) {
  const GasModel& m = GasModel::get(GasKind::FHP_II);
  SiteLattice lat({4, 4}, Boundary::Periodic);
  lat.at({1, 1}) = kRestBit;
  const Invariants inv = measure_invariants(lat, m);
  EXPECT_EQ(inv.mass, 1);
  EXPECT_EQ(inv.px, 0);
  EXPECT_EQ(inv.py, 0);
}

TEST(MomentumProfile, RowsSumTheirSitesPx) {
  // Non-square so a row/column mix-up shows; site i holds state 7·i
  // (mod 256) so obstacle and spare bits are summed too.
  const GasModel& m = GasModel::get(GasKind::FHP_II);
  SiteLattice lat({37, 5}, Boundary::Periodic);
  for (std::size_t i = 0; i < lat.site_count(); ++i)
    lat[i] = static_cast<Site>(i * 7);
  const std::vector<double> profile = momentum_profile_x(lat, m);
  ASSERT_EQ(profile.size(), 5u);
  for (std::int64_t y = 0; y < 5; ++y) {
    std::int64_t want = 0;
    for (std::int64_t x = 0; x < 37; ++x)
      want += m.momentum(lat.at({x, y})).px;
    EXPECT_EQ(profile[static_cast<std::size_t>(y)], static_cast<double>(want))
        << "row " << y;
  }
}

TEST(CoarseGrain, DensityAveragesOverCells) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({8, 8}, Boundary::Periodic);
  // Fill the top-left 4×4 cell completely (4 particles/site).
  for (std::int64_t y = 0; y < 4; ++y)
    for (std::int64_t x = 0; x < 4; ++x)
      lat.at({x, y}) = 0x0f;
  const Grid<FlowCell> cells = coarse_grain(lat, m, 4);
  ASSERT_EQ(cells.extent(), (Extent{2, 2}));
  EXPECT_DOUBLE_EQ(cells.at({0, 0}).density, 4.0);
  EXPECT_DOUBLE_EQ(cells.at({1, 0}).density, 0.0);
  EXPECT_DOUBLE_EQ(cells.at({0, 0}).ux, 0.0);  // all four dirs cancel
}

TEST(CoarseGrain, VelocityReflectsNetFlow) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({4, 4}, Boundary::Periodic);
  for (std::int64_t y = 0; y < 4; ++y)
    for (std::int64_t x = 0; x < 4; ++x)
      lat.at({x, y}) = channel_bit(0);  // everyone E-bound
  const Grid<FlowCell> cells = coarse_grain(lat, m, 4);
  EXPECT_DOUBLE_EQ(cells.at({0, 0}).ux, 2.0);  // momentum units per particle
  EXPECT_DOUBLE_EQ(cells.at({0, 0}).uy, 0.0);
}

TEST(CoarseGrain, RejectsNonPositiveCell) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({4, 4}, Boundary::Periodic);
  EXPECT_THROW(coarse_grain(lat, m, 0), Error);
}

TEST(Spread, PointMassHasZeroSpread) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({9, 9}, Boundary::Periodic);
  lat.at({4, 4}) = channel_bit(0);
  const SpreadStats st = measure_spread(lat, m, 4.0, 4.0);
  EXPECT_EQ(st.particles, 1);
  EXPECT_DOUBLE_EQ(st.mean_r2, 0.0);
}

TEST(Spread, AxisAlignedRingIsMaximallyAnisotropic) {
  // Four particles on the lattice axes: cos 4θ = 1 everywhere, the
  // fourth-order anisotropy saturates at 1 — the HPP signature.
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({9, 9}, Boundary::Periodic);
  lat.at({6, 4}) = channel_bit(0);
  lat.at({2, 4}) = channel_bit(0);
  lat.at({4, 6}) = channel_bit(0);
  lat.at({4, 2}) = channel_bit(0);
  const SpreadStats st = measure_spread(lat, m, 4.0, 4.0);
  EXPECT_EQ(st.particles, 4);
  EXPECT_DOUBLE_EQ(st.mean_r2, 4.0);
  EXPECT_NEAR(st.anisotropy, 1.0, 1e-12);
}

TEST(Spread, EightFoldRingIsIsotropicToFourthOrder) {
  // Four axis points plus four diagonal points at the same radius:
  // cos 4θ contributions cancel exactly.
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({11, 11}, Boundary::Periodic);
  // Axis points carry 4 particles each (full HPP site) so the two
  // families have equal Σ n·r⁴: +4·(4·16) from the axes cancels
  // −4·64 from the diagonals (where cos 4θ = −1).
  lat.at({7, 5}) = 0x0f;
  lat.at({3, 5}) = 0x0f;
  lat.at({5, 7}) = 0x0f;
  lat.at({5, 3}) = 0x0f;
  lat.at({7, 7}) = channel_bit(0);
  lat.at({3, 3}) = channel_bit(0);
  lat.at({7, 3}) = channel_bit(0);
  lat.at({3, 7}) = channel_bit(0);
  const SpreadStats st = measure_spread(lat, m, 5.0, 5.0);
  EXPECT_EQ(st.particles, 20);
  EXPECT_NEAR(st.anisotropy, 0.0, 1e-12);
}

TEST(FillRandom, HitsRequestedDensity) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  SiteLattice lat({64, 64}, Boundary::Periodic);
  fill_random(lat, m, 0.5, 123);
  const Invariants inv = measure_invariants(lat, m);
  const double per_channel =
      static_cast<double>(inv.mass) / (64.0 * 64.0 * 6.0);
  EXPECT_NEAR(per_channel, 0.5, 0.02);
}

TEST(FillRandom, SkipsObstacles) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  SiteLattice lat({16, 16}, Boundary::Periodic);
  add_obstacle_rect(lat, {0, 0}, {15, 15});
  fill_random(lat, m, 1.0, 5);
  EXPECT_EQ(measure_invariants(lat, m).mass, 0);
}

TEST(FillFlow, ProducesNetPositiveXMomentum) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  SiteLattice lat({64, 64}, Boundary::Periodic);
  fill_flow(lat, m, 0.3, 0.15, 77);
  const Invariants inv = measure_invariants(lat, m);
  EXPECT_GT(inv.px, 0);
}

TEST(PressurePulse, CentersAndFillsAllChannels) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  SiteLattice lat({33, 33}, Boundary::Periodic);
  add_pressure_pulse(lat, m, 3);
  const Invariants inv = measure_invariants(lat, m);
  EXPECT_EQ(inv.mass, 9 * 6);
  EXPECT_EQ(inv.px, 0);
  EXPECT_EQ(inv.py, 0);
}

TEST(ImageIo, DensityPgmHasCorrectHeaderAndSize) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({7, 5}, Boundary::Periodic);
  std::ostringstream os;
  write_density_pgm(os, lat, m);
  const std::string s = os.str();
  EXPECT_EQ(s.rfind("P5\n7 5\n255\n", 0), 0u);
  EXPECT_EQ(s.size(), std::string("P5\n7 5\n255\n").size() + 7 * 5);
}

TEST(ImageIo, AsciiRenderMarksObstacles) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({3, 1}, Boundary::Null);
  lat.at({1, 0}) = kObstacleBit;
  const std::string art = render_density_ascii(lat, m);
  EXPECT_EQ(art, " # \n");
}

TEST(ImageIo, FlowAsciiShowsArrowsForFlow) {
  Grid<FlowCell> cells({2, 1});
  cells.at({0, 0}) = FlowCell{1.0, 2.0, 0.0};   // strong +x flow
  cells.at({1, 0}) = FlowCell{0.0, 0.0, 0.0};   // empty
  const std::string art = render_flow_ascii(cells);
  EXPECT_EQ(art, "> \n");
}

}  // namespace
}  // namespace lattice::lgca
