// A lane that throws ends the run. Every parallel sweep runs on pool
// lanes that meet at a barrier once per block (the band/tile runner) or
// per wavefront step (the SPA machine); a lane that left on a throw
// without the others would strand them at that barrier. Each case here
// throws from one lane only — a run hook on one band or tile range, or
// a custom rule at one site — and must come back with that exception,
// then leave the shared pool fit for the next run. A regression hangs,
// so the binary runs under a ctest TIMEOUT.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string_view>

#include "lattice/arch/spa.hpp"
#include "lattice/core/engine.hpp"
#include "lattice/lgca/ca_rules.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/plane_lattice.hpp"
#include "lattice/lgca/reference.hpp"
#include "lattice/lgca/temporal_tile.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"

namespace lattice {
namespace {

using lgca::PlaneLattice;

struct LaneFault : std::runtime_error {
  LaneFault() : std::runtime_error("lane fault") {}
};

/// Throws from whichever call covers flat row `row` at generation `t`,
/// before or after the update; every other call passes.
class ThrowingHooks final : public lgca::PlaneRunHooks {
 public:
  ThrowingHooks(std::int64_t row, std::int64_t t, bool before)
      : row_(row), t_(t), before_(before) {}

  void run_begin(PlaneLattice&, std::uint32_t, std::uint32_t,
                 std::int64_t) override {}
  void before_rows(PlaneLattice&, std::int64_t t, std::int64_t y0,
                   std::int64_t y1) override {
    if (before_) maybe_throw(t, y0, y1);
  }
  void after_rows(const PlaneLattice&, std::int64_t t, std::int64_t y0,
                  std::int64_t y1) override {
    if (!before_) maybe_throw(t, y0, y1);
  }

 private:
  void maybe_throw(std::int64_t t, std::int64_t y0, std::int64_t y1) const {
    if (t == t_ && y0 <= row_ && row_ < y1) throw LaneFault();
  }

  std::int64_t row_;
  std::int64_t t_;
  bool before_;
};

/// Life, except at one site and generation, where it throws.
class ThrowingRule final : public lgca::Rule {
 public:
  lgca::Site apply(const lgca::Window& w,
                   const lgca::SiteContext& ctx) const override {
    if (ctx.x == 40 && ctx.y == 20 && ctx.t == 1) throw LaneFault();
    return life_.apply(w, ctx);
  }
  std::string_view name() const override { return "throwing-life"; }

 private:
  lgca::LifeRule life_;
};

lgca::SiteLattice random_gas(Extent e, lgca::Boundary b) {
  lgca::SiteLattice lat(e, b);
  lgca::fill_random(lat, lgca::GasModel::get(lgca::GasKind::FHP_II), 0.3, 5,
                    0.1);
  return lat;
}

/// The shared pool still runs a clean banded sweep after a failed one.
void expect_pool_usable() {
  const lgca::PlaneKernel& kernel = lgca::PlaneKernel::get(lgca::GasKind::HPP);
  const lgca::SiteLattice start =
      random_gas({128, 32}, lgca::Boundary::Periodic);
  lgca::SiteLattice want = start;
  lgca::bitplane_gas_run(want, kernel, 4);
  lgca::SiteLattice got = start;
  lgca::bitplane_gas_run(got, kernel, 4, 0, 4, 1);
  EXPECT_TRUE(got == want);
}

TEST(LaneErrors, HookThrowOnOneBandEndsA2dRun) {
  // FHP-II 256x64 at grain 1: four bands of 16 rows; row 40 is band 2.
  const lgca::PlaneKernel& kernel =
      lgca::PlaneKernel::get(lgca::GasKind::FHP_II);
  for (const bool before : {true, false}) {
    PlaneLattice planes(random_gas({256, 64}, lgca::Boundary::Null));
    ThrowingHooks hooks(40, 3, before);
    EXPECT_THROW(lgca::plane_gas_run(planes, kernel, 8, 0, 4, 1, &hooks),
                 LaneFault)
        << (before ? "before_rows" : "after_rows");
  }
  expect_pool_usable();
}

TEST(LaneErrors, HookThrowOnOneSlabEndsA3dRun) {
  // 16 z-planes of 4 rows at grain 1: four z-slab bands; flat row 50 is
  // z-plane 12, the last band.
  const lgca3d::Extent3 ext{96, 4, 16};
  lgca3d::Lattice3 vol(ext, lgca3d::Boundary3::Periodic);
  lgca3d::fill_random(vol, 0.3, 9);
  for (const bool before : {true, false}) {
    lgca3d::PlaneLattice3 planes(vol);
    ThrowingHooks hooks(50, 2, before);
    EXPECT_THROW(lgca3d::plane_gas_run3(planes, 6, 0, 4, 1, &hooks), LaneFault)
        << (before ? "before_rows" : "after_rows");
  }
  expect_pool_usable();
}

TEST(LaneErrors, HookThrowOnOneLaneEndsATiledRun) {
  // Depth 3 over tiles of 8 rows: eight tiles on two lanes; row 50 is
  // lane 1's. Generation 3 opens the second block.
  const lgca::PlaneKernel& kernel =
      lgca::PlaneKernel::get(lgca::GasKind::FHP_II);
  const lgca::TemporalTiling tiling{3, 8};
  ASSERT_TRUE(lgca::temporal_tiling_feasible(tiling, {256, 64},
                                             lgca::Boundary::Periodic));
  for (const bool before : {true, false}) {
    PlaneLattice planes(random_gas({256, 64}, lgca::Boundary::Periodic));
    ThrowingHooks hooks(50, before ? 3 : 5, before);
    EXPECT_THROW(
        lgca::plane_gas_run_tiled(planes, kernel, 9, 0, 2, tiling, &hooks),
        LaneFault)
        << (before ? "before_rows" : "after_rows");
  }
  expect_pool_usable();
}

TEST(LaneErrors, RuleThrowEndsTheSpaWavefront) {
  const ThrowingRule rule;
  lgca::SiteLattice in({64, 64}, lgca::Boundary::Null);
  lgca::fill_random(in, lgca::GasModel::get(lgca::GasKind::FHP_II), 0.3, 3,
                    0.0);
  arch::SpaMachine machine({64, 64}, rule, 16, 3, 0, 4, false, nullptr);
  EXPECT_THROW(machine.run(in), LaneFault);
  expect_pool_usable();
}

TEST(LaneErrors, RuleThrowEndsASpaEngineAdvance) {
  const ThrowingRule rule;
  core::LatticeEngine::Config c;
  c.extent = {64, 64};
  c.custom_rule = &rule;
  c.backend = core::Backend::Spa;
  c.pipeline_depth = 3;
  c.spa_slice_width = 16;
  c.threads = 4;
  core::LatticeEngine engine(c);
  lgca::fill_random(engine.state(), lgca::GasModel::get(lgca::GasKind::FHP_II),
                    0.3, 4, 0.0);
  EXPECT_THROW(engine.advance(6), LaneFault);
  expect_pool_usable();
}

TEST(LaneErrors, RuleThrowEndsTheBandedReference) {
  // This path rethrew before the runner carried it, and must still.
  const ThrowingRule rule;
  lgca::SiteLattice lat({64, 64}, lgca::Boundary::Null);
  lgca::fill_random(lat, lgca::GasModel::get(lgca::GasKind::FHP_II), 0.3, 6,
                    0.0);
  EXPECT_THROW(lgca::reference_run_parallel(lat, rule, 4, 4), LaneFault);
  expect_pool_usable();
}

}  // namespace
}  // namespace lattice
