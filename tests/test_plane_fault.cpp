// Plane-memory fault injection and online detection for the bit-plane
// backend (docs/ROBUSTNESS.md): draw determinism across SIMD levels
// and band counts, detector coverage (per-plane popcount ledger, halo
// canary, parity shadow), the reference executor's site-space mirror,
// and end-to-end engine recovery — the headline claim being that a
// seeded soak under transient plane flips finishes bit-identical to
// the fault-free golden evolution, with the escalation ladder visible
// in the report.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "lattice/core/engine.hpp"
#include "lattice/fault/fault.hpp"
#include "lattice/fault/memory_guard.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/plane_kernel.hpp"
#include "lattice/lgca/plane_simd.hpp"

namespace lattice {
namespace {

// ---- primitives ----

TEST(PlaneFaultPlan, ArmingClassification) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.armed());
  plan.plane_flip_rate = 1e-9;
  EXPECT_TRUE(plan.armed());
  EXPECT_TRUE(plan.arms_plane_memory());
  EXPECT_FALSE(plan.arms_machine_memory());
  plan = {};
  plan.halo_flip_rate = 0.1;
  EXPECT_TRUE(plan.arms_plane_memory());
  plan = {};
  plan.stuck_planes.push_back({2, 7, 0x1, ~std::uint64_t{0}});
  EXPECT_TRUE(plan.arms_plane_memory());
  plan = {};
  plan.parity_plane = true;
  EXPECT_TRUE(plan.arms_plane_memory()) << "a detector still arms the run";
  plan = {};
  plan.buffer_flip_rate = 1e-6;
  EXPECT_TRUE(plan.arms_machine_memory());
  EXPECT_FALSE(plan.arms_plane_memory());
}

TEST(PlaneFaultInjector, RejectsInvalidPlanePlans) {
  fault::FaultPlan plan;
  plan.plane_flip_rate = 1.5;
  EXPECT_THROW(fault::FaultInjector{plan}, Error);
  plan = {};
  plan.halo_flip_rate = -0.1;
  EXPECT_THROW(fault::FaultInjector{plan}, Error);
  plan = {};
  plan.stuck_planes.push_back({8, 0, 0x1, ~std::uint64_t{0}});
  EXPECT_THROW(fault::FaultInjector{plan}, Error) << "plane out of range";
  plan = {};
  plan.stuck_planes.push_back({0, -1, 0x1, ~std::uint64_t{0}});
  EXPECT_THROW(fault::FaultInjector{plan}, Error) << "negative word";
}

TEST(PlaneFaultInjector, PlaneDrawsAreDeterministicAndEpochKeyed) {
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.plane_flip_rate = 1.0;
  plan.halo_flip_rate = 1.0;
  const fault::FaultInjector a(plan);
  fault::FaultInjector b(plan);
  bool epoch_changes_some_draw = false;
  for (std::int64_t word = 0; word < 64; ++word) {
    int pa = -1;
    int pb = -1;
    const std::uint64_t ma = a.draw_plane_flip(3, word, &pa);
    EXPECT_EQ(ma, b.draw_plane_flip(3, word, &pb)) << "same plan, same draw";
    EXPECT_EQ(pa, pb);
    EXPECT_GE(pa, 0);
    EXPECT_LT(pa, 8);
    EXPECT_EQ(std::popcount(ma), 1) << "exactly one bit per transient";
  }
  for (std::int64_t row = 0; row < 64; ++row) {
    int sa = -1;
    int sb = -1;
    bool la = false;
    bool lb = false;
    const std::uint64_t ma = a.draw_halo_flip(5, row, &sa, &la);
    EXPECT_EQ(ma, b.draw_halo_flip(5, row, &sb, &lb));
    EXPECT_EQ(sa, sb);
    EXPECT_EQ(la, lb);
    EXPECT_EQ(std::popcount(ma), 1);
  }
  b.bump_epoch();
  for (std::int64_t word = 0; word < 64; ++word) {
    int pa = -1;
    int pb = -1;
    if (a.draw_plane_flip(4, word, &pa) != b.draw_plane_flip(4, word, &pb)) {
      epoch_changes_some_draw = true;
    }
  }
  EXPECT_TRUE(epoch_changes_some_draw) << "retries must redraw transients";
}

TEST(PlaneFaultInjector, StuckPlaneRetirement) {
  fault::FaultPlan plan;
  plan.stuck_planes.push_back({0, 3, ~std::uint64_t{0}, ~std::uint64_t{0}});
  plan.stuck_planes.push_back({0, 3, 0x1, ~std::uint64_t{0}});  // same cell
  plan.stuck_planes.push_back({5, 9, 0x2, ~std::uint64_t{0}});
  fault::FaultInjector inj(plan);
  EXPECT_TRUE(inj.has_stuck_planes());
  EXPECT_TRUE(inj.armed());
  EXPECT_EQ(inj.stuck_planes().size(), 3u);
  EXPECT_EQ(inj.disable_stuck_planes(), 2) << "distinct (plane, word) cells";
  EXPECT_FALSE(inj.has_stuck_planes());
  EXPECT_FALSE(inj.armed());
  EXPECT_TRUE(inj.stuck_planes().empty());
  EXPECT_EQ(inj.disable_stuck_planes(), 0) << "second disable is a no-op";
  EXPECT_EQ(inj.remapped_lanes(), 2);
}

// ---- direct-run detector coverage ----

lgca::SiteLattice seeded_lattice(Extent e, lgca::Boundary boundary,
                                 std::uint64_t seed = 7) {
  lgca::SiteLattice lat(e, boundary);
  lgca::fill_random(lat, lgca::GasModel::get(lgca::GasKind::FHP_II), 0.3,
                    seed, 0.15);
  return lat;
}

TEST(PlaneMemoryGuard, ParityShadowCatchesEveryPayloadFlipInItsPass) {
  // One generation, so each armed word is audited exactly once: the
  // shadow must fire once per applied flip, no more, no fewer.
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.plane_flip_rate = 0.5;
  plan.parity_plane = true;
  fault::FaultInjector inj(plan);
  fault::PlaneMemoryGuard guard(inj);
  lgca::SiteLattice lat = seeded_lattice({64, 48}, lgca::Boundary::Null);
  lgca::bitplane_gas_run(lat, lgca::PlaneKernel::get(lgca::GasKind::FHP_II),
                         1, 0, 1, 0, &guard);
  const fault::FaultCounters& c = inj.counters();
  ASSERT_GT(c.injected_plane, 0);
  EXPECT_EQ(c.detected_shadow, c.injected_plane)
      << "every transient plane flip must trip the shadow in the pass "
         "that stored it";
  EXPECT_GT(c.detected_ledger, 0);
  EXPECT_EQ(c.detected_canary, 0)
      << "null-boundary payload flips never touch the guard words";
}

TEST(PlaneMemoryGuard, HaloCanaryCatchesEveryGuardWordFlip) {
  // Guard words exist only on wide rows (8 or more payload words): a
  // 512-wide row has them, a 64-wide compact row is dense and refuses
  // the family rather than under-inject.
  const lgca::PlaneKernel& kernel =
      lgca::PlaneKernel::get(lgca::GasKind::FHP_II);
  fault::FaultPlan plan;
  plan.seed = 12;
  plan.halo_flip_rate = 1.0;  // one guard flip per row per generation
  for (const lgca::Boundary boundary :
       {lgca::Boundary::Null, lgca::Boundary::Periodic}) {
    fault::FaultInjector inj(plan);
    fault::PlaneMemoryGuard guard(inj);
    lgca::SiteLattice lat = seeded_lattice({512, 32}, boundary);
    lgca::bitplane_gas_run(lat, kernel, 1, 0, 1, 0, &guard);
    const fault::FaultCounters& c = inj.counters();
    EXPECT_EQ(c.injected_plane, 32);
    EXPECT_EQ(c.detected_canary, 32)
        << "one canary hit per corrupted halo row";
    EXPECT_EQ(c.detected_ledger, 0)
        << "guard words are outside every payload ledger";
    EXPECT_EQ(c.detected_shadow, 0);

    fault::FaultInjector compact_inj(plan);
    fault::PlaneMemoryGuard compact_guard(compact_inj);
    lgca::SiteLattice compact = seeded_lattice({64, 32}, boundary);
    EXPECT_THROW(
        lgca::bitplane_gas_run(compact, kernel, 1, 0, 1, 0, &compact_guard),
        Error)
        << "a compact row stores no guard word to flip";
    EXPECT_EQ(compact_inj.counters().injected(), 0);
  }
}

struct GuardRunResult {
  fault::FaultCounters counters;
  lgca::SiteLattice state;
};

GuardRunResult run_guarded(const fault::FaultPlan& plan, Extent extent,
                           lgca::Boundary boundary, unsigned threads,
                           std::int64_t grain_words) {
  fault::FaultInjector inj(plan);
  fault::PlaneMemoryGuard guard(inj);
  GuardRunResult r{fault::FaultCounters{}, seeded_lattice(extent, boundary)};
  lgca::bitplane_gas_run(r.state,
                         lgca::PlaneKernel::get(lgca::GasKind::FHP_II), 24, 0,
                         threads, grain_words, &guard);
  r.counters = inj.counters();
  return r;
}

void expect_same_counters(const fault::FaultCounters& a,
                          const fault::FaultCounters& b) {
  EXPECT_EQ(a.injected_plane, b.injected_plane);
  EXPECT_EQ(a.injected_stuck, b.injected_stuck);
  EXPECT_EQ(a.detected_ledger, b.detected_ledger);
  EXPECT_EQ(a.detected_canary, b.detected_canary);
  EXPECT_EQ(a.detected_shadow, b.detected_shadow);
}

/// Every plane-memory source and detector. Halo flips need guard
/// words, so a compact shape (`halo` false) runs the plan without them.
fault::FaultPlan mixed_plane_plan(bool halo = true) {
  fault::FaultPlan plan;
  plan.seed = 99;
  plan.plane_flip_rate = 0.01;
  plan.halo_flip_rate = halo ? 0.05 : 0.0;
  plan.parity_plane = true;
  plan.stuck_planes.push_back({1, 10, 0x0F, ~std::uint64_t{0}});
  return plan;
}

/// The mixed plan's shapes: a wide row (8 words, tail bits) that takes
/// the halo family, and a compact one (2 words) that refuses it.
constexpr Extent kWideGuarded{500, 40};
constexpr Extent kCompactGuarded{100, 40};

TEST(PlaneMemoryGuard, FaultSetAndDetectionsAreBandCountInvariant) {
  // Faults are keyed by global lattice coordinates and detectors are
  // per-row, so splitting the sweep into concurrent row bands must not
  // change a single counter (or the corrupted evolution itself). The
  // tiny grain forces the banded path with its injection barrier.
  for (const Extent e : {kWideGuarded, kCompactGuarded}) {
    const fault::FaultPlan plan = mixed_plane_plan(e == kWideGuarded);
    const GuardRunResult serial =
        run_guarded(plan, e, lgca::Boundary::Periodic, 1, 0);
    const GuardRunResult banded =
        run_guarded(plan, e, lgca::Boundary::Periodic, 4, 8);
    ASSERT_GT(serial.counters.injected(), 0) << e.width;
    expect_same_counters(serial.counters, banded.counters);
    EXPECT_TRUE(serial.state == banded.state) << e.width;
  }
  EXPECT_GT(run_guarded(mixed_plane_plan(), kWideGuarded,
                        lgca::Boundary::Periodic, 1, 0)
                .counters.detected_canary,
            0)
      << "the wide shape must exercise the halo family";
  EXPECT_THROW(run_guarded(mixed_plane_plan(), kCompactGuarded,
                           lgca::Boundary::Periodic, 1, 0),
               Error)
      << "halo flips are refused on compact rows";
}

TEST(PlaneMemoryGuard, FaultSetAndDetectionsAreSimdLevelInvariant) {
  // The acceptance hinge for cross-ISA runs: the same plan must draw
  // the identical fault set and the detectors (which ride the SIMD
  // popcount dispatch) must report identical counts on every level
  // this machine supports.
  const lgca::SimdLevel base = lgca::SimdLevel::Scalar;
  for (const Extent e : {kWideGuarded, kCompactGuarded}) {
    const fault::FaultPlan plan = mixed_plane_plan(e == kWideGuarded);
    GuardRunResult golden{fault::FaultCounters{}, lgca::SiteLattice{}};
    {
      const lgca::ScopedSimdLevel pin(base);
      golden = run_guarded(plan, e, lgca::Boundary::Null, 1, 0);
    }
    ASSERT_GT(golden.counters.injected(), 0) << e.width;
    for (const lgca::SimdLevel level :
         {lgca::SimdLevel::Avx2, lgca::SimdLevel::Avx512}) {
      if (!lgca::simd_supported(level)) continue;
      const lgca::ScopedSimdLevel pin(level);
      const GuardRunResult got = run_guarded(plan, e, lgca::Boundary::Null,
                                             1, 0);
      expect_same_counters(golden.counters, got.counters);
      EXPECT_TRUE(golden.state == got.state)
          << "corrupted evolution must match on " << lgca::to_string(level)
          << " at width " << e.width;
    }
  }
}

// ---- engine integration ----

core::LatticeEngine::Config engine_cfg(core::Backend backend,
                                       lgca::Boundary boundary) {
  core::LatticeEngine::Config c;
  c.extent = {64, 64};
  c.gas = lgca::GasKind::FHP_II;
  c.boundary = boundary;
  c.backend = backend;
  c.pipeline_depth = 4;
  c.threads = 1;
  return c;
}

void seed_engine(core::LatticeEngine& e) {
  lgca::fill_random(e.state(), e.gas_model(), 0.3, 31, 0.15);
}

TEST(PlaneFaultEngine, PlanCapabilityMatrix) {
  fault::FaultPlan plane_plan;
  plane_plan.plane_flip_rate = 1e-4;
  fault::FaultPlan halo_plan;
  halo_plan.halo_flip_rate = 1e-4;
  fault::FaultPlan byte_plan;
  byte_plan.buffer_flip_rate = 1e-4;

  for (const core::Backend hw :
       {core::Backend::Wsa, core::Backend::Spa, core::Backend::WsaE}) {
    core::LatticeEngine::Config c = engine_cfg(hw, lgca::Boundary::Null);
    c.wsa_width = 2;
    c.spa_slice_width = 8;
    c.fault = plane_plan;
    EXPECT_THROW(core::LatticeEngine{c}, Error)
        << "pipeline simulators have no plane memory to corrupt";
  }
  {
    core::LatticeEngine::Config c =
        engine_cfg(core::Backend::BitPlane, lgca::Boundary::Null);
    c.fault = byte_plan;
    EXPECT_THROW(core::LatticeEngine{c}, Error)
        << "the bit-plane backend has no simulated buffers or links";
    c.fault = plane_plan;
    EXPECT_NO_THROW(core::LatticeEngine{c});
    c.fault = halo_plan;
    EXPECT_THROW(core::LatticeEngine{c}, Error)
        << "a compact 64-wide row stores no guard words";
    c.extent = {512, 16};
    EXPECT_NO_THROW(core::LatticeEngine{c})
        << "a wide row's guard words take halo flips";
  }
  {
    core::LatticeEngine::Config c =
        engine_cfg(core::Backend::Reference, lgca::Boundary::Null);
    c.fault = plane_plan;
    EXPECT_NO_THROW(core::LatticeEngine{c})
        << "the reference executor mirrors in-lattice plane faults";
    c.fault = halo_plan;
    EXPECT_THROW(core::LatticeEngine{c}, Error)
        << "site space has no halo guard words";
    c.fault = {};
    c.fault.parity_plane = true;
    EXPECT_THROW(core::LatticeEngine{c}, Error)
        << "site space has no parity shadow plane";
  }
}

TEST(PlaneFaultEngine, ArmedButInertPlanRaisesNoFalsePositives) {
  // Detectors fully armed, fault sources all inert: the ledger, the
  // canary (on the wide rows, both boundary modes, with and without
  // tail bits) and the parity shadow must stay silent on one- and
  // two-word compact rows and on wide ones, and the run must be
  // bit-exact against the unguarded fast path.
  struct Geometry {
    Extent extent;
    lgca::Boundary boundary;
  };
  for (const Geometry g : {Geometry{{48, 32}, lgca::Boundary::Null},
                           Geometry{{64, 32}, lgca::Boundary::Periodic},
                           Geometry{{100, 24}, lgca::Boundary::Periodic},
                           Geometry{{512, 8}, lgca::Boundary::Null},
                           Geometry{{500, 8}, lgca::Boundary::Periodic}}) {
    core::LatticeEngine::Config armed_cfg =
        engine_cfg(core::Backend::BitPlane, g.boundary);
    armed_cfg.extent = g.extent;
    armed_cfg.fault.parity_plane = true;
    // An identity stuck mask arms the source but can never change a word.
    armed_cfg.fault.stuck_planes.push_back(
        {3, 5, 0, ~std::uint64_t{0}});
    core::LatticeEngine armed(armed_cfg);
    core::LatticeEngine::Config clean_cfg =
        engine_cfg(core::Backend::BitPlane, g.boundary);
    clean_cfg.extent = g.extent;
    core::LatticeEngine clean(clean_cfg);
    seed_engine(armed);
    seed_engine(clean);
    armed.advance(40);
    clean.advance(40);
    const fault::FaultCounters c = armed.fault_counters();
    EXPECT_EQ(c.injected(), 0);
    EXPECT_EQ(c.detected(), 0) << "no injector activity, no detections";
    EXPECT_EQ(armed.report().rollbacks, 0);
    EXPECT_TRUE(armed.state() == clean.state())
        << "armed-but-inert guarded run must match the fast path";
  }
}

TEST(PlaneFaultEngine, RecoveredRunMatchesFaultFreeGolden) {
  // Moderate transient rate: rollback-retry alone recovers, and the
  // committed evolution is the fault-free one.
  core::LatticeEngine::Config c =
      engine_cfg(core::Backend::BitPlane, lgca::Boundary::Null);
  c.fault.seed = 5;
  c.fault.plane_flip_rate = 1e-3;
  c.fault.parity_plane = true;
  core::LatticeEngine guarded(c);
  core::LatticeEngine golden(
      engine_cfg(core::Backend::Reference, lgca::Boundary::Null));
  seed_engine(guarded);
  seed_engine(golden);
  const core::EngineCheckpoint start = guarded.checkpoint();
  guarded.advance(80);
  golden.advance(80);
  const core::PerformanceReport r = guarded.report();
  EXPECT_GT(r.faults_injected, 0);
  EXPECT_GT(r.faults_detected, 0);
  EXPECT_GT(r.rollbacks, 0);
  EXPECT_TRUE(guarded.state() == golden.state())
      << "committed generations must be the fault-free evolution";
  EXPECT_TRUE(guarded.verify_against_reference(start));
}

TEST(PlaneFaultEngine, ReferenceMirrorTracksBitPlaneRun) {
  // Like-for-like: the same non-halo plan on the reference executor
  // must inject the identical fault set, fail the identical passes,
  // and commit the identical (fault-free) evolution.
  auto run = [](core::Backend backend) {
    core::LatticeEngine::Config c =
        engine_cfg(backend, lgca::Boundary::Null);
    c.fault.seed = 21;
    c.fault.plane_flip_rate = 2e-3;
    core::LatticeEngine e(c);
    seed_engine(e);
    e.advance(60);
    return std::tuple(e.fault_counters(), e.report().rollbacks,
                      e.state());
  };
  const auto [ref_counters, ref_rollbacks, ref_state] =
      run(core::Backend::Reference);
  const auto [bp_counters, bp_rollbacks, bp_state] =
      run(core::Backend::BitPlane);
  ASSERT_GT(ref_counters.injected_plane, 0);
  EXPECT_EQ(ref_counters.injected_plane, bp_counters.injected_plane)
      << "identical draws at identical global coordinates";
  EXPECT_EQ(ref_rollbacks, bp_rollbacks)
      << "the same passes must fail on both backends";
  EXPECT_TRUE(ref_state == bp_state);
}

TEST(PlaneFaultEngine, StuckPlaneWordEscalatesToDegradeOnBothBackends) {
  // A persistent fault survives every retry, so the ladder must climb:
  // shrink the interval, then retire the stuck word via the executor's
  // degrade hook — after which the run completes on the fault-free
  // evolution.
  for (const core::Backend backend :
       {core::Backend::BitPlane, core::Backend::Reference}) {
    core::LatticeEngine::Config c = engine_cfg(backend, lgca::Boundary::Null);
    c.fault.stuck_planes.push_back(
        {0, 5, ~std::uint64_t{0}, ~std::uint64_t{0}});
    c.max_retries = 1;
    core::LatticeEngine guarded(c);
    core::LatticeEngine golden(
        engine_cfg(core::Backend::Reference, lgca::Boundary::Null));
    seed_engine(guarded);
    seed_engine(golden);
    guarded.advance(30);
    golden.advance(30);
    const core::PerformanceReport r = guarded.report();
    EXPECT_GT(r.rollbacks, 0);
    EXPECT_GE(r.interval_shrinks, 1) << "shrink rung precedes degrade";
    EXPECT_EQ(r.remapped_slices, 1) << "one stuck plane word retired";
    EXPECT_EQ(r.oracle_passes, 0);
    EXPECT_TRUE(guarded.state() == golden.state());
  }
}

TEST(PlaneFaultEngine, CorruptionErrorWhenLadderIsExhausted) {
  // No retry can beat rate-1.0 flips, no stuck word exists to retire,
  // and the oracle is off: the ladder must end in the typed error.
  core::LatticeEngine::Config c =
      engine_cfg(core::Backend::BitPlane, lgca::Boundary::Null);
  c.fault.seed = 3;
  c.fault.plane_flip_rate = 1.0;
  c.max_retries = 1;
  core::LatticeEngine e(c);
  seed_engine(e);
  try {
    e.advance(8);
    FAIL() << "expected CorruptionError";
  } catch (const fault::CorruptionError& err) {
    EXPECT_GT(err.counters().injected_plane, 0);
    EXPECT_GT(err.counters().detected(), 0);
  }
  EXPECT_GE(e.report().interval_shrinks, 1)
      << "the ladder was climbed before giving up";
}

TEST(PlaneFaultEngine, SeededSoakMatchesGoldenAcrossSimdLevels) {
  // The acceptance soak: a high transient rate drives every escalation
  // rung (retry, shrink, oracle), at least a thousand faults land
  // across the SIMD levels this machine supports, and each run still
  // ends bit-identical to the fault-free golden reference.
  core::LatticeEngine golden(
      engine_cfg(core::Backend::Reference, lgca::Boundary::Null));
  seed_engine(golden);
  golden.advance(250);

  std::int64_t total_injected = 0;
  for (const lgca::SimdLevel level :
       {lgca::SimdLevel::Scalar, lgca::SimdLevel::Avx2,
        lgca::SimdLevel::Avx512}) {
    if (!lgca::simd_supported(level)) continue;
    const lgca::ScopedSimdLevel pin(level);
    core::LatticeEngine::Config c =
        engine_cfg(core::Backend::BitPlane, lgca::Boundary::Null);
    c.fault.seed = 17;
    c.fault.plane_flip_rate = 0.03;
    c.fault.parity_plane = true;  // catches every flip, so committed
                                  // generations are provably clean
    c.max_retries = 2;
    c.oracle_fallback = true;
    core::LatticeEngine e(c);
    seed_engine(e);
    e.advance(250);
    const core::PerformanceReport r = e.report();
    EXPECT_GT(r.rollbacks, 0) << lgca::to_string(level);
    EXPECT_GT(r.interval_shrinks, 0) << lgca::to_string(level);
    EXPECT_GT(r.oracle_passes, 0) << lgca::to_string(level);
    EXPECT_GT(r.faults_injected, 300) << lgca::to_string(level);
    total_injected += r.faults_injected;
    EXPECT_TRUE(e.state() == golden.state())
        << "soak on " << lgca::to_string(level)
        << " must end bit-identical to the fault-free golden run";
  }
  EXPECT_GE(total_injected, 1000);
}

}  // namespace
}  // namespace lattice
