// Fault-injection tests for the 3-D backends: the escalation ladder
// (retry -> interval shrink -> slice remap -> oracle -> corruption)
// was written against the 2-D engines; these tests pin that the
// volume executors inherit it unchanged. Faults are keyed by global
// (x, y, z) so a z-banded run and a whole-volume run inject the same
// set, which is what makes the Reference3 mirror comparison and the
// thread-invariance checks meaningful.

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "lattice/core/engine.hpp"
#include "lattice/fault/memory_guard.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"
#include "lattice/obs/metrics.hpp"

namespace lattice::core {
namespace {

LatticeEngine::Config engine_cfg3(Backend b, const fault::FaultPlan& plan,
                                  unsigned threads = 1) {
  LatticeEngine::Config c;
  c.extent = {24, 12};
  c.depth = 8;
  c.boundary = lgca::Boundary::Periodic;
  c.backend = b;
  c.threads = threads;
  c.fault = plan;
  c.checkpoint_interval = 8;
  return c;
}

void seed3(LatticeEngine& e, std::uint64_t seed = 47) {
  const lgca3d::Extent3 ext{24, 12, 8};
  lgca3d::Lattice3 vol(ext, lgca3d::Boundary3::Periodic);
  lgca3d::fill_random(vol, 0.3, seed);
  ASSERT_EQ(e.state().site_count(), vol.site_count());
  std::memcpy(e.state().grid().data(), vol.data(), vol.site_count());
}

// ---- capability matrix ----

TEST(Fault3Capability, BitPlane3TakesPlaneFaultsButNotMachineMemory) {
  for (const auto arm : {0, 1, 2, 3}) {
    fault::FaultPlan plan;
    switch (arm) {
      case 0: plan.plane_flip_rate = 1e-3; break;
      case 1: plan.halo_flip_rate = 1e-3; break;
      case 2: plan.parity_plane = true; break;
      case 3: plan.stuck_planes.push_back({2, 0, 1, ~0ull}); break;
    }
    LatticeEngine::Config wide = engine_cfg3(Backend::BitPlane3, plan);
    wide.extent = {512, 4};
    wide.depth = 4;
    EXPECT_NO_THROW(LatticeEngine{wide}) << "arm " << arm;
    if (arm == 1) {
      EXPECT_THROW(LatticeEngine{engine_cfg3(Backend::BitPlane3, plan)},
                   Error)
          << "24-wide rows are compact: no guard word to flip";
    } else {
      EXPECT_NO_THROW(LatticeEngine{engine_cfg3(Backend::BitPlane3, plan)})
          << "arm " << arm;
    }
  }
  fault::FaultPlan machine;
  machine.buffer_flip_rate = 1e-3;
  EXPECT_THROW(LatticeEngine{engine_cfg3(Backend::BitPlane3, machine)},
               Error)
      << "machine-memory faults belong to the pipelined 2-D engines";
}

TEST(Fault3Capability, Reference3TakesOnlyWhatItCanMirror) {
  fault::FaultPlan flips;
  flips.plane_flip_rate = 1e-3;
  flips.stuck_planes.push_back({2, 0, 1, ~0ull});
  EXPECT_NO_THROW(LatticeEngine{engine_cfg3(Backend::Reference3, flips)});

  fault::FaultPlan halo;
  halo.halo_flip_rate = 1e-3;
  EXPECT_THROW(LatticeEngine{engine_cfg3(Backend::Reference3, halo)}, Error)
      << "the golden updater has no halo exchange to corrupt";

  fault::FaultPlan parity;
  parity.parity_plane = true;
  EXPECT_THROW(LatticeEngine{engine_cfg3(Backend::Reference3, parity)},
               Error)
      << "the golden updater carries no parity plane";
}

// ---- armed but inert ----

TEST(Fault3, ArmedButInertPlanRaisesNoFalsePositives) {
  // An identity stuck mask (OR 0, AND all-ones) arms the machinery
  // without perturbing a single bit: every detector must stay quiet.
  fault::FaultPlan plan;
  plan.stuck_planes.push_back({3, 5, 0, ~0ull});
  plan.parity_plane = true;
  LatticeEngine faulty(engine_cfg3(Backend::BitPlane3, plan));
  LatticeEngine clean(engine_cfg3(Backend::BitPlane3, {}));
  seed3(faulty);
  seed3(clean);
  faulty.advance(40);
  clean.advance(40);
  EXPECT_TRUE(faulty.state() == clean.state());
  EXPECT_EQ(faulty.fault_counters().detected(), 0);
  EXPECT_EQ(faulty.report().rollbacks, 0);
}

// ---- recovery ----

TEST(Fault3, RecoveredRunMatchesFaultFreeGolden) {
  fault::FaultPlan plan;
  plan.plane_flip_rate = 1e-3;
  plan.parity_plane = true;
  plan.seed = 99;
  LatticeEngine faulty(engine_cfg3(Backend::BitPlane3, plan));
  LatticeEngine clean(engine_cfg3(Backend::BitPlane3, {}));
  seed3(faulty);
  seed3(clean);
  faulty.advance(80);
  clean.advance(80);
  EXPECT_GT(faulty.fault_counters().injected(), 0)
      << "the plan must actually fire at this rate and volume";
  EXPECT_TRUE(faulty.state() == clean.state())
      << "every injected flip must be detected and rolled back";
}

TEST(Fault3, ReferenceMirrorTracksBitPlaneRun) {
  // Same seed, same plan: the deterministic injector must hand both
  // backends the identical fault set, so counters, rollbacks, and the
  // final volume all agree.
  fault::FaultPlan plan;
  plan.plane_flip_rate = 2e-3;
  plan.seed = 21;
  LatticeEngine bp3(engine_cfg3(Backend::BitPlane3, plan));
  LatticeEngine ref3(engine_cfg3(Backend::Reference3, plan));
  seed3(bp3);
  seed3(ref3);
  bp3.advance(64);
  ref3.advance(64);
  const auto snapshot = [](const LatticeEngine& e) {
    return std::make_tuple(e.fault_counters().injected_plane,
                           e.report().rollbacks, e.generation());
  };
  EXPECT_EQ(snapshot(bp3), snapshot(ref3));
  EXPECT_GT(bp3.fault_counters().injected_plane, 0);
  EXPECT_TRUE(bp3.state() == ref3.state());
}

TEST(Fault3, ThreadCountDoesNotChangeTheFaultSet) {
  fault::FaultPlan plan;
  plan.plane_flip_rate = 1e-3;
  plan.parity_plane = true;
  plan.seed = 7;
  LatticeEngine solo(engine_cfg3(Backend::BitPlane3, plan, 1));
  LatticeEngine team(engine_cfg3(Backend::BitPlane3, plan, 4));
  seed3(solo);
  seed3(team);
  solo.advance(64);
  team.advance(64);
  EXPECT_EQ(solo.fault_counters().injected(),
            team.fault_counters().injected())
      << "faults key on global (x, y, z); this volume runs one band, so "
         "GuardedRunnersAreBandAndLaneCountInvariant covers the split";
  EXPECT_EQ(solo.fault_counters().detected(),
            team.fault_counters().detected());
  EXPECT_TRUE(solo.state() == team.state());
}

// ---- the runners' hook paths, driven directly ----

struct Guarded3 {
  fault::FaultCounters counters;
  lgca::SiteLattice state;
  std::int64_t bands = -1;  // bitplane.bands / bitplane.tiles after the run
  std::int64_t tiles = -1;
};

// What the engine hands a BitPlane3 pass: the flat {nx, ny*nz} bytes
// of a seeded periodic volume, under a plan that arms every
// plane-memory source and every detector. Halo flips need guard
// words, which only rows of 8 or more words store, so a compact volume
// runs the plan with `halo_rate` 0.
template <typename Run>
Guarded3 run_guarded3(const lgca3d::Extent3& ext, double halo_rate,
                      const Run& run) {
  fault::FaultPlan plan;
  plan.seed = 99;
  plan.plane_flip_rate = 0.01;
  plan.halo_flip_rate = halo_rate;
  plan.parity_plane = true;
  plan.stuck_planes.push_back({1, 10, 0x0F, ~std::uint64_t{0}});
  fault::FaultInjector inj(plan);
  fault::PlaneMemoryGuard guard(inj);
  lgca3d::Lattice3 vol(ext, lgca3d::Boundary3::Periodic);
  lgca3d::fill_random(vol, 0.3, 53);
  Guarded3 r{fault::FaultCounters{},
             lgca::SiteLattice(lgca3d::flat_extent(ext),
                               lgca::Boundary::Periodic)};
  std::memcpy(r.state.grid().data(), vol.data(), vol.site_count());
  obs::MetricsRegistry::global().reset();
  run(r.state, &guard);
  r.counters = inj.counters();
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  r.bands = snap.gauge_or("bitplane.bands", -1);
  r.tiles = snap.gauge_or("bitplane.tiles", -1);
  return r;
}

void expect_same_run(const Guarded3& a, const Guarded3& b) {
  EXPECT_EQ(a.counters.injected_plane, b.counters.injected_plane);
  EXPECT_EQ(a.counters.injected_stuck, b.counters.injected_stuck);
  EXPECT_EQ(a.counters.detected_ledger, b.counters.detected_ledger);
  EXPECT_EQ(a.counters.detected_canary, b.counters.detected_canary);
  EXPECT_EQ(a.counters.detected_shadow, b.counters.detected_shadow);
  EXPECT_TRUE(a.state == b.state);
}

TEST(Fault3, GuardedRunnersAreBandAndLaneCountInvariant) {
  // Faults key on global (x, y, z) and the detectors are per row, so
  // neither the z-slab band split (per-generation hooks, injection
  // barrier) nor the tile-to-lane split (block hooks from lane 0) may
  // change a counter or the corrupted evolution. A one-word grain
  // forces four bands on a volume far below the default grain. The
  // wide volume (8-word rows) takes halo flips; the compact one runs
  // the other sources and refuses them.
  struct Shape {
    lgca3d::Extent3 ext;
    double halo_rate;
  };
  for (const Shape shape : {Shape{{512, 2, 8}, 0.05}, Shape{{100, 6, 8}, 0}}) {
    const lgca3d::Extent3 ext = shape.ext;
    const auto banded = [&](unsigned threads) {
      return run_guarded3(ext, shape.halo_rate,
                          [&](lgca::SiteLattice& s,
                              lgca::PlaneRunHooks* hooks) {
                            lgca3d::bitplane_gas_run3(s, ext, 24, 0, threads,
                                                      1, hooks);
                          });
    };
    const Guarded3 one_band = banded(1);
    const Guarded3 four_bands = banded(4);
    ASSERT_GT(one_band.counters.injected(), 0);
    ASSERT_GT(one_band.counters.detected(), 0);
    if (shape.halo_rate > 0) {
      EXPECT_GT(one_band.counters.detected_canary, 0)
          << "the wide volume must exercise the halo family";
    }
    expect_same_run(one_band, four_bands);

    const lgca::TemporalTiling tiling{2, 2};  // four z-slab tiles
    ASSERT_TRUE(lgca3d::temporal_tiling_feasible3(
        tiling, ext, lgca3d::Boundary3::Periodic));
    const auto tiled = [&](unsigned threads) {
      return run_guarded3(ext, shape.halo_rate,
                          [&](lgca::SiteLattice& s,
                              lgca::PlaneRunHooks* hooks) {
                            lgca3d::bitplane_gas_run_tiled3(
                                s, ext, 24, 0, threads, tiling, hooks);
                          });
    };
    const Guarded3 one_lane = tiled(1);
    const Guarded3 four_lanes = tiled(4);
    ASSERT_GT(one_lane.counters.injected(), 0);
    ASSERT_GT(one_lane.counters.detected(), 0);
    expect_same_run(one_lane, four_lanes);

    if constexpr (obs::kEnabled) {
      EXPECT_EQ(one_band.bands, 1);
      EXPECT_EQ(four_bands.bands, 4) << "the banded path must really split";
      EXPECT_EQ(four_lanes.tiles, 4) << "the tiled path must really tile";
    }
  }
  const lgca3d::Extent3 compact{100, 6, 8};
  EXPECT_THROW(run_guarded3(compact, 0.05,
                            [&](lgca::SiteLattice& s,
                                lgca::PlaneRunHooks* hooks) {
                              lgca3d::bitplane_gas_run3(s, compact, 24, 0, 1,
                                                        1, hooks);
                            }),
               Error)
      << "halo flips are refused on compact rows";
}

// ---- escalation ----

TEST(Fault3, StuckPlaneWordEscalatesToDegradeOnBothBackends) {
  for (const Backend b : {Backend::BitPlane3, Backend::Reference3}) {
    fault::FaultPlan plan;
    plan.stuck_planes.push_back({0, 5, ~0ull, ~0ull});
    LatticeEngine::Config c = engine_cfg3(b, plan);
    c.max_retries = 1;
    LatticeEngine e(c);
    seed3(e);
    e.advance(32);
    const PerformanceReport r = e.report();
    EXPECT_EQ(r.remapped_slices, 1)
        << "a persistent stuck word must force a remap, backend "
        << static_cast<int>(b);
    EXPECT_EQ(r.oracle_passes, 0);
    EXPECT_EQ(e.generation(), 32) << "degraded, but still progressing";
  }
}

TEST(Fault3, CorruptionErrorWhenLadderIsExhausted) {
  fault::FaultPlan plan;
  plan.plane_flip_rate = 1.0;
  plan.parity_plane = true;
  LatticeEngine::Config c = engine_cfg3(Backend::BitPlane3, plan);
  c.max_retries = 1;
  LatticeEngine e(c);
  seed3(e);
  try {
    e.advance(64);
    FAIL() << "a saturating flip rate must exhaust the ladder";
  } catch (const fault::CorruptionError& err) {
    EXPECT_GT(err.counters().injected(), 0);
    EXPECT_GT(err.counters().detected(), 0);
  }
}

TEST(Fault3, SeededSoakMatchesGolden) {
  fault::FaultPlan plan;
  plan.plane_flip_rate = 0.03;
  plan.parity_plane = true;
  plan.seed = 1234;
  LatticeEngine::Config c = engine_cfg3(Backend::BitPlane3, plan);
  c.oracle_fallback = true;
  LatticeEngine faulty(c);
  LatticeEngine clean(engine_cfg3(Backend::BitPlane3, {}));
  seed3(faulty);
  seed3(clean);
  faulty.advance(250);
  clean.advance(250);
  EXPECT_TRUE(faulty.state() == clean.state())
      << "with the oracle rung available no corruption may survive";
  EXPECT_GT(faulty.fault_counters().injected(), 0);
}

}  // namespace
}  // namespace lattice::core
