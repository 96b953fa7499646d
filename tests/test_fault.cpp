// Fault injection, online detection, and recovery (docs/ROBUSTNESS.md):
// unit tests for the fault primitives, detector coverage on both
// hardware simulators, and end-to-end engine recovery — the headline
// claim being that a run under transient bit flips finishes with a
// lattice bit-exact against the fault-free evolution.

#include <gtest/gtest.h>

#include "lattice/arch/spa.hpp"
#include "lattice/arch/wsa.hpp"
#include "lattice/core/engine.hpp"
#include "lattice/fault/fault.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"

namespace lattice {
namespace {

// ---- primitives ----

TEST(FaultPlan, DefaultConstructedIsUnarmed) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.armed());
  plan.buffer_flip_rate = 1e-9;
  EXPECT_TRUE(plan.armed());
  plan = {};
  plan.stuck.push_back({0, 0, 0, 0xFF});
  EXPECT_TRUE(plan.armed());
}

TEST(FaultInjector, RejectsInvalidPlans) {
  fault::FaultPlan plan;
  plan.buffer_flip_rate = 1.5;
  EXPECT_THROW(fault::FaultInjector{plan}, Error);
  plan = {};
  plan.side_drop_rate = -0.1;
  EXPECT_THROW(fault::FaultInjector{plan}, Error);
  plan = {};
  plan.stuck.push_back({-1, 0, 0x01, 0xFF});
  EXPECT_THROW(fault::FaultInjector{plan}, Error);
}

TEST(FaultInjector, DrawsAreDeterministicAndEpochKeyed) {
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.buffer_flip_rate = 1.0;  // every stored word flips one bit
  fault::FaultInjector a(plan);
  fault::FaultInjector b(plan);
  bool epoch_changes_some_draw = false;
  for (std::int64_t pos = 0; pos < 64; ++pos) {
    const lgca::Site va = a.corrupt_stored(3, pos, 0x2A);
    EXPECT_EQ(va, b.corrupt_stored(3, pos, 0x2A)) << "same plan, same draw";
    EXPECT_NE(va, 0x2A) << "rate 1.0 must always flip";
    EXPECT_EQ(std::popcount(static_cast<unsigned>(va ^ 0x2A)), 1)
        << "exactly one bit per transient";
  }
  b.bump_epoch();
  for (std::int64_t pos = 0; pos < 64; ++pos) {
    if (a.corrupt_stored(4, pos, 0x2A) != b.corrupt_stored(4, pos, 0x2A)) {
      epoch_changes_some_draw = true;
    }
  }
  EXPECT_TRUE(epoch_changes_some_draw) << "retries must redraw transients";
  EXPECT_EQ(a.counters().injected_flips, 128);
}

TEST(FaultInjector, StuckMaskCountsOnlyRealModifications) {
  fault::FaultPlan plan;
  plan.stuck.push_back({1, 2, 0x01, 0xFF});
  fault::FaultInjector inj(plan);
  EXPECT_TRUE(inj.has_stuck());
  EXPECT_EQ(inj.apply_stuck(0, 2, 0x00), 0x00) << "wrong stage untouched";
  EXPECT_EQ(inj.apply_stuck(1, 0, 0x00), 0x00) << "wrong lane untouched";
  EXPECT_EQ(inj.apply_stuck(1, 2, 0x01), 0x01) << "already-high bit";
  EXPECT_EQ(inj.counters().injected_stuck, 0);
  EXPECT_EQ(inj.apply_stuck(1, 2, 0x02), 0x03);
  EXPECT_EQ(inj.counters().injected_stuck, 1);
  EXPECT_EQ(inj.disable_stuck(), 1);
  EXPECT_FALSE(inj.has_stuck());
  EXPECT_FALSE(inj.armed());
  EXPECT_EQ(inj.apply_stuck(1, 2, 0x02), 0x02) << "remapped PE is inert";
  EXPECT_EQ(inj.disable_stuck(), 0) << "second disable is a no-op";
  EXPECT_EQ(inj.remapped_lanes(), 1);
}

TEST(SiteOutflow, CountsOffLatticeStreamingDestinations) {
  const Extent ext{6, 5};
  for (const lgca::Topology topo :
       {lgca::Topology::Square4, lgca::Topology::Hex6}) {
    // Interior sites never drain, whatever their contents.
    EXPECT_EQ(fault::site_outflow(0x7F, {2, 2}, ext, topo), 0);
    // Rest particles (bit 6) never stream, even at a corner.
    EXPECT_EQ(fault::site_outflow(lgca::kRestBit, {0, 0}, ext, topo), 0);
    // Edge sites: exactly the channels whose neighbor is off-lattice.
    for (std::int64_t y = 0; y < ext.height; ++y) {
      for (std::int64_t x = 0; x < ext.width; ++x) {
        const lgca::Site all =
            static_cast<lgca::Site>((1u << lgca::channel_count(topo)) - 1);
        int expected = 0;
        for (int d = 0; d < lgca::channel_count(topo); ++d) {
          if (!ext.contains(lgca::neighbor_coord(topo, {x, y}, d))) ++expected;
        }
        EXPECT_EQ(fault::site_outflow(all, {x, y}, ext, topo), expected)
            << "(" << x << "," << y << ")";
      }
    }
  }
}

TEST(StageAudit, AggregationAndBalance) {
  fault::StageAudit a;
  EXPECT_TRUE(a.balanced()) << "invalid ledgers never complain";
  a.valid = true;
  a.in_mass = 10;
  a.outflow = 3;
  a.out_mass = 7;
  EXPECT_TRUE(a.balanced());
  // A particle crosses from slice a to slice b: a emits one fewer than
  // its own ledger predicts, b emits one more.
  a.out_mass = 6;
  EXPECT_FALSE(a.balanced());
  fault::StageAudit b;
  b.valid = true;
  b.in_mass = 5;
  b.out_mass = 6;
  a += b;
  EXPECT_TRUE(a.balanced()) << "imbalance can cancel in the aggregate";
  a.out_obstacles = 1;
  EXPECT_FALSE(a.balanced()) << "obstacle geometry is static";
}

// ---- simulator-level detection ----

lgca::SiteLattice make_gas_lattice(Extent ext, const lgca::GasRule& rule,
                                   std::uint64_t seed) {
  lgca::SiteLattice l(ext, lgca::Boundary::Null);
  lgca::fill_random(l, rule.model(), 0.3, seed, 0.15);
  return l;
}

TEST(WsaFault, ArmedButInertPlanDetectsNothing) {
  // An identity stuck mask arms every detector without changing a
  // single word: the run must be bit-exact and every ledger balanced.
  // This is the zero-false-positive guarantee of the audit machinery.
  const lgca::GasRule rule(lgca::GasKind::FHP_II);
  const auto in = make_gas_lattice({48, 32}, rule, 9);
  arch::WsaPipeline clean({48, 32}, rule, 3, 2, 0, true);
  const auto want = clean.run(in);

  fault::FaultPlan plan;
  plan.stuck.push_back({0, 0, 0x00, 0xFF});  // identity masks
  fault::FaultInjector inj(plan);
  arch::WsaPipeline pipe({48, 32}, rule, 3, 2, 0, true, &inj);
  const auto got = pipe.run(in);
  EXPECT_TRUE(got == want);
  EXPECT_EQ(inj.counters().injected(), 0);
  EXPECT_EQ(inj.counters().detected(), 0);
}

TEST(WsaFault, EveryBufferFlipIsCaughtByParity) {
  const lgca::GasRule rule(lgca::GasKind::FHP_II);
  const auto in = make_gas_lattice({48, 32}, rule, 9);
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.buffer_flip_rate = 1e-3;  // ~4.6 expected flips over 3 stages
  fault::FaultInjector inj(plan);
  arch::WsaPipeline pipe({48, 32}, rule, 3, 2, 0, true, &inj);
  (void)pipe.run(in);
  EXPECT_GT(inj.counters().injected_flips, 0);
  // Single-bit flips are caught with certainty: the parity shadow is
  // written from the true bus word and every in-range word is re-read
  // as its own update center. Each corrupted word reports once.
  EXPECT_EQ(inj.counters().detected_parity, inj.counters().injected_flips);
}

TEST(WsaFault, MassChangingStuckPeTripsConservation) {
  const lgca::GasRule rule(lgca::GasKind::FHP_II);
  const auto in = make_gas_lattice({48, 32}, rule, 9);
  arch::WsaPipeline clean({48, 32}, rule, 3, 2, 0, true);
  const auto want = clean.run(in);

  fault::FaultPlan plan;
  plan.stuck.push_back({1, 1, 0x3F, 0xFF});  // forces all 6 channels high
  fault::FaultInjector inj(plan);
  arch::WsaPipeline pipe({48, 32}, rule, 3, 2, 0, true, &inj);
  const auto got = pipe.run(in);
  EXPECT_FALSE(got == want);
  EXPECT_GT(inj.counters().injected_stuck, 0);
  EXPECT_GE(inj.counters().detected_conservation, 1)
      << "stage 1's ledger must not balance";
}

TEST(SpaFault, ArmedButInertPlanDetectsNothingAndForcesCycleExact) {
  const lgca::GasRule rule(lgca::GasKind::FHP_II);
  const auto in = make_gas_lattice({48, 32}, rule, 9);
  arch::SpaMachine clean({48, 32}, rule, 8, 2, 0, 1, true);
  const auto want = clean.run(in);

  fault::FaultPlan plan;
  plan.stuck.push_back({0, 0, 0x00, 0xFF});  // identity masks
  fault::FaultInjector inj(plan);
  // threads=4 would normally take the wavefront path; armed plans must
  // fall back to the cycle-exact walk where the buffers live.
  arch::SpaMachine spa({48, 32}, rule, 8, 2, 0, 4, true, &inj);
  const auto got = spa.run(in);
  EXPECT_TRUE(got == want);
  EXPECT_EQ(inj.counters().injected(), 0);
  EXPECT_EQ(inj.counters().detected(), 0);
  EXPECT_EQ(spa.stats().ticks, clean.stats().ticks)
      << "fallback must reproduce the machine's tick count";
}

TEST(SpaFault, EveryBufferFlipIsCaughtByParity) {
  const lgca::GasRule rule(lgca::GasKind::FHP_II);
  const auto in = make_gas_lattice({48, 32}, rule, 9);
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.buffer_flip_rate = 1e-3;
  fault::FaultInjector inj(plan);
  arch::SpaMachine spa({48, 32}, rule, 8, 2, 0, 1, true, &inj);
  (void)spa.run(in);
  EXPECT_GT(inj.counters().injected_flips, 0);
  EXPECT_EQ(inj.counters().detected_parity, inj.counters().injected_flips);
}

TEST(SpaFault, SideChannelCorruptionIsCaughtByLinkChecks) {
  const lgca::GasRule rule(lgca::GasKind::FHP_II);
  const auto in = make_gas_lattice({48, 32}, rule, 9);
  fault::FaultPlan plan;
  plan.seed = 3;
  plan.side_flip_rate = 0.01;
  plan.side_drop_rate = 0.01;
  fault::FaultInjector inj(plan);
  arch::SpaMachine spa({48, 32}, rule, 8, 2, 0, 1, true, &inj);
  (void)spa.run(in);
  EXPECT_GT(inj.counters().injected_side, 0);
  // Links carry parity and framing: every *changed* word is reported.
  // (A dropped word that was already zero alters nothing — and cannot
  // corrupt the physics either.)
  EXPECT_GE(inj.counters().detected_side, 1);
}

TEST(SpaFault, MassChangingStuckChipTripsAggregateConservation) {
  const lgca::GasRule rule(lgca::GasKind::FHP_II);
  const auto in = make_gas_lattice({48, 32}, rule, 9);
  fault::FaultPlan plan;
  plan.stuck.push_back({0, 2, 0x3F, 0xFF});  // depth 0, slice 2
  fault::FaultInjector inj(plan);
  arch::SpaMachine spa({48, 32}, rule, 8, 2, 0, 1, true, &inj);
  (void)spa.run(in);
  EXPECT_GT(inj.counters().injected_stuck, 0);
  EXPECT_GE(inj.counters().detected_conservation, 1)
      << "per-slice ledgers aggregate per depth and must not balance";
}

// ---- engine-level recovery ----

core::LatticeEngine::Config engine_config(core::Backend b, Extent ext) {
  core::LatticeEngine::Config c;
  c.extent = ext;
  c.gas = lgca::GasKind::FHP_II;
  c.backend = b;
  c.pipeline_depth = 4;
  c.wsa_width = 4;
  c.spa_slice_width = ext.width >= 256 ? 32 : 8;
  return c;
}

TEST(EngineFault, ArmedPlanRejectsReferenceBackend) {
  auto c = engine_config(core::Backend::Reference, {32, 24});
  c.fault.buffer_flip_rate = 1e-6;
  EXPECT_THROW(core::LatticeEngine{c}, Error);
}

TEST(EngineFault, UnarmedPlanLeavesReportClean) {
  auto c = engine_config(core::Backend::Wsa, {32, 24});
  core::LatticeEngine e(c);
  lgca::fill_random(e.state(), e.gas_model(), 0.3, 7, 0.15);
  e.advance(8);
  const auto r = e.report();
  EXPECT_EQ(r.faults_injected, 0);
  EXPECT_EQ(r.faults_detected, 0);
  EXPECT_EQ(r.rollbacks, 0);
  EXPECT_EQ(r.checkpoints, 0);
  EXPECT_EQ(e.fault_counters().injected(), 0);
  EXPECT_EQ(r.committed_updates, 32 * 24 * 8);
  EXPECT_DOUBLE_EQ(r.effective_rate, r.modeled_rate)
      << "fault-free effective rate collapses onto the modeled rate";
}

class RecoveryTest : public ::testing::TestWithParam<core::Backend> {};

INSTANTIATE_TEST_SUITE_P(HardwareBackends, RecoveryTest,
                         ::testing::Values(core::Backend::Wsa,
                                           core::Backend::Spa,
                                           core::Backend::WsaE),
                         [](const auto& info) {
                           switch (info.param) {
                             case core::Backend::Wsa: return "Wsa";
                             case core::Backend::Spa: return "Spa";
                             default: return "WsaE";
                           }
                         });

// The acceptance scenario: a 256×256 FHP-II run under transient buffer
// flips at ~1e-6 per stored word. Every corruption must be detected,
// rolled back, and re-executed, leaving the final lattice bit-exact
// against the fault-free evolution. Seed 10 deterministically yields
// one flip in this span at epoch 0 and a clean retry at epoch 1.
TEST_P(RecoveryTest, RecoversBitExactFromTransientFlips) {
  auto c = engine_config(GetParam(), {256, 256});
  c.fault.seed = 10;
  c.fault.buffer_flip_rate = 1e-6;
  core::LatticeEngine faulty(c);
  core::LatticeEngine clean(engine_config(GetParam(), {256, 256}));
  lgca::fill_random(faulty.state(), faulty.gas_model(), 0.3, 123, 0.15);
  lgca::fill_random(clean.state(), clean.gas_model(), 0.3, 123, 0.15);
  const core::EngineCheckpoint start = faulty.checkpoint();

  faulty.advance(12);
  clean.advance(12);

  EXPECT_TRUE(faulty.state() == clean.state())
      << "recovered run must be bit-exact against the fault-free run";
  const auto r = faulty.report();
  EXPECT_GT(r.faults_injected, 0) << "the scenario must actually fault";
  EXPECT_GE(r.faults_detected, r.faults_injected)
      << "every transient flip is caught";
  EXPECT_GE(r.rollbacks, 1);
  EXPECT_EQ(r.faults_corrected, r.faults_detected)
      << "every detection was discarded by a rollback";
  EXPECT_GE(r.checkpoints, 1);
  EXPECT_EQ(r.committed_updates, 256 * 256 * 12);
  EXPECT_GT(r.site_updates, r.committed_updates)
      << "redone passes cost real work";
  EXPECT_LT(r.effective_rate, r.modeled_rate)
      << "recovery overhead must show up in the effective rate";
  EXPECT_TRUE(faulty.verify_against_reference(start));
}

TEST_P(RecoveryTest, CheckpointIntervalSpanningMultiplePasses) {
  // interval 8 > depth 4: a detection mid-interval rolls back two
  // passes' worth of work, which must then replay exactly.
  auto c = engine_config(GetParam(), {64, 48});
  c.fault.seed = 21;
  c.fault.buffer_flip_rate = 5e-5;
  c.checkpoint_interval = 8;
  core::LatticeEngine faulty(c);
  core::LatticeEngine clean(engine_config(GetParam(), {64, 48}));
  lgca::fill_random(faulty.state(), faulty.gas_model(), 0.3, 77, 0.15);
  lgca::fill_random(clean.state(), clean.gas_model(), 0.3, 77, 0.15);
  faulty.advance(16);
  clean.advance(16);
  EXPECT_TRUE(faulty.state() == clean.state());
  EXPECT_GT(faulty.report().faults_injected, 0);
  EXPECT_GE(faulty.report().rollbacks, 1);
}

TEST(EngineFault, RetryBudgetExhaustionThrowsCorruptionError) {
  // A persistent mass-changing stuck PE replays on every retry; WSA has
  // no remap path, so the bounded budget must give up loudly.
  auto c = engine_config(core::Backend::Wsa, {32, 24});
  c.fault.stuck.push_back({0, 1, 0x3F, 0xFF});
  c.max_retries = 1;
  core::LatticeEngine e(c);
  lgca::fill_random(e.state(), e.gas_model(), 0.3, 7, 0.15);
  try {
    e.advance(8);
    FAIL() << "expected CorruptionError";
  } catch (const fault::CorruptionError& err) {
    EXPECT_GT(err.counters().detected(), 0);
    EXPECT_GT(err.counters().injected_stuck, 0);
  }
  EXPECT_EQ(e.generation(), 0) << "no corrupted generation was committed";
}

TEST(EngineFault, SpaRemapsStuckSliceAndDegradesGracefully) {
  auto c = engine_config(core::Backend::Spa, {64, 48});
  c.fault.stuck.push_back({0, 2, 0x3F, 0xFF});  // depth 0, slice 2
  c.max_retries = 1;
  core::LatticeEngine faulty(c);
  core::LatticeEngine clean(engine_config(core::Backend::Spa, {64, 48}));
  lgca::fill_random(faulty.state(), faulty.gas_model(), 0.3, 7, 0.15);
  lgca::fill_random(clean.state(), clean.gas_model(), 0.3, 7, 0.15);
  faulty.advance(12);
  clean.advance(12);
  const auto r = faulty.report();
  EXPECT_TRUE(faulty.state() == clean.state())
      << "after remapping, surviving pipelines produce the exact physics";
  EXPECT_EQ(r.remapped_slices, 1);
  EXPECT_GE(r.rollbacks, 1);
  EXPECT_GT(r.ticks, clean.report().ticks)
      << "degraded operation pays the remap tick penalty";
  EXPECT_LT(r.effective_rate, clean.report().effective_rate);
}

}  // namespace
}  // namespace lattice
