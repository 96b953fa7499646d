// Executor-layer tests: the BackendExec contract the engine relies on.
//
// The engine is backend-blind — all per-backend behavior (persistent
// pipeline state, boundary requirements, fault capability, the report
// fields only that backend knows) lives in the executors. These tests
// pin that contract down, with the WSA-E backend as the main subject:
// bit-exact with WSA and the golden reference on every supported gas,
// honest off-chip buffer accounting, and visible stalls when the
// external parts can't keep up.

#include <gtest/gtest.h>

#include "lattice/core/engine.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"

namespace lattice::core {
namespace {

LatticeEngine::Config cfg(Backend b,
                          lgca::GasKind gas = lgca::GasKind::FHP_II) {
  LatticeEngine::Config c;
  c.extent = {32, 24};
  c.gas = gas;
  c.backend = b;
  c.pipeline_depth = 3;
  c.wsa_width = 2;
  c.spa_slice_width = 8;
  return c;
}

void seed(LatticeEngine& e, std::uint64_t s = 77) {
  lgca::fill_random(e.state(), e.gas_model(), 0.3, s, 0.15);
}

// ---- WSA-E backend matrix: every supported gas, against both the
// golden reference and the on-chip-buffer WSA it claims to extend ----

class WsaEGasTest : public ::testing::TestWithParam<lgca::GasKind> {};

INSTANTIATE_TEST_SUITE_P(AllGases, WsaEGasTest,
                         ::testing::Values(lgca::GasKind::HPP,
                                           lgca::GasKind::FHP_I,
                                           lgca::GasKind::FHP_II,
                                           lgca::GasKind::FHP_III),
                         [](const auto& info) {
                           switch (info.param) {
                             case lgca::GasKind::HPP: return "HPP";
                             case lgca::GasKind::FHP_I: return "FHP_I";
                             case lgca::GasKind::FHP_II: return "FHP_II";
                             case lgca::GasKind::FHP_III: return "FHP_III";
                           }
                           return "unknown";
                         });

TEST_P(WsaEGasTest, BitExactWithReferenceAndWsa) {
  LatticeEngine wsa_e(cfg(Backend::WsaE, GetParam()));
  LatticeEngine wsa(cfg(Backend::Wsa, GetParam()));
  seed(wsa_e);
  seed(wsa);
  const EngineCheckpoint start = wsa_e.checkpoint();
  wsa_e.advance(10);
  wsa.advance(10);
  EXPECT_TRUE(wsa_e.state() == wsa.state())
      << "moving the line buffer off chip must not change the physics";
  EXPECT_TRUE(wsa_e.verify_against_reference(start));
}

TEST(WsaEExec, RejectsPeriodicBoundaries) {
  LatticeEngine::Config c = cfg(Backend::WsaE);
  c.boundary = lgca::Boundary::Periodic;
  EXPECT_THROW(LatticeEngine{c}, Error);
}

// ---- persistent executor state ----

// The hardware executors keep their pipeline/machine across passes.
// Chopping a run into ragged chunks (tail chunks shorter than the
// pipeline depth, forcing the temporary-pipeline path between
// persistent full passes) must be invisible in the physics.
class PersistentExecTest : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(HardwareBackends, PersistentExecTest,
                         ::testing::Values(Backend::Wsa, Backend::Spa,
                                           Backend::WsaE),
                         [](const auto& info) {
                           switch (info.param) {
                             case Backend::Wsa: return "Wsa";
                             case Backend::Spa: return "Spa";
                             default: return "WsaE";
                           }
                         });

TEST_P(PersistentExecTest, RaggedAdvancesMatchStraightRun) {
  LatticeEngine straight(cfg(GetParam()));
  LatticeEngine ragged(cfg(GetParam()));
  seed(straight);
  seed(ragged);
  const EngineCheckpoint start = ragged.checkpoint();
  straight.advance(17);
  // 1 + 5 + 2 + 6 + 3 = 17, exercising full passes, short tails, and
  // the rearm path between them.
  for (const int step : {1, 5, 2, 6, 3}) ragged.advance(step);
  EXPECT_EQ(ragged.generation(), 17);
  EXPECT_TRUE(ragged.state() == straight.state());
  EXPECT_TRUE(ragged.verify_against_reference(start));
}

TEST_P(PersistentExecTest, RestoreDoesNotLeakPipelineState) {
  // restore() rewinds the lattice but not the executor; the persistent
  // chain must fully rearm on the next pass, not replay stale ring
  // contents from the abandoned timeline.
  LatticeEngine straight(cfg(GetParam()));
  LatticeEngine resumed(cfg(GetParam()));
  seed(straight);
  seed(resumed);
  const EngineCheckpoint start = resumed.checkpoint();
  straight.advance(12);
  resumed.advance(6);
  const EngineCheckpoint ckpt = resumed.checkpoint();
  resumed.advance(6);
  resumed.restore(ckpt);
  resumed.advance(6);
  EXPECT_TRUE(resumed.state() == straight.state());
  EXPECT_TRUE(resumed.verify_against_reference(start));
}

TEST_P(PersistentExecTest, StatsKeepAccumulatingAcrossPasses) {
  LatticeEngine e(cfg(GetParam()));
  seed(e);
  e.advance(3);
  const PerformanceReport first = e.report();
  ASSERT_GT(first.ticks, 0);
  e.advance(3);
  const PerformanceReport second = e.report();
  // A persistent pipeline must not double-report its lifetime
  // counters: the second pass adds exactly one pass's worth.
  EXPECT_EQ(second.ticks, 2 * first.ticks);
  EXPECT_EQ(second.site_updates, 2 * first.site_updates);
  EXPECT_EQ(second.storage_sites, first.storage_sites);
}

// ---- WSA-E external buffer model ----

TEST(WsaEExec, SlowBufferPartsStallTheMachineButNotThePhysics) {
  LatticeEngine::Config slow = cfg(Backend::WsaE);
  // Single-bank parts with a 2-tick cycle: the two FIFO accesses per
  // tick serialize and the lockstep machine waits.
  slow.wsa_e_buffer = arch::MemoryConfig{/*banks=*/1, /*bank_busy_ticks=*/2};
  LatticeEngine stalled(slow);
  LatticeEngine fast(cfg(Backend::WsaE));
  seed(stalled);
  seed(fast);
  stalled.advance(9);
  fast.advance(9);

  EXPECT_TRUE(stalled.state() == fast.state())
      << "stalls cost time, never correctness";
  const PerformanceReport rs = stalled.report();
  const PerformanceReport rf = fast.report();
  EXPECT_GT(rs.ticks, rf.ticks);
  EXPECT_LT(rs.buffer_bandwidth_fraction, 1.0);
  EXPECT_DOUBLE_EQ(rf.buffer_bandwidth_fraction, 1.0);
  EXPECT_LT(rs.modeled_rate, rf.modeled_rate)
      << "the §5 full-bandwidth assumption must be visible when broken";
}

TEST(WsaEExec, MainMemoryBandwidthIsIndependentOfDepth) {
  LatticeEngine::Config shallow = cfg(Backend::WsaE);
  shallow.pipeline_depth = 1;
  LatticeEngine::Config deep = cfg(Backend::WsaE);
  deep.pipeline_depth = 6;
  LatticeEngine a(shallow);
  LatticeEngine b(deep);
  seed(a);
  seed(b);
  const EngineCheckpoint a_start = a.checkpoint();
  const EngineCheckpoint b_start = b.checkpoint();
  a.advance(6);
  b.advance(6);
  const PerformanceReport ra = a.report();
  const PerformanceReport rb = b.report();
  // §5: main memory touches only the chain ends — deepening the
  // pipeline scales the off-chip buffer bill, not the stream.
  EXPECT_DOUBLE_EQ(ra.bandwidth_bits_per_tick, rb.bandwidth_bits_per_tick);
  EXPECT_GT(rb.offchip_buffer_bits_per_tick, ra.offchip_buffer_bits_per_tick);
  EXPECT_GT(rb.offchip_buffer_sites, ra.offchip_buffer_sites);
  EXPECT_TRUE(a.verify_against_reference(a_start));
  EXPECT_TRUE(b.verify_against_reference(b_start));
}

// ---- executor capability checks ----

TEST(ExecCapabilities, SoftwareBackendsRejectFaultPlans) {
  for (const Backend b : {Backend::Reference, Backend::BitPlane}) {
    LatticeEngine::Config c = cfg(b);
    c.fault.buffer_flip_rate = 1e-6;
    EXPECT_THROW(LatticeEngine{c}, Error)
        << "software executors have no simulated buffers to corrupt";
  }
}

TEST(ExecCapabilities, WsaEAcceptsFaultPlans) {
  LatticeEngine::Config c = cfg(Backend::WsaE);
  c.fault.seed = 5;
  c.fault.buffer_flip_rate = 1e-5;
  LatticeEngine guarded(c);
  LatticeEngine clean(cfg(Backend::WsaE));
  seed(guarded);
  seed(clean);
  const EngineCheckpoint start = guarded.checkpoint();
  guarded.advance(9);
  clean.advance(9);
  EXPECT_TRUE(guarded.state() == clean.state());
  EXPECT_TRUE(guarded.verify_against_reference(start));
}

}  // namespace
}  // namespace lattice::core
