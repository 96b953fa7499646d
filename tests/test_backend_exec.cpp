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

#include <cmath>
#include <string>
#include <string_view>

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

// ---- the hardware backends' counters, pinned ----
//
// The parity matrices prove every backend's bits; these records pin
// what the simulated machines charge for them: exact tick counts, the
// WSA-E stall surcharge, the counters of ragged tail passes, and the
// recovery ledger of an armed run. Each machine advances 10 + 3 + 1
// generations at depth 3, so full passes and short tails both run, on
// a tiny lattice (where area + lead bounds the WSA-E stall model's
// measuring window) and on a 64-wide one (where the window's 1024-tick
// floor does). A moved value is a change to the modeled machine. On a
// mismatch the test prints the observed record in table form.

struct Machine {
  std::string_view name;
  Backend backend;
  unsigned threads;
  arch::MemoryConfig buffer;  // WSA-E line-buffer parts
};

constexpr Machine kMachines[] = {
    {"Wsa", Backend::Wsa, 1, {2, 1}},
    {"WsaE", Backend::WsaE, 1, {2, 1}},
    {"WsaESlow", Backend::WsaE, 1, {1, 2}},
    {"Spa1", Backend::Spa, 1, {2, 1}},
    {"Spa3", Backend::Spa, 3, {2, 1}},
};

const Machine& machine(std::string_view name) {
  for (const Machine& m : kMachines) {
    if (m.name == name) return m;
  }
  throw Error("unknown machine");
}

constexpr lgca::GasKind kHpp = lgca::GasKind::HPP;
constexpr lgca::GasKind kFhp2 = lgca::GasKind::FHP_II;

Extent pinned_extent(std::int64_t width) {
  return width == 8 ? Extent{8, 12} : Extent{64, 20};
}

LatticeEngine::Config pinned_config(const Machine& m, lgca::GasKind gas,
                                    std::int64_t width) {
  LatticeEngine::Config c;
  c.extent = pinned_extent(width);
  c.gas = gas;
  c.backend = m.backend;
  c.pipeline_depth = 3;
  c.wsa_width = 2;
  c.spa_slice_width = 4;
  c.threads = m.threads;
  c.wsa_e_buffer = m.buffer;
  return c;
}

void pinned_seed(LatticeEngine& e) {
  const Extent x = e.state().extent();
  lgca::add_obstacle_rect(e.state(), {x.width / 2, 3}, {x.width / 2 + 1, 5});
  lgca::fill_random(e.state(), e.gas_model(), 0.3, 2024, 0.2);
}

void advance_pinned(LatticeEngine& e) {
  for (const int step : {10, 3, 1}) e.advance(step);
}

// Failed assertions so far in the running test: a row whose checks
// added any prints its observed values for re-recording.
int failure_parts() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return info->result()->total_part_count();
}

std::uint64_t digest(const lgca::SiteLattice& lat) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < lat.site_count(); ++i) {
    h = (h ^ lat[i]) * 0x100000001b3ull;
  }
  return h;
}

// Every machine lands on the same bits, so the state digest is pinned
// per shape.
struct ShapeDigest {
  lgca::GasKind gas;
  std::int64_t width;
  std::uint64_t digest;
};

constexpr ShapeDigest kShapeDigests[] = {
    {kFhp2, 8, 0x45c42ca660b7ad25ull},
    {kFhp2, 64, 0x6079fbb9a44c724cull},
    {kHpp, 8, 0x98d97450ae7e63a5ull},
    {kHpp, 64, 0x1252a43bf9c0756bull},
};

std::uint64_t shape_digest(lgca::GasKind gas, std::int64_t width) {
  for (const ShapeDigest& d : kShapeDigests) {
    if (d.gas == gas && d.width == width) return d.digest;
  }
  throw Error("unknown shape");
}

// stream_ticks is the report's buffer_bandwidth_fraction × ticks: the
// stall-free ticks of a WSA-E run, 0 where the field stays unset.
struct CounterPin {
  std::string_view machine;
  lgca::GasKind gas;
  std::int64_t width;  // 8 → 8×12, 64 → 64×20
  std::int64_t ticks;
  std::int64_t stream_ticks;
  std::int64_t site_updates;
  std::int64_t storage_sites;
  std::int64_t offchip_buffer_sites;
  std::int64_t offchip_buffer_bits_per_tick;
};

constexpr CounterPin kCounterPins[] = {
    {"Wsa", kFhp2, 8, 358, 0, 1344, 30, 0, 0},
    {"Wsa", kFhp2, 64, 4302, 0, 17920, 198, 0, 0},
    {"Wsa", kHpp, 8, 358, 0, 1344, 30, 0, 0},
    {"Wsa", kHpp, 64, 4302, 0, 17920, 198, 0, 0},
    {"WsaE", kFhp2, 8, 702, 702, 1344, 29, 78, 96},
    {"WsaE", kFhp2, 64, 8590, 8590, 17920, 197, 414, 96},
    {"WsaE", kHpp, 8, 702, 702, 1344, 29, 78, 96},
    {"WsaE", kHpp, 64, 8590, 8590, 17920, 197, 414, 96},
    {"WsaESlow", kFhp2, 8, 2802, 702, 1344, 29, 78, 96},
    {"WsaESlow", kFhp2, 64, 34354, 8590, 17920, 197, 414, 96},
    {"WsaESlow", kHpp, 8, 2802, 702, 1344, 29, 78, 96},
    {"WsaESlow", kHpp, 64, 34354, 8590, 17920, 197, 414, 96},
    {"Spa1", kFhp2, 8, 394, 0, 1344, 28, 0, 0},
    {"Spa1", kFhp2, 64, 922, 0, 17920, 224, 0, 0},
    {"Spa1", kHpp, 8, 394, 0, 1344, 28, 0, 0},
    {"Spa1", kHpp, 64, 922, 0, 17920, 224, 0, 0},
    {"Spa3", kFhp2, 8, 394, 0, 1344, 28, 0, 0},
    {"Spa3", kFhp2, 64, 922, 0, 17920, 224, 0, 0},
    {"Spa3", kHpp, 8, 394, 0, 1344, 28, 0, 0},
    {"Spa3", kHpp, 64, 922, 0, 17920, 224, 0, 0},
};

TEST(HardwareCounters, FullAndRaggedPassesMatchPinnedRecords) {
  for (const CounterPin& pin : kCounterPins) {
    const char* gas = pin.gas == kHpp ? "kHpp" : "kFhp2";
    SCOPED_TRACE(std::string(pin.machine) + " " + gas + " width " +
                 std::to_string(pin.width));
    LatticeEngine e(pinned_config(machine(pin.machine), pin.gas, pin.width));
    pinned_seed(e);
    const EngineCheckpoint start = e.checkpoint();
    advance_pinned(e);
    EXPECT_TRUE(e.verify_against_reference(start));
    EXPECT_EQ(digest(e.state()), shape_digest(pin.gas, pin.width));

    const PerformanceReport r = e.report();
    const double ticks = static_cast<double>(r.ticks);
    const auto stream_ticks = std::llround(r.buffer_bandwidth_fraction * ticks);
    const auto offchip_bits = std::llround(r.offchip_buffer_bits_per_tick);
    const int parts = failure_parts();
    EXPECT_EQ(r.ticks, pin.ticks);
    EXPECT_EQ(stream_ticks, pin.stream_ticks);
    EXPECT_EQ(r.site_updates, pin.site_updates);
    EXPECT_EQ(r.storage_sites, pin.storage_sites);
    EXPECT_EQ(r.offchip_buffer_sites, pin.offchip_buffer_sites);
    EXPECT_EQ(offchip_bits, pin.offchip_buffer_bits_per_tick);
    if (pin.ticks > 0) {
      EXPECT_DOUBLE_EQ(r.buffer_bandwidth_fraction,
                       static_cast<double>(pin.stream_ticks) /
                           static_cast<double>(pin.ticks));
    }
    EXPECT_DOUBLE_EQ(r.offchip_buffer_bits_per_tick,
                     static_cast<double>(pin.offchip_buffer_bits_per_tick));
    if (failure_parts() > parts) {
      ADD_FAILURE() << "observed: {\"" << pin.machine << "\", " << gas << ", "
                    << pin.width << ", " << r.ticks << ", " << stream_ticks
                    << ", " << r.site_updates << ", " << r.storage_sites << ", "
                    << r.offchip_buffer_sites << ", " << offchip_bits << "},";
    }
  }
}

// One armed buffer-flip plan and one stuck-at plan per machine, on the
// 64-wide FHP-II lattice. The oracle rung is enabled so a stuck chip
// the machine cannot remap out (WSA, WSA-E) still completes the run.
// The chip sits at stage 0, which every pass runs through, tails
// included; GuardedLoop.DeepStuckChipStillCompletes below runs one
// deeper in the chain.
struct FaultPin {
  std::string_view machine;
  std::string_view plan;  // "flip" or "stuck"
  std::int64_t faults_injected;
  std::int64_t faults_detected;
  std::int64_t rollbacks;
  int remapped_slices;
  std::int64_t oracle_passes;
  std::int64_t ticks;
};

constexpr FaultPin kFaultPins[] = {
    {"Wsa", "flip", 173, 243, 60, 0, 0, 51386},
    {"Wsa", "stuck", 31192, 60, 60, 0, 14, 40644},
    {"WsaE", "flip", 173, 243, 60, 0, 0, 102650},
    {"WsaE", "stuck", 61964, 60, 60, 0, 14, 81220},
    {"WsaESlow", "flip", 173, 243, 60, 0, 0, 410526},
    {"WsaESlow", "stuck", 61964, 60, 60, 0, 14, 324820},
    {"Spa1", "flip", 173, 243, 60, 0, 0, 11118},
    {"Spa1", "stuck", 520, 8, 8, 1, 0, 2840},
    {"Spa3", "flip", 173, 243, 60, 0, 0, 11118},
    {"Spa3", "stuck", 520, 8, 8, 1, 0, 2840},
};

TEST(HardwareCounters, ArmedRunsMatchPinnedRecoveryLedger) {
  for (const FaultPin& pin : kFaultPins) {
    SCOPED_TRACE(std::string(pin.machine) + " " + std::string(pin.plan));
    LatticeEngine::Config c = pinned_config(machine(pin.machine), kFhp2, 64);
    c.fault.seed = 3;
    if (pin.plan == "flip") {
      c.fault.buffer_flip_rate = 1e-3;
    } else {
      c.fault.stuck = {fault::StuckAt{0, 0, 0x01, 0xFF}};
    }
    c.oracle_fallback = true;
    LatticeEngine e(c);
    pinned_seed(e);
    const EngineCheckpoint start = e.checkpoint();
    advance_pinned(e);
    EXPECT_TRUE(e.verify_against_reference(start));

    const PerformanceReport r = e.report();
    const int parts = failure_parts();
    EXPECT_EQ(r.faults_injected, pin.faults_injected);
    EXPECT_EQ(r.faults_detected, pin.faults_detected);
    EXPECT_EQ(r.rollbacks, pin.rollbacks);
    EXPECT_EQ(r.remapped_slices, pin.remapped_slices);
    EXPECT_EQ(r.oracle_passes, pin.oracle_passes);
    EXPECT_EQ(r.ticks, pin.ticks);
    if (failure_parts() > parts) {
      ADD_FAILURE() << "observed: {\"" << pin.machine << "\", \"" << pin.plan
                    << "\", " << r.faults_injected << ", " << r.faults_detected
                    << ", " << r.rollbacks << ", " << r.remapped_slices << ", "
                    << r.oracle_passes << ", " << r.ticks << "},";
    }
  }
}

// A stuck chip at stage 1 is reached only by passes deeper than one
// generation. The ladder shrinks the checkpoint interval to 1, and the
// one-generation passes that follow run clean; each must be
// snapshotted before the interval regrows, or the next two-generation
// pass fails and rolls it back with a fresh retry budget, and
// advance() never returns. ctest's TIMEOUT on this binary turns that
// livelock into a failure.
TEST(GuardedLoop, DeepStuckChipStillCompletes) {
  LatticeEngine::Config c = pinned_config(machine("Wsa"), kFhp2, 64);
  c.fault.seed = 3;
  c.fault.stuck = {fault::StuckAt{1, 0, 0x01}};
  c.oracle_fallback = true;
  LatticeEngine e(c);
  pinned_seed(e);
  const EngineCheckpoint start = e.checkpoint();
  advance_pinned(e);
  EXPECT_EQ(e.generation(), 14);
  EXPECT_TRUE(e.verify_against_reference(start));
  const PerformanceReport r = e.report();
  EXPECT_GT(r.faults_detected, 0);
  EXPECT_GT(r.interval_shrinks, 0);
}

}  // namespace
}  // namespace lattice::core
