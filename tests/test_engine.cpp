// End-to-end facade tests: every backend produces the same physics,
// and the performance report is consistent with the §6/§7 models.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "lattice/core/engine.hpp"
#include "lattice/lgca/ca_rules.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/observables.hpp"
#include "lattice/lgca/reference.hpp"
#include "lattice/lgca3d/plane_lattice3.hpp"

namespace lattice::core {
namespace {

LatticeEngine::Config base_config(Backend b) {
  LatticeEngine::Config c;
  c.extent = {32, 24};
  c.gas = lgca::GasKind::FHP_II;
  c.backend = b;
  c.pipeline_depth = 3;
  c.wsa_width = 2;
  c.spa_slice_width = 8;
  return c;
}

void seed(LatticeEngine& e) {
  lgca::fill_random(e.state(), e.gas_model(), 0.3, 77, 0.15);
}

// The backend's part of a parameterised test's name.
std::string backend_label(Backend b) {
  switch (b) {
    case Backend::Reference: return "Reference";
    case Backend::Wsa: return "Wsa";
    case Backend::Spa: return "Spa";
    case Backend::BitPlane: return "BitPlane";
    case Backend::WsaE: return "WsaE";
    case Backend::Reference3: return "Reference3";
    case Backend::BitPlane3: return "BitPlane3";
  }
  return "unknown";
}

class BackendTest : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(All, BackendTest,
                         ::testing::Values(Backend::Reference, Backend::Wsa,
                                           Backend::Spa, Backend::BitPlane,
                                           Backend::WsaE),
                         [](const auto& info) {
                           return backend_label(info.param);
                         });

TEST_P(BackendTest, VerifiesAgainstReference) {
  LatticeEngine e(base_config(GetParam()));
  seed(e);
  const EngineCheckpoint start = e.checkpoint();
  e.advance(10);
  EXPECT_EQ(e.generation(), 10);
  EXPECT_TRUE(e.verify_against_reference(start));
}

TEST_P(BackendTest, AllBackendsAgreeExactly) {
  LatticeEngine ref(base_config(Backend::Reference));
  LatticeEngine other(base_config(GetParam()));
  seed(ref);
  seed(other);
  ref.advance(7);
  other.advance(7);
  EXPECT_TRUE(ref.state() == other.state());
}

TEST_P(BackendTest, PartialPassesHandleRaggedGenerations) {
  // 10 generations at depth 3 = three full passes + one short pass.
  LatticeEngine e(base_config(GetParam()));
  seed(e);
  const EngineCheckpoint start = e.checkpoint();
  e.advance(4);
  e.advance(6);
  EXPECT_EQ(e.generation(), 10);
  EXPECT_TRUE(e.verify_against_reference(start));
}

TEST_P(BackendTest, ConservesMassAndReportsUpdates) {
  LatticeEngine e(base_config(GetParam()));
  seed(e);
  const auto before = lgca::measure_invariants(e.state(), e.gas_model());
  e.advance(5);
  // Null boundaries drain mass, so only check monotone non-increase.
  const auto after = lgca::measure_invariants(e.state(), e.gas_model());
  EXPECT_LE(after.mass, before.mass);
  EXPECT_EQ(e.report().site_updates, 32 * 24 * 5);
}

// ---- execution knobs: threads × rule ----
//
// Every (backend, threads, rule) combination must replay to the same
// state the plain serial reference engine produces — the software
// execution strategy is invisible in the physics. A gas takes each
// executor's fused kernel ("Fast" rows). A custom rule, Life here,
// takes the generic virtual-dispatch path that no gas reaches
// ("Generic" rows); the bit-plane backend runs gases only.

enum class RuleKind { Gas, Life };

struct ExecCase {
  Backend backend;
  unsigned threads;
  RuleKind rule;
};

class ExecutionMatrixTest : public ::testing::TestWithParam<ExecCase> {};

std::string exec_name(const ::testing::TestParamInfo<ExecCase>& info) {
  const ExecCase& c = info.param;
  std::string s = backend_label(c.backend);
  s += "T" + std::to_string(c.threads);
  s += c.rule == RuleKind::Gas ? "Fast" : "Generic";
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, ExecutionMatrixTest,
    ::testing::Values(ExecCase{Backend::Reference, 1, RuleKind::Life},
                      ExecCase{Backend::Reference, 1, RuleKind::Gas},
                      ExecCase{Backend::Reference, 2, RuleKind::Life},
                      ExecCase{Backend::Reference, 2, RuleKind::Gas},
                      ExecCase{Backend::Reference, 7, RuleKind::Gas},
                      ExecCase{Backend::Wsa, 1, RuleKind::Life},
                      ExecCase{Backend::Wsa, 1, RuleKind::Gas},
                      ExecCase{Backend::Wsa, 7, RuleKind::Gas},
                      ExecCase{Backend::Spa, 1, RuleKind::Life},
                      ExecCase{Backend::Spa, 1, RuleKind::Gas},
                      ExecCase{Backend::Spa, 2, RuleKind::Life},
                      ExecCase{Backend::Spa, 2, RuleKind::Gas},
                      ExecCase{Backend::Spa, 7, RuleKind::Gas},
                      ExecCase{Backend::BitPlane, 1, RuleKind::Gas},
                      ExecCase{Backend::BitPlane, 2, RuleKind::Gas},
                      ExecCase{Backend::BitPlane, 7, RuleKind::Gas},
                      ExecCase{Backend::WsaE, 1, RuleKind::Life},
                      ExecCase{Backend::WsaE, 1, RuleKind::Gas}),
    exec_name);

LatticeEngine::Config matrix_config(const ExecCase& ec) {
  static const lgca::LifeRule life;
  LatticeEngine::Config c = base_config(ec.backend);
  c.threads = ec.threads;
  if (ec.rule == RuleKind::Life) c.custom_rule = &life;
  return c;
}

// Gases get the usual random fill; Life gets raw bits, since a custom
// rule has no gas model to fill from.
void matrix_seed(LatticeEngine& e, RuleKind rule) {
  if (rule == RuleKind::Gas) {
    seed(e);
    return;
  }
  for (std::size_t i = 0; i < e.state().site_count(); ++i) {
    e.state()[i] = static_cast<lgca::Site>((i * 2654435761u >> 7) & 1);
  }
}

TEST_P(ExecutionMatrixTest, VerifiesAgainstReference) {
  const ExecCase ec = GetParam();
  LatticeEngine e(matrix_config(ec));
  matrix_seed(e, ec.rule);
  const EngineCheckpoint start = e.checkpoint();
  e.advance(10);
  EXPECT_TRUE(e.verify_against_reference(start));
}

TEST_P(ExecutionMatrixTest, AgreesWithPlainSerialEngine) {
  const ExecCase ec = GetParam();
  LatticeEngine e(matrix_config(ec));
  LatticeEngine ref(matrix_config({Backend::Reference, 1, ec.rule}));
  matrix_seed(e, ec.rule);
  matrix_seed(ref, ec.rule);
  e.advance(7);
  ref.advance(7);
  EXPECT_TRUE(e.state() == ref.state());
}

TEST(Engine, ReportsMeasuredRateAfterAdvance) {
  LatticeEngine e(base_config(Backend::Reference));
  seed(e);
  e.advance(20);
  const PerformanceReport r = e.report();
  EXPECT_GT(r.wall_seconds, 0);
  EXPECT_GT(r.measured_rate, 0);
  EXPECT_DOUBLE_EQ(r.measured_rate,
                   static_cast<double>(r.site_updates) / r.wall_seconds);
}

TEST(Engine, CustomRuleBackendEquivalence) {
  const lgca::LifeRule life;
  LatticeEngine::Config c = base_config(Backend::Wsa);
  c.custom_rule = &life;
  LatticeEngine wsa(c);
  c.backend = Backend::Reference;
  LatticeEngine ref(c);
  for (std::size_t i = 0; i < wsa.state().site_count(); ++i) {
    const auto v = static_cast<lgca::Site>((i * 2654435761u >> 7) & 1);
    wsa.state()[i] = v;
    ref.state()[i] = v;
  }
  wsa.advance(6);
  ref.advance(6);
  EXPECT_TRUE(wsa.state() == ref.state());
  EXPECT_THROW((void)wsa.gas_model(), Error);  // no gas configured
}

TEST(Engine, WsaReportMatchesDesignModel) {
  LatticeEngine e(base_config(Backend::Wsa));
  seed(e);
  e.advance(6);
  const PerformanceReport r = e.report();
  EXPECT_EQ(r.backend, Backend::Wsa);
  EXPECT_DOUBLE_EQ(r.bandwidth_bits_per_tick, 2.0 * 8 * 2);  // 2DP
  EXPECT_GT(r.updates_per_tick, 0);
  EXPECT_DOUBLE_EQ(r.modeled_rate, r.updates_per_tick * 10e6);
  EXPECT_GT(r.storage_sites, 0);
}

TEST(Engine, SpaReportUsesSliceBandwidth) {
  LatticeEngine e(base_config(Backend::Spa));
  seed(e);
  e.advance(3);
  const PerformanceReport r = e.report();
  EXPECT_DOUBLE_EQ(r.bandwidth_bits_per_tick, 2.0 * 8 * (32.0 / 8.0));
}

TEST(Engine, WsaEReportHasConstantBandwidthAndOffchipLedger) {
  LatticeEngine e(base_config(Backend::WsaE));
  seed(e);
  e.advance(6);
  const PerformanceReport r = e.report();
  EXPECT_EQ(r.backend, Backend::WsaE);
  // Main memory touches only the chain ends: 2D bits/tick, independent
  // of the pipeline depth (§5).
  EXPECT_DOUBLE_EQ(r.bandwidth_bits_per_tick, 2.0 * 8);
  // Off-chip ledger: k·(2L + 10) sites and k·4·D bits/tick for k = 3
  // stages over a 32-wide lattice.
  EXPECT_EQ(r.offchip_buffer_sites, 3 * (2 * 32 + 10));
  EXPECT_DOUBLE_EQ(r.offchip_buffer_bits_per_tick, 3 * 4.0 * 8);
  // The default line-buffer parts sustain full bandwidth.
  EXPECT_DOUBLE_EQ(r.buffer_bandwidth_fraction, 1.0);
  EXPECT_GT(r.updates_per_tick, 0);
  EXPECT_GT(r.storage_sites, 0);
}

TEST(Engine, ModeledRateRespectsPebblingCeiling) {
  // The §7 punchline as an executable assertion: no simulated design
  // exceeds R = B·O(S^(1/d)).
  for (const Backend b : {Backend::Wsa, Backend::Spa, Backend::WsaE}) {
    LatticeEngine e(base_config(b));
    seed(e);
    e.advance(6);
    const PerformanceReport r = e.report();
    ASSERT_GT(r.pebbling_rate_ceiling, 0);
    EXPECT_LT(r.modeled_rate, r.pebbling_rate_ceiling);
  }
}

TEST(Engine, ReferenceBackendReportsNoTicks) {
  LatticeEngine e(base_config(Backend::Reference));
  seed(e);
  e.advance(2);
  const PerformanceReport r = e.report();
  EXPECT_EQ(r.ticks, 0);
  EXPECT_DOUBLE_EQ(r.bandwidth_bits_per_tick, 0);
}

TEST(Engine, RejectsPeriodicPipelines) {
  LatticeEngine::Config c = base_config(Backend::Wsa);
  c.boundary = lgca::Boundary::Periodic;
  EXPECT_THROW(LatticeEngine{c}, Error);
}

TEST(PickSpaSliceWidth, PrefersDivisorNearPaperOptimum) {
  const arch::Technology t = arch::Technology::paper1987();
  // Corner is W ≈ 43: for a 256-wide lattice the best divisor is 32.
  EXPECT_EQ(pick_spa_slice_width(t, 256), 32);
  // 86 = 2·43: exact-ish divisor available.
  EXPECT_EQ(pick_spa_slice_width(t, 86), 43);
  // Prime width: only the trivial single slice divides.
  EXPECT_EQ(pick_spa_slice_width(t, 97), 97);
}

TEST(Engine, StatsAccumulateAcrossAdvances) {
  LatticeEngine e(base_config(Backend::Wsa));
  seed(e);
  e.advance(3);
  const auto first = e.report();
  e.advance(3);
  const auto second = e.report();
  EXPECT_EQ(second.site_updates, 2 * first.site_updates);
  EXPECT_EQ(second.ticks, 2 * first.ticks);
  EXPECT_EQ(second.generations, 6);
}

TEST(Engine, SaturatedGasBackendEquivalence) {
  LatticeEngine::Config c = base_config(Backend::Spa);
  c.gas = lgca::GasKind::FHP_III;
  LatticeEngine spa(c);
  c.backend = Backend::Reference;
  LatticeEngine ref(c);
  lgca::fill_random(spa.state(), spa.gas_model(), 0.3, 55, 0.2);
  lgca::fill_random(ref.state(), ref.gas_model(), 0.3, 55, 0.2);
  spa.advance(9);
  ref.advance(9);
  EXPECT_TRUE(spa.state() == ref.state());
}

TEST(Engine, DiffusionRuleThroughSpaBackend) {
  const lgca::DiffusionRule diffusion;
  LatticeEngine::Config c = base_config(Backend::Spa);
  c.custom_rule = &diffusion;
  LatticeEngine spa(c);
  c.backend = Backend::Reference;
  LatticeEngine ref(c);
  for (std::size_t i = 0; i < spa.state().site_count(); ++i) {
    const auto v = static_cast<lgca::Site>((i * 97) & 0xff);
    spa.state()[i] = v;
    ref.state()[i] = v;
  }
  spa.advance(5);
  ref.advance(5);
  EXPECT_TRUE(spa.state() == ref.state());
}

TEST(Engine, AdvanceZeroIsNoOp) {
  LatticeEngine e(base_config(Backend::Wsa));
  seed(e);
  const auto before = e.state();
  e.advance(0);
  EXPECT_TRUE(e.state() == before);
  EXPECT_EQ(e.generation(), 0);
}

// ---- the golden evolution, pinned ----
//
// Every parity matrix compares a backend with the golden updaters, so
// a change to the golden updaters themselves would pass all of them.
// These digests pin their output: each gas under each boundary, with
// obstacles, from a fixed seed, over generations t0 .. t0 + N with a
// nonzero t0 (chirality draws depend on t). The engines' golden
// backends must land on the same digests.

std::uint64_t fnv1a(const lgca::Site* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

std::uint64_t digest(const lgca::SiteLattice& lat) {
  return fnv1a(lat.grid().data(), lat.site_count());
}

constexpr std::int64_t kPinT0 = 5;
constexpr std::int64_t kPinGenerations = 9;

struct GoldenCase {
  lgca::GasKind gas;
  lgca::Boundary boundary;
  std::uint64_t digest;
};

TEST(GoldenEvolution, TwoDimensionalGasesMatchPinnedDigests) {
  constexpr GoldenCase kCases[] = {
      {lgca::GasKind::HPP, lgca::Boundary::Null, 0xf5073d3d18728e1full},
      {lgca::GasKind::HPP, lgca::Boundary::Periodic, 0xf53c51fc5f62cb3bull},
      {lgca::GasKind::FHP_I, lgca::Boundary::Null, 0xfe4b786821c5b1a8ull},
      {lgca::GasKind::FHP_I, lgca::Boundary::Periodic, 0x65854fcd47e9419bull},
      {lgca::GasKind::FHP_II, lgca::Boundary::Null, 0x9a4053737c774b95ull},
      {lgca::GasKind::FHP_II, lgca::Boundary::Periodic, 0x937675c49c566778ull},
      {lgca::GasKind::FHP_III, lgca::Boundary::Null, 0x0cf2afb4458d97a9ull},
      {lgca::GasKind::FHP_III, lgca::Boundary::Periodic, 0xa9bc0aba204d769dull},
  };
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(std::string(lgca::gas_kind_name(c.gas)) +
                 (c.boundary == lgca::Boundary::Null ? " null" : " periodic"));
    const lgca::GasRule rule(c.gas);
    lgca::SiteLattice start({24, 16}, c.boundary);
    lgca::add_obstacle_disk(start, 8.0, 8.0, 2.5);
    lgca::add_obstacle_rect(start, {17, 3}, {19, 6});
    lgca::fill_random(start, rule.model(), 0.35, 2024, 0.2);

    lgca::SiteLattice golden = start;
    lgca::reference_run(golden, rule, kPinGenerations, kPinT0);
    EXPECT_EQ(digest(golden), c.digest);

    LatticeEngine::Config cfg;
    cfg.extent = start.extent();
    cfg.gas = c.gas;
    cfg.boundary = c.boundary;
    LatticeEngine engine(cfg);
    engine.restore({start, kPinT0});
    engine.advance(kPinGenerations);
    EXPECT_EQ(digest(engine.state()), c.digest);
  }
}

TEST(GoldenEvolution, CubicGasMatchesPinnedDigests) {
  struct Case3 {
    lgca::Boundary boundary;
    std::uint64_t digest;
  };
  constexpr Case3 kCases[] = {
      {lgca::Boundary::Null, 0x85a85a8c2069f4daull},
      {lgca::Boundary::Periodic, 0x5c35ef1a011d7b6full},
  };
  const lgca3d::Extent3 ext{12, 10, 8};
  for (const Case3& c : kCases) {
    SCOPED_TRACE(c.boundary == lgca::Boundary::Null ? "null" : "periodic");
    lgca3d::Lattice3 golden(ext, lgca3d::to_boundary3(c.boundary));
    golden.at({6, 5, 4}) = lgca3d::kObstacleBit;
    golden.at({2, 7, 1}) = lgca3d::kObstacleBit;
    lgca3d::fill_random(golden, 0.3, 2024);

    LatticeEngine::Config cfg;
    cfg.extent = {ext.nx, ext.ny};
    cfg.depth = ext.nz;
    cfg.boundary = c.boundary;
    cfg.backend = Backend::Reference3;
    LatticeEngine engine(cfg);
    std::memcpy(engine.state().grid().data(), golden.data(),
                golden.site_count());
    EngineCheckpoint start = engine.checkpoint();
    start.generation = kPinT0;
    engine.restore(start);

    lgca3d::reference_run(golden, kPinGenerations, kPinT0);
    EXPECT_EQ(fnv1a(golden.data(), golden.site_count()), c.digest);

    engine.advance(kPinGenerations);
    EXPECT_EQ(digest(engine.state()), c.digest);
  }
}

// ---- verify_against_reference: it can fail, and any start fits ----

// gtest prints a parameter that has no printer as its raw bytes, and
// the ctest names carry that dump, so every byte here is a value:
// padding would hold stale stack bytes and a pointer an address that
// moves with every run, and either renames the case from one test
// listing to the next. `pad` keeps the word after `backend` zero.
struct VerifyCase {
  Backend backend;
  std::uint32_t pad;
  std::int64_t depth;  // z-planes of the engine's volume; 1 in 2-D
};
static_assert(std::has_unique_object_representations_v<VerifyCase>,
              "VerifyCase must have no padding bytes");

class VerifyTest : public ::testing::TestWithParam<VerifyCase> {
 protected:
  static LatticeEngine::Config config() {
    LatticeEngine::Config c = base_config(GetParam().backend);
    c.depth = GetParam().depth;
    return c;
  }

  /// A 3-D engine is seeded as a volume: the 2-D gas fill would set
  /// bit 6, which the cubic gas leaves unused.
  static void seed_engine(LatticeEngine& e) {
    if (!backend_is_3d(e.config().backend)) {
      seed(e);
      return;
    }
    const LatticeEngine::Config& c = e.config();
    lgca3d::Lattice3 vol({c.extent.width, c.extent.height, c.depth},
                         lgca3d::Boundary3::Null);
    lgca3d::fill_random(vol, 0.3, 77);
    std::memcpy(e.state().grid().data(), vol.data(), vol.site_count());
  }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, VerifyTest,
    ::testing::Values(VerifyCase{Backend::Reference, 0, 1},
                      VerifyCase{Backend::BitPlane, 0, 1},
                      VerifyCase{Backend::Wsa, 0, 1},
                      VerifyCase{Backend::BitPlane3, 0, 4}),
    [](const auto& info) { return backend_label(info.param.backend); });

TEST_P(VerifyTest, OneFlippedSiteFails) {
  LatticeEngine e(config());
  seed_engine(e);
  const EngineCheckpoint start = e.checkpoint();
  e.advance(6);
  ASSERT_TRUE(e.verify_against_reference(start));
  e.state()[e.state().site_count() / 2] ^= lgca::Site{1};
  EXPECT_FALSE(e.verify_against_reference(start));
}

TEST_P(VerifyTest, AcceptsAnotherEnginesMidRunCheckpoint) {
  // How the serve layer rebuilds a session: a fresh engine restores a
  // snapshot and runs on. The snapshot is the only history it has, so
  // the replay must start there, at generation 5, not at 0.
  LatticeEngine a(config());
  LatticeEngine b(config());
  seed_engine(a);
  a.advance(5);
  const EngineCheckpoint mid = a.checkpoint();
  b.restore(mid);
  a.advance(3);
  b.advance(3);
  EXPECT_TRUE(b.state() == a.state());
  EXPECT_TRUE(b.verify_against_reference(mid));
}

TEST_P(VerifyTest, RejectsACheckpointThatDoesNotFit) {
  LatticeEngine e(config());
  seed_engine(e);
  const EngineCheckpoint start = e.checkpoint();
  e.advance(4);
  const Extent flat = start.state.extent();

  EngineCheckpoint wider = start;
  wider.state = lgca::SiteLattice({flat.width + 2, flat.height},
                                  lgca::Boundary::Null);
  EXPECT_THROW((void)e.verify_against_reference(wider), Error);

  EngineCheckpoint periodic = start;
  periodic.state = lgca::SiteLattice(flat, lgca::Boundary::Periodic);
  EXPECT_THROW((void)e.verify_against_reference(periodic), Error);

  // The same flat bytes, factored into another volume.
  EngineCheckpoint deeper = start;
  deeper.depth = start.depth * 2;
  EXPECT_THROW((void)e.verify_against_reference(deeper), Error);

  EXPECT_TRUE(e.verify_against_reference(start));
}

TEST_P(VerifyTest, RejectsACheckpointFromALaterGeneration) {
  LatticeEngine ahead(config());
  LatticeEngine behind(config());
  seed_engine(ahead);
  seed_engine(behind);
  ahead.advance(8);
  behind.advance(5);
  EXPECT_THROW((void)behind.verify_against_reference(ahead.checkpoint()),
               Error);
}

}  // namespace
}  // namespace lattice::core
