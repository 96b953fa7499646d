// E14 — fault tolerance: what detection, checkpointing, and rollback
// recovery cost on the WSA, SPA, and bit-plane engines. FHP-II,
// 256^2 x 24 generations (128^2 x 16 in quick mode). The table sweeps
// transient fault rates through the guarded engine loop and reports
// injected/detected counters, rollback / checkpoint / escalation
// counts, and the *effective* (committed-work) update rate against the
// fault-free baseline per backend. Byte-pipeline rows flip line-buffer
// words and side-channel transfers; bit-plane rows flip stored plane
// words and shift-halo guard words, retire a stuck plane word by
// remapping, and climb all the way to the reference oracle under a
// hopeless flip rate. Guard words exist only on rows of 8 or more
// words, so the halo row runs its own wide extent of the same site
// count, 1024x64 (512x32 quick), against its own golden reference. One WSA row exhausts the whole escalation ladder
// on purpose. Shape expectation: every recovered row ends bit-exact
// with the golden reference, effective rate degrades smoothly with the
// fault rate, and the unarmed path pays nothing.
//
// The row results are persisted to BENCH_fault_tolerance.json with the
// deterministic recovery counters (injected, detected, rollbacks,
// shrinks, oracle passes, remaps) as row-identity fields: CI runs this
// binary with LATTICE_BENCH_QUICK=1 and diffs against
// bench/baselines/BENCH_fault_tolerance_quick.json, so a changed fault
// draw, a silent detection miss, or a different escalation path shows
// up as a missing row — re-proving the seeded fault discipline on
// every compiler and SIMD level CI runs.

#include "bench_util.hpp"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "lattice/core/engine.hpp"
#include "lattice/fault/fault.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/reference.hpp"

namespace {

using namespace lattice;

bool quick_mode() { return std::getenv("LATTICE_BENCH_QUICK") != nullptr; }
std::int64_t bench_side() { return quick_mode() ? 128 : 256; }
std::int64_t bench_gens() { return quick_mode() ? 16 : 24; }
constexpr int kDepth = 4;

struct Scenario {
  const char* name;  // table label
  const char* slug;  // stable JSON row identity
  core::Backend backend;
  fault::FaultPlan plan;
  int max_retries = 8;
  bool oracle = false;
  // The deliberately hopeless row: success means CorruptionError.
  bool expect_give_up = false;
  // A wide row of side²/wide_height sites instead of the side² square
  // (the halo row: only wide rows have guard words); 0 = the square.
  std::int64_t wide_height = 0;
};

Extent scenario_extent(const Scenario& s) {
  const std::int64_t side = bench_side();
  return s.wide_height > 0 ? Extent{side * side / s.wide_height, s.wide_height}
                           : Extent{side, side};
}

/// The fault-free golden answer a recovered run of `e` must reproduce.
lgca::SiteLattice golden_for(Extent e) {
  lgca::SiteLattice golden(e, lgca::Boundary::Null);
  lgca::fill_random(golden, lgca::GasModel::get(lgca::GasKind::FHP_II), 0.3,
                    77, 0.1);
  lgca::reference_run(golden, lgca::GasRule(lgca::GasKind::FHP_II),
                      bench_gens());
  return golden;
}

struct Result {
  const Scenario* scenario;
  core::PerformanceReport report;
  double seconds = 0;
  bool exact = false;
};

core::LatticeEngine make_engine(const Scenario& s) {
  core::LatticeEngine::Config c;
  c.extent = scenario_extent(s);
  c.gas = lgca::GasKind::FHP_II;
  c.backend = s.backend;
  c.pipeline_depth = kDepth;
  c.wsa_width = 4;
  c.spa_slice_width = 32;
  c.fault = s.plan;
  c.max_retries = s.max_retries;
  c.oracle_fallback = s.oracle;
  core::LatticeEngine engine(std::move(c));
  lgca::fill_random(engine.state(), engine.gas_model(), 0.3, 77, 0.1);
  return engine;
}

const char* backend_name(core::Backend b) {
  switch (b) {
    case core::Backend::Wsa: return "wsa";
    case core::Backend::Spa: return "spa";
    case core::Backend::BitPlane: return "bitplane";
    default: return "other";
  }
}

int backend_index(core::Backend b) {
  switch (b) {
    case core::Backend::Wsa: return 0;
    case core::Backend::Spa: return 1;
    default: return 2;
  }
}

std::vector<Scenario> scenarios() {
  const auto flips = [](double rate) {
    fault::FaultPlan p;
    p.seed = 7;
    p.buffer_flip_rate = rate;
    return p;
  };
  fault::FaultPlan side;
  side.seed = 7;
  side.side_flip_rate = 1e-5;
  fault::FaultPlan stuck;
  stuck.stuck.push_back({/*stage=*/0, /*lane=*/2, /*or_mask=*/0x3F,
                         /*and_mask=*/0xFF});

  // Bit-plane plans: transient plane-word flips and halo guard-word
  // flips draw per (seed, epoch, generation, word) in global lattice
  // coordinates, so every SIMD level and band count sees the same set.
  const auto plane_flips = [](double rate, bool parity) {
    fault::FaultPlan p;
    p.seed = 7;
    p.plane_flip_rate = rate;
    p.parity_plane = parity;
    return p;
  };
  // Per row: 8e-3 on the wide extent's quarter of the rows draws as
  // many guard flips per generation as 2e-3 did on the square.
  fault::FaultPlan halo;
  halo.seed = 7;
  halo.halo_flip_rate = 8e-3;
  fault::FaultPlan parity_only;
  parity_only.seed = 7;
  parity_only.parity_plane = true;
  fault::FaultPlan stuck_plane;
  stuck_plane.seed = 7;
  stuck_plane.stuck_planes.push_back(
      {/*plane=*/0, /*word=*/129, /*or_mask=*/0xFFFFFFFFull,
       /*and_mask=*/~std::uint64_t{0}});

  return {
      {"WSA fault-free", "wsa_clean", core::Backend::Wsa, {}},
      {"SPA fault-free", "spa_clean", core::Backend::Spa, {}},
      // Armed but a rate so small no flip is ever drawn: the price of
      // the guarded loop itself (cycle-exact walk, parity shadows,
      // ledgers, snapshots) with zero recovery work.
      {"WSA armed, inert", "wsa_inert", core::Backend::Wsa, flips(1e-12)},
      {"WSA flips 2e-6", "wsa_flips_lo", core::Backend::Wsa, flips(2e-6)},
      {"SPA flips 2e-6", "spa_flips_lo", core::Backend::Spa, flips(2e-6)},
      {"WSA flips 4e-6", "wsa_flips_hi", core::Backend::Wsa, flips(4e-6), 12},
      {"SPA side flips 1e-5", "spa_side", core::Backend::Spa, side},
      {"SPA stuck slice, remapped", "spa_stuck", core::Backend::Spa, stuck,
       1},
      // Bit-plane: the same guarded loop over plane-word site memory.
      {"bitplane fault-free", "bp_clean", core::Backend::BitPlane, {}},
      // Every detector armed (popcount ledgers, halo canaries, parity
      // shadow) but nothing injected: the detection overhead row.
      {"bitplane armed, inert", "bp_inert", core::Backend::BitPlane,
       parity_only},
      {"bitplane plane flips 5e-4", "bp_flips", core::Backend::BitPlane,
       plane_flips(5e-4, true)},
      {"bitplane halo flips 8e-3", "bp_halo", core::Backend::BitPlane, halo,
       8, false, false, /*wide_height=*/bench_side() / 4},
      // A stuck DRAM column in plane memory: every pass is dirty until
      // the ladder reaches the degrade rung and retires the word.
      {"bitplane stuck word, remapped", "bp_stuck", core::Backend::BitPlane,
       stuck_plane, 1},
      // Hopeless transient rate with a tiny retry budget: shrinking
      // alone cannot win, so the ladder climbs to the reference oracle
      // and still delivers the exact answer.
      {"bitplane flips 2e-2, oracle", "bp_oracle", core::Backend::BitPlane,
       plane_flips(2e-2, true), 2, /*oracle=*/true},
      // Hopeless with no oracle: ~26 expected flips per pass at full
      // size — every retry redraws a dirty pass, shrinking runs out of
      // rungs, and the bounded budget gives up. This is the row that
      // shows recovery is bounded, not optimistic.
      {"WSA flips 1e-4 (budget 2)", "wsa_giveup", core::Backend::Wsa,
       flips(1e-4), 2, /*oracle=*/false, /*expect_give_up=*/true},
  };
}

bool print_tables(std::vector<Result>& out, const std::vector<Scenario>& rows) {
  bench_util::header("E14", "fault injection, detection, and recovery");

  const std::int64_t side = bench_side();
  const std::int64_t gens = bench_gens();

  // The golden fault-free answer every recovered run must reproduce.
  const lgca::SiteLattice golden = golden_for({side, side});

  std::printf("  %lldx%lld FHP-II, %lld generations (depth=%d, seed 7)%s\n\n",
              static_cast<long long>(side), static_cast<long long>(side),
              static_cast<long long>(gens), kDepth,
              quick_mode() ? " (quick mode)" : "");
  std::printf("  %-30s %5s %5s %4s %5s %6s %4s %4s %12s %8s %6s\n",
              "scenario", "inj", "det", "rbk", "ckpt", "remap", "shr", "orc",
              "eff upd/s", "vs clean", "exact");

  bool all_ok = true;
  double clean_rate[3] = {0, 0, 0};
  for (const Scenario& row : rows) {
    core::LatticeEngine engine = make_engine(row);
    const int bi = backend_index(row.backend);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      engine.advance(gens);
    } catch (const fault::CorruptionError& e) {
      std::printf("  %-30s %5lld %5lld  gave up: %s\n", row.name,
                  static_cast<long long>(e.counters().injected()),
                  static_cast<long long>(e.counters().detected()), e.what());
      if (!row.expect_give_up) all_ok = false;
      continue;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (row.expect_give_up) {
      std::printf("  %-30s completed but was expected to give up\n", row.name);
      all_ok = false;
      continue;
    }
    const core::PerformanceReport r = engine.report();
    const double eff = r.effective_measured_rate;
    if (!row.plan.armed()) clean_rate[bi] = eff;
    const bool exact = row.wide_height > 0
                           ? engine.state() == golden_for(scenario_extent(row))
                           : engine.state() == golden;
    all_ok = all_ok && exact;
    std::printf(
        "  %-30s %5lld %5lld %4lld %5lld %6d %4lld %4lld %12.3e %7.0f%% %6s\n",
        row.name, static_cast<long long>(r.faults_injected),
        static_cast<long long>(r.faults_detected),
        static_cast<long long>(r.rollbacks),
        static_cast<long long>(r.checkpoints), r.remapped_slices,
        static_cast<long long>(r.interval_shrinks),
        static_cast<long long>(r.oracle_passes), eff,
        clean_rate[bi] > 0 ? 100.0 * eff / clean_rate[bi] : 100.0,
        exact ? "yes" : "NO");
    out.push_back(Result{&row, r, seconds, exact});
  }

  bench_util::note("");
  bench_util::note("what to look for: every recovered row reads 'exact: yes'");
  bench_util::note("(rollback + epoch-bumped replay reconverges to the golden");
  bench_util::note("run bit-for-bit); 'vs clean' shrinks as the flip rate");
  bench_util::note("grows because detected passes are discarded and re-run;");
  bench_util::note("the stuck rows recover by remapping (remap=1) after the");
  bench_util::note("shrink rung (shr>0) fails to help; the bit-plane oracle");
  bench_util::note("row climbs the whole ladder (shr, then orc>0) and still");
  bench_util::note("lands exact; the 1e-4 budget-2 row exhausts every rung");
  bench_util::note("and throws CorruptionError instead of committing");
  bench_util::note("corrupted state.");
  return all_ok;
}

// The deterministic counters are row-identity fields on purpose: the
// CI gate matches rows on everything but the measurements, so a drift
// in the seeded fault draws or the detection/escalation path on any
// compiler or SIMD level fails the gate as a missing row.
bool write_json(const std::vector<Result>& results) {
  bench_util::JsonWriter w;
  w.begin_object();
  w.field("bench", "fault_tolerance");
  w.field("quick", quick_mode());
  w.key("rows").begin_array();
  for (const Result& res : results) {
    const core::PerformanceReport& r = res.report;
    w.begin_object();
    w.field("scenario", res.scenario->slug);
    w.field("backend", backend_name(res.scenario->backend));
    if (res.scenario->wide_height > 0) {
      const Extent e = scenario_extent(*res.scenario);
      w.field("width", e.width);
      w.field("height", e.height);
    } else {
      w.field("side", bench_side());
    }
    w.field("generations", bench_gens());
    w.field("injected", r.faults_injected);
    w.field("detected", r.faults_detected);
    w.field("rollbacks", r.rollbacks);
    w.field("checkpoints", r.checkpoints);
    w.field("remapped", static_cast<std::int64_t>(r.remapped_slices));
    w.field("interval_shrinks", r.interval_shrinks);
    w.field("oracle_passes", r.oracle_passes);
    w.field("seconds", res.seconds);
    w.field("sites_per_sec", r.effective_measured_rate);
    w.field("exact", res.exact);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const char* path = "BENCH_fault_tolerance.json";
  if (!w.write_file(path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return false;
  }
  std::printf("\n  wrote %s (%d rows)\n", path,
              static_cast<int>(results.size()));
  return true;
}

core::LatticeEngine bm_engine(core::Backend backend,
                              const fault::FaultPlan& plan, int max_retries) {
  Scenario s;
  s.backend = backend;
  s.plan = plan;
  s.max_retries = max_retries;
  return make_engine(s);
}

// Guarded-loop overhead when armed but never faulting: an identity
// stuck mask arms every detector and the checkpoint loop without ever
// altering a word. Compare against the unarmed engine.
void BM_EngineUnarmed(benchmark::State& state) {
  for (auto _ : state) {
    core::LatticeEngine engine = bm_engine(core::Backend::Wsa, {}, 3);
    engine.advance(8);
    benchmark::DoNotOptimize(engine.state());
  }
  state.SetItemsProcessed(state.iterations() * bench_side() * bench_side() *
                          8);
}
BENCHMARK(BM_EngineUnarmed)->Unit(benchmark::kMillisecond);

void BM_EngineArmedInert(benchmark::State& state) {
  fault::FaultPlan plan;
  plan.stuck.push_back({/*stage=*/0, /*lane=*/0, /*or_mask=*/0,
                        /*and_mask=*/0xFF});
  for (auto _ : state) {
    core::LatticeEngine engine = bm_engine(core::Backend::Wsa, plan, 3);
    engine.advance(8);
    benchmark::DoNotOptimize(engine.state());
  }
  state.SetItemsProcessed(state.iterations() * bench_side() * bench_side() *
                          8);
}
BENCHMARK(BM_EngineArmedInert)->Unit(benchmark::kMillisecond);

// The bit-plane detection suite (popcount ledgers + canaries + parity
// shadow) armed over an inert plan: what the fast path pays to be
// audited every generation.
void BM_BitPlaneArmedInert(benchmark::State& state) {
  fault::FaultPlan plan;
  plan.parity_plane = true;
  for (auto _ : state) {
    core::LatticeEngine engine = bm_engine(core::Backend::BitPlane, plan, 3);
    engine.advance(8);
    benchmark::DoNotOptimize(engine.state());
  }
  state.SetItemsProcessed(state.iterations() * bench_side() * bench_side() *
                          8);
}
BENCHMARK(BM_BitPlaneArmedInert)->Unit(benchmark::kMillisecond);

// Rollback-heavy recovery at a rate where most passes retry at least
// once: the cost of delivering correct answers through noise.
void BM_EngineRecovering(benchmark::State& state) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.buffer_flip_rate = 5e-6;
  for (auto _ : state) {
    core::LatticeEngine engine = bm_engine(core::Backend::Wsa, plan, 16);
    engine.advance(8);
    benchmark::DoNotOptimize(engine.state());
  }
  state.SetItemsProcessed(state.iterations() * bench_side() * bench_side() *
                          8);
}
BENCHMARK(BM_EngineRecovering)->Unit(benchmark::kMillisecond);

void BM_BitPlaneRecovering(benchmark::State& state) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.plane_flip_rate = 5e-4;
  plan.parity_plane = true;
  for (auto _ : state) {
    core::LatticeEngine engine = bm_engine(core::Backend::BitPlane, plan, 16);
    engine.advance(8);
    benchmark::DoNotOptimize(engine.state());
  }
  state.SetItemsProcessed(state.iterations() * bench_side() * bench_side() *
                          8);
}
BENCHMARK(BM_BitPlaneRecovering)->Unit(benchmark::kMillisecond);

// Checkpoint snapshot cost in isolation (the per-interval price the
// guarded loop pays even on clean runs).
void BM_CheckpointSnapshot(benchmark::State& state) {
  core::LatticeEngine engine = bm_engine(core::Backend::Wsa, {}, 3);
  for (auto _ : state) {
    core::EngineCheckpoint ckpt = engine.checkpoint();
    benchmark::DoNotOptimize(ckpt.state);
  }
  state.SetItemsProcessed(state.iterations() * bench_side() * bench_side());
}
BENCHMARK(BM_CheckpointSnapshot)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main (not LATTICE_BENCH_MAIN): the exit code must report
// exactness — a recovered row that is not bit-identical to the golden
// reference, or a give-up row that quietly commits, fails CI even
// before the JSON gate runs.
int main(int argc, char** argv) {
  const std::vector<Scenario> rows = scenarios();
  std::vector<Result> results;
  const bool ok = print_tables(results, rows);
  const bool wrote = write_json(results);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return ok && wrote ? 0 : 1;
}
