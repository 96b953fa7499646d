// E10 — §6.4: "As feature sizes shrink and problems are tackled with
// larger lattices in higher dimensions, this effect will become even
// more dramatic." Quantified both ways:
//
// The analytic half prints the storage-scaling tables (serial-PE
// window Θ(L) in 2-D vs Θ(L²) in 3-D, the collapse of the largest
// on-chip lattice, the fabricated prototype's ~4% processing
// fraction) and replays referee-enforced tiled pebbling schedules
// across d = 1, 2, 3, fitting the R/B-vs-S exponent per dimension.
// The fits must land near the Theorem 4 prediction 1/d — the binary
// exits nonzero when any fitted exponent strays, so the curve itself
// is CI-gated, not just eyeballed.
//
// The measured half runs the d = 3 schedule for real: a k-ladder of
// temporal-blocking depths over a DRAM-resident cubic-gas volume on
// the bit-plane kernel (lgca3d::plane_gas_run_tiled3) at the
// dispatched SIMD level, every rung bit-exact against the untiled
// sweep, plus a thread ladder on the untiled rung so 3-D z-slab band
// scaling is gated monotone.
//
// The table is persisted to BENCH_dimensionality.json; CI runs this
// binary with LATTICE_BENCH_QUICK=1 and gates the measured rows with
// tools/check_bench_regression.py against
// bench/baselines/BENCH_dimensionality_quick.json. The analytic
// schedule data rides along under separate (ungated) JSON keys. Any
// exactness or exponent failure makes the process exit nonzero.

#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "lattice/arch/design_space.hpp"
#include "lattice/core/tile_plan.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/lgca3d/lattice3.hpp"
#include "lattice/lgca3d/pipeline3.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"
#include "lattice/pebble/bounds.hpp"
#include "lattice/pebble/schedules.hpp"

namespace {

using namespace lattice;

bool quick_mode() { return std::getenv("LATTICE_BENCH_QUICK") != nullptr; }

// ---------------------------------------------------------------------
// Analytic half, part 1: storage scaling and the floorplan numbers.

void print_storage_tables() {
  const arch::Technology t = arch::Technology::paper1987();

  std::printf("  serial-PE window storage (sites) and largest on-chip "
              "lattice:\n");
  std::printf("  %6s %14s %14s\n", "L", "d=2 (2L+3)", "d=3 (2L^2+L+3)");
  for (const std::int64_t len : {std::int64_t{16}, std::int64_t{32},
                                 std::int64_t{64}, std::int64_t{256},
                                 std::int64_t{785}}) {
    std::printf("  %6lld %14lld %14lld\n", static_cast<long long>(len),
                static_cast<long long>(2 * len + 3),
                static_cast<long long>(
                    lgca3d::Pipeline3::window_sites({len, len, len})));
  }
  // Largest L whose window fits one chip with a single PE.
  const double budget = (1.0 - t.pe_area) / t.cell_area;  // sites on chip
  const double lmax2 = (budget - 3.0) / 2.0;
  const double lmax3 = (std::sqrt(1.0 + 8.0 * (budget - 3.0)) - 1.0) / 4.0;
  std::printf("\n  largest on-chip lattice, 1 PE, 1987 technology:\n");
  std::printf("    d = 2: L = %.0f    d = 3: L = %.0f  "
              "(a ~%.0fx collapse)\n",
              lmax2, lmax3, lmax2 / lmax3);

  std::printf("\n  WSA chip floorplan: processing fraction of used area:\n");
  std::printf("  %6s %8s %12s\n", "L", "PEs", "processing");
  for (const std::int64_t len : {std::int64_t{200}, std::int64_t{400},
                                 std::int64_t{785}}) {
    for (const int p : {2, 4}) {
      std::printf("  %6lld %8d %11.1f%%\n", static_cast<long long>(len), p,
                  100.0 * arch::wsa::processing_area_fraction(t, p, len));
    }
  }
  bench_util::note("paper Sec. 6.4: 'about 4 percent of the area is used");
  bench_util::note("for processing' on the fabricated 2-PE chip at L=785.");
}

// ---------------------------------------------------------------------
// Analytic half, part 2: referee-enforced tiled schedules per
// dimension, with the fitted R/B exponent gated against 1/d.

/// One schedule measurement at storage budget S, with the Theorem 4
/// ceiling and the tiled schedule's recompute tax.
struct PebbleRow {
  int dim;
  std::int64_t s;
  double sweep_updates_per_io;
  double tiled_updates_per_io;
  double ceiling;
  double recompute;
};

struct PebbleFit {
  std::vector<PebbleRow> rows;
  double fitted_exponent = 0.0;
};

/// The fitted exponent may sit this far from 1/d before the bench
/// fails: the schedules carry constant seam/recompute terms that bend
/// the small-S end of each ladder, but nowhere near enough to confuse
/// one dimension's curve with another's (the exponents are 1, 1/2,
/// 1/3 — gaps of 1/2 and 1/6).
constexpr double kExponentTolerance = 0.2;

template <typename Sweep, typename Tiled>
PebbleFit dimension_ladder(int dim, const std::vector<std::int64_t>& storages,
                           Sweep&& sweep_fn, Tiled&& tiled_fn) {
  PebbleFit fit;
  double prev_ratio = 0;
  double prev_s = 0;
  double exp_sum = 0;
  int exp_n = 0;
  for (const std::int64_t s : storages) {
    const auto sweep = sweep_fn(s);
    const auto tiled = tiled_fn(s);
    fit.rows.push_back(PebbleRow{
        dim, s, sweep.updates_per_io(), tiled.updates_per_io(),
        pebble::updates_per_io_upper(dim, static_cast<double>(s)),
        tiled.recompute_overhead()});
    if (prev_ratio > 0) {
      exp_sum += std::log(tiled.updates_per_io() / prev_ratio) /
                 std::log(static_cast<double>(s) / prev_s);
      ++exp_n;
    }
    prev_ratio = tiled.updates_per_io();
    prev_s = static_cast<double>(s);
  }
  fit.fitted_exponent = exp_sum / exp_n;
  return fit;
}

bool print_dimension_ladder(const PebbleFit& fit) {
  const int dim = fit.rows.front().dim;
  const double theory = 1.0 / dim;
  const bool ok =
      std::abs(fit.fitted_exponent - theory) <= kExponentTolerance;
  std::printf("  %8s %12s %12s %14s %12s\n", "S", "sweep R/B", "tiled R/B",
              "ceiling 2tau", "recompute");
  for (const PebbleRow& r : fit.rows) {
    std::printf("  %8lld %12.2f %12.2f %14.1f %11.0f%%\n",
                static_cast<long long>(r.s), r.sweep_updates_per_io,
                r.tiled_updates_per_io, r.ceiling, 100.0 * r.recompute);
  }
  std::printf("  fitted exponent of tiled R/B vs S: %.2f "
              "(theory for d=%d: %.2f) %s\n",
              fit.fitted_exponent, dim, theory, ok ? "ok" : "OUT OF BAND");
  return ok;
}

bool print_pebble_ladders(PebbleFit fits[3]) {
  std::printf("\n  tiled-schedule R/B vs storage by dimension (Theorem 4: "
              "exponent 1/d):\n");
  bool ok = true;
  {
    const std::int64_t n = 1024;
    const std::int64_t t = 128;
    std::printf("\n  d = 1 lattice (n = %lld, T = %lld):\n",
                static_cast<long long>(n), static_cast<long long>(t));
    fits[0] = dimension_ladder(
        1,
        {std::int64_t{64}, std::int64_t{128}, std::int64_t{256},
         std::int64_t{512}},
        [&](std::int64_t s) { return pebble::run_sweep_1d(n, t, s); },
        [&](std::int64_t s) { return pebble::run_tiled_1d(n, t, s); });
    ok = print_dimension_ladder(fits[0]) && ok;
  }
  {
    const std::int64_t n = 96;
    const std::int64_t t = 24;
    std::printf("\n  d = 2 lattice (%lld x %lld, T = %lld):\n",
                static_cast<long long>(n), static_cast<long long>(n),
                static_cast<long long>(t));
    fits[1] = dimension_ladder(
        2,
        {std::int64_t{256}, std::int64_t{1024}, std::int64_t{4096},
         std::int64_t{16384}},
        [&](std::int64_t s) { return pebble::run_sweep_2d(n, n, t, s); },
        [&](std::int64_t s) { return pebble::run_tiled_2d(n, n, t, s); });
    ok = print_dimension_ladder(fits[1]) && ok;
  }
  {
    const std::int64_t n = 24;
    const std::int64_t t = 8;
    std::printf("\n  d = 3 lattice (%lld^3, T = %lld):\n",
                static_cast<long long>(n), static_cast<long long>(t));
    fits[2] = dimension_ladder(
        3,
        {std::int64_t{2048}, std::int64_t{8192}, std::int64_t{32768}},
        [&](std::int64_t s) { return pebble::run_sweep_3d(n, t, s); },
        [&](std::int64_t s) { return pebble::run_tiled_3d(n, t, s); });
    ok = print_dimension_ladder(fits[2]) && ok;
  }
  bench_util::note("");
  bench_util::note("every schedule above was replayed through the pebble-");
  bench_util::note("game referee: the I/O counts are enforced, not modeled,");
  bench_util::note("and the three exponents are gated against 1/d.");
  return ok;
}

// ---------------------------------------------------------------------
// Measured half: the d = 3 temporal-tiling k-ladder on the bit-plane
// kernel (CI-gated JSON rows).

/// One k-ladder rung. tile_depth/tile_rows come from the engine's own
/// deterministic cache model (core::plan_temporal_tiles3 with its
/// fixed 1 MiB budget, the z-plane slab as the row unit), so they are
/// identity fields the regression gate can match across machines.
struct Row {
  std::int64_t nx;
  std::int64_t ny;
  std::int64_t nz;
  std::int64_t generations;
  std::int64_t tile_depth;
  std::int64_t tile_rows;
  const char* simd;
  unsigned threads;
  double seconds;
  double rate;     // site updates per wall-clock second
  double speedup;  // rate over the untiled serial rung's rate
  bool exact;
};

template <typename Fn>
double time_run(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void add_obstacle_ball(lgca3d::Lattice3& lat, std::int64_t cx,
                       std::int64_t cy, std::int64_t cz, std::int64_t r) {
  const lgca3d::Extent3 e = lat.extent();
  for (std::int64_t z = 0; z < e.nz; ++z) {
    for (std::int64_t y = 0; y < e.ny; ++y) {
      for (std::int64_t x = 0; x < e.nx; ++x) {
        const std::int64_t dx = x - cx;
        const std::int64_t dy = y - cy;
        const std::int64_t dz = z - cz;
        if (dx * dx + dy * dy + dz * dz <= r * r) {
          lat.at({x, y, z}) = lgca3d::kObstacleBit;
        }
      }
    }
  }
}

/// Small-volume anchor: the tiled driver (k = 3, seams and obstacle
/// bounce in play) against the gather-and-collide golden reference.
/// This lets the big-shape rungs use the untiled run as their
/// exactness reference without a seconds-long reference_run per shape.
/// (The exhaustive boundary x threads x k parity matrix is a tier-1
/// test; this is the bench's own tripwire.)
bool tiled_golden_proof() {
  lgca3d::Lattice3 golden({48, 40, 24}, lgca3d::Boundary3::Null);
  add_obstacle_ball(golden, 24, 20, 12, 6);
  lgca3d::fill_random(golden, 0.3, 13);
  lgca3d::Lattice3 bits = golden;
  lgca3d::reference_run(golden, 20);
  lgca3d::bitplane_gas_run_tiled3(bits, 20, 0, 2, lgca::TemporalTiling{3, 6});
  return bits == golden;
}

bool print_ladder(std::vector<Row>& rows, std::vector<Row>& thread_rows) {
  const bool quick = quick_mode();
  std::printf("\n  d = 3 temporal-blocking k-ladder on the bit-plane "
              "kernel%s\n",
              quick ? " (quick mode)" : "");
  // A 192^3 volume is ~16 MiB of plane data double-buffered — far over
  // the planner's 1 MiB working-set budget, so every k >= 2 rung
  // genuinely tiles over z-slabs — and each rung runs hundreds of
  // milliseconds, above timer noise. As in bench_schedule_io, rung-to-
  // rung ratios are a cache-hierarchy property of the host, so the
  // regression gate checks each rung's absolute rate and exactness,
  // never the ratio. The thread rows on the untiled rung are recorded
  // (and checked bit-exact) but kept out of the gated row set: on a
  // constrained CI container multi-thread wall clock is scheduling
  // noise, and the 2-D thread ladders in bench_parallel_speedup
  // already gate the band-split machinery the 3-D runner reuses.
  struct Shape {
    std::int64_t side;
    std::int64_t gens;
  };
  const std::vector<Shape> shapes = quick ? std::vector<Shape>{{192, 8}}
                                          : std::vector<Shape>{{192, 8},
                                                               {256, 8}};

  const bool proof = tiled_golden_proof();
  std::printf("  proof rung (48x40x24, k=3, obstacle ball) vs golden: %s\n",
              proof ? "exact" : "NOT EXACT");

  std::printf("  %-12s %5s %3s %6s %6s %3s %10s %12s %9s %7s\n", "extent",
              "gens", "k", "zrows", "tiles", "thr", "seconds", "updates/s",
              "speedup", "exact");

  bool all_exact = proof;
  for (const Shape& shape : shapes) {
    const lgca3d::Extent3 extent{shape.side, shape.side, shape.side};
    lgca3d::Lattice3 in(extent, lgca3d::Boundary3::Null);
    add_obstacle_ball(in, shape.side / 2, shape.side / 2, shape.side / 2,
                      shape.side / 8);
    lgca3d::fill_random(in, 0.3, 13);
    const double volume = static_cast<double>(extent.volume());

    char label[32];
    std::snprintf(label, sizeof(label), "%lldx%lldx%lld",
                  static_cast<long long>(shape.side),
                  static_cast<long long>(shape.side),
                  static_cast<long long>(shape.side));

    // Requested depths: untiled, a short ladder, and the planner's own
    // auto pick (0); dedup after the cache model resolves them.
    std::vector<core::TilePlan> plans;
    for (const int k : {1, 2, 4, 8, 0}) {
      const core::TilePlan plan =
          core::plan_temporal_tiles3(extent, lgca3d::Boundary3::Null, k);
      const bool seen =
          std::any_of(plans.begin(), plans.end(),
                      [&](const auto& p) { return p.depth == plan.depth; });
      if (!seen) plans.push_back(plan);
    }
    std::sort(plans.begin(), plans.end(),
              [](const auto& a, const auto& b) { return a.depth < b.depth; });

    // Each rung is min-of-3 over plane_gas_run_tiled3 on an already-
    // packed lattice (the byte<->plane transpose and the unpack for
    // the exactness check sit outside the timer), with the lattice
    // re-packed before every rep so each rep advances the same
    // generations.
    auto run_rung = [&](const core::TilePlan& plan, unsigned threads,
                        lgca3d::Lattice3& out) {
      lgca3d::PlaneLattice3 planes(in);
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        planes.pack(in);
        const double s = time_run([&] {
          lgca3d::plane_gas_run_tiled3(planes, shape.gens, 0, threads,
                                       plan.tiling());
        });
        best = rep == 0 ? s : std::min(best, s);
      }
      out = planes.to_sites3();
      return best;
    };

    const char* simd = lgca::to_string(lgca::plane_simd_active());
    auto emit = [&](const core::TilePlan& plan, unsigned threads,
                    double best, double rate, double speedup, bool exact) {
      auto& target = threads == 1 ? rows : thread_rows;
      target.push_back(Row{shape.side, shape.side, shape.side, shape.gens,
                           plan.depth, plan.tile_rows, simd, threads,
                           best, rate, speedup, exact});
      std::printf(
          "  %-12s %5lld %3lld %6lld %6lld %3u %10.3f %12.3e %8.2fx %7s\n",
          label, static_cast<long long>(shape.gens),
          static_cast<long long>(plan.depth),
          static_cast<long long>(plan.tile_rows),
          static_cast<long long>(plan.tiles), threads, best, rate, speedup,
          exact ? "yes" : "NO");
      all_exact = all_exact && exact;
    };

    lgca3d::Lattice3 ref;
    double ref_rate = 0.0;
    for (const core::TilePlan& plan : plans) {
      lgca3d::Lattice3 sites;
      const double best = run_rung(plan, 1, sites);
      const double rate = volume * static_cast<double>(shape.gens) / best;
      bool exact;
      if (plan.depth <= 1) {
        ref = sites;
        ref_rate = rate;
        exact = proof;
      } else {
        exact = sites == ref;
      }
      emit(plan, 1, best, rate, rate / ref_rate, exact);
    }

    // Thread rows on the untiled rung: bit-exactness is enforced (a
    // z-band seam bug fails the binary); the rates ride along ungated.
    for (const unsigned threads : {2u, 4u}) {
      lgca3d::Lattice3 sites;
      const double best = run_rung(plans.front(), threads, sites);
      const double rate = volume * static_cast<double>(shape.gens) / best;
      emit(plans.front(), threads, best, rate, rate / ref_rate,
           sites == ref);
    }
  }

  bench_util::note("");
  bench_util::note("what to look for: every rung reads exact (the d = 3");
  bench_util::note("trapezoid schedule is bit-identical to the sweep, seams");
  bench_util::note("and obstacle bounce included); on a host whose cache is");
  bench_util::note("smaller than the volume the k >= 2 rungs beat k = 1 —");
  bench_util::note("each z-slab is read and written once per k generations,");
  bench_util::note("the software shape of the R = O(B*S^(1/3)) curve the");
  bench_util::note("ladders above bound.");
  return all_exact;
}

// ---------------------------------------------------------------------

bool write_json(const std::vector<Row>& rows,
                const std::vector<Row>& thread_rows,
                const PebbleFit fits[3]) {
  bench_util::JsonWriter w;
  w.begin_object();
  w.field("bench", "dimensionality");
  w.field("quick", quick_mode());
  const auto write_rows = [&w](const std::vector<Row>& rs) {
    for (const Row& r : rs) {
      w.begin_object();
      w.field("nx", r.nx);
      w.field("ny", r.ny);
      w.field("nz", r.nz);
      w.field("generations", r.generations);
      w.field("tile_depth", r.tile_depth);
      w.field("tile_rows", r.tile_rows);
      w.field("simd", r.simd);
      w.field("threads", r.threads);
      w.field("seconds", r.seconds);
      w.field("sites_per_sec", r.rate);
      w.field("speedup_vs_serial", r.speedup);
      w.field("exact", r.exact);
      w.end_object();
    }
  };
  // Measured k-ladder rungs: the rows the CI regression gate matches.
  w.key("rows").begin_array();
  write_rows(rows);
  w.end_array();
  // Thread rows ride ungated (multi-thread wall clock on a shared CI
  // container is scheduling noise); exactness is already folded into
  // the binary's exit code.
  w.key("thread_rows").begin_array();
  write_rows(thread_rows);
  w.end_array();
  // Analytic pebble-game schedules: deterministic replay counts, not
  // measurements — recorded for the E10 writeup, never gated here
  // (the exponent band is enforced by the binary's exit code).
  for (int d = 0; d < 3; ++d) {
    const PebbleFit& fit = fits[d];
    char key[24];
    std::snprintf(key, sizeof(key), "pebble_%dd", fit.rows.front().dim);
    w.key(key).begin_array();
    for (const PebbleRow& r : fit.rows) {
      w.begin_object();
      w.field("storage", r.s);
      w.field("sweep_updates_per_io", r.sweep_updates_per_io);
      w.field("tiled_updates_per_io", r.tiled_updates_per_io);
      w.field("ceiling", r.ceiling);
      w.field("recompute", r.recompute);
      w.end_object();
    }
    w.end_array();
    std::snprintf(key, sizeof(key), "pebble_%dd_exponent",
                  fit.rows.front().dim);
    w.field(key, fit.fitted_exponent);
  }
  w.end_object();
  const char* path = "BENCH_dimensionality.json";
  if (!w.write_file(path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return false;
  }
  std::printf("\n  wrote %s (%d rows)\n", path,
              static_cast<int>(rows.size()));
  return true;
}

void BM_Reference3dStep(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  lgca3d::Lattice3 lat({n, n, n}, lgca3d::Boundary3::Periodic);
  lgca3d::fill_random(lat, 0.3, 7);
  std::int64_t t = 0;
  for (auto _ : state) {
    lgca3d::reference_step(lat, t++);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Reference3dStep)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_BitPlane3Run(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  lgca3d::Lattice3 lat({n, n, n}, lgca3d::Boundary3::Periodic);
  lgca3d::fill_random(lat, 0.3, 7);
  lgca3d::PlaneLattice3 planes(lat);
  for (auto _ : state) {
    lgca3d::plane_gas_run3(planes, 4);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n * 4);
}
BENCHMARK(BM_BitPlane3Run)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_Pipeline3Run(benchmark::State& state) {
  const lgca3d::Extent3 e{16, 16, 16};
  lgca3d::Lattice3 lat(e, lgca3d::Boundary3::Null);
  lgca3d::fill_random(lat, 0.3, 7);
  for (auto _ : state) {
    lgca3d::Pipeline3 pipe(e, 2);
    benchmark::DoNotOptimize(pipe.run(lat));
  }
  state.SetItemsProcessed(state.iterations() * e.volume() * 2);
}
BENCHMARK(BM_Pipeline3Run)->Unit(benchmark::kMillisecond);

void BM_Tiled3d(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(pebble::run_tiled_3d(16, 8, 2048));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 16 * 16 * 8);
}
BENCHMARK(BM_Tiled3d)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (not LATTICE_BENCH_MAIN): the exit code must report the
// k-ladder's exactness and the fitted exponents' distance from 1/d so
// the CI quick-bench step can gate on them.
int main(int argc, char** argv) {
  bench_util::header("E10", "dimensionality effects (paper Sec. 6.4)");
  print_storage_tables();
  PebbleFit fits[3];
  const bool exponents_ok = print_pebble_ladders(fits);
  std::vector<Row> rows;
  std::vector<Row> thread_rows;
  const bool exact = print_ladder(rows, thread_rows);
  const bool wrote = write_json(rows, thread_rows, fits);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return exact && exponents_ok && wrote ? 0 : 1;
}
