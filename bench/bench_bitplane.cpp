// E15 — bit-plane (multi-spin coded) kernel vs the byte-LUT reference:
// wall-clock updates/s of bitplane_gas_run against fused_gas_run for
// HPP and FHP-II across lattice sizes and worker counts. The paper
// stores D = 8 bits/site; the bit-plane backend turns that into eight
// 64-site words and evaluates collisions as boolean algebra, so the
// shape expectation is a >= 4x single-thread speedup over the LUT path
// (HPP, whose rule needs no chirality hash, lands far higher), with
// every row bit-identical to the golden reference.
//
// The printed table is also persisted to BENCH_bitplane.json in the
// working directory; CI runs this binary with LATTICE_BENCH_QUICK=1 on
// a small lattice and gates on tools/check_bench_regression.py. Any
// exactness failure makes the process exit nonzero.

#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "lattice/core/tile_plan.hpp"
#include "lattice/lgca/collision_lut.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/plane_kernel.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/lgca/temporal_tile.hpp"

namespace {

using namespace lattice;

bool quick_mode() { return std::getenv("LATTICE_BENCH_QUICK") != nullptr; }

const char* gas_name(lgca::GasKind k) {
  return k == lgca::GasKind::HPP ? "HPP" : "FHP-II";
}

struct Row {
  const char* gas;
  std::int64_t width;
  std::int64_t height;
  lgca::Boundary boundary;
  std::int64_t generations;
  const char* kernel;
  const char* simd;     // span variant ("" for the byte-LUT rows)
  unsigned threads;
  double seconds;
  double rate;          // site updates per wall-clock second
  double speedup;       // rate over the single-thread fused LUT's rate
  bool exact;
  std::int64_t tile_depth = 1;  // temporal-blocking k (full-mode ladder)
};

/// One benched lattice shape. Squares tell the memory-system story
/// (the working set crosses L2 and the ISA rates converge on the
/// bandwidth ceiling); the wide strip isolates the word kernels (long
/// rows keep every vector width in its design regime, few rows keep
/// both double buffers cache-resident). The byte-LUT reference row may
/// run fewer generations than the bit-plane rows — it is 1–2 orders
/// of magnitude slower and only its *rate* is needed for the speedup
/// column — so exactness against the LUT is checked directly only
/// where the generation counts match.
struct BenchShape {
  std::int64_t width;
  std::int64_t height;
  std::int64_t gens;      // bit-plane rows
  std::int64_t lut_gens;  // byte-LUT reference row
  lgca::Boundary boundary = lgca::Boundary::Null;
  bool thread_ladder = true;  // dispatched rows at 1/2/4/8 threads, or 1
};

template <typename Fn>
double time_run(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Scalar64-vs-byte-LUT bit-identity on a small lattice, once per gas:
/// the anchor that lets the big-shape rows use the pinned scalar64 run
/// as their exactness reference when timing a full LUT run at the same
/// generation count would dwarf the bench itself. (The exhaustive
/// per-state and awkward-extent equivalences are tier-1 tests; this is
/// just the bench's own sanity tripwire.)
bool scalar_lut_proof(lgca::GasKind kind) {
  const lgca::CollisionLut& lut = lgca::CollisionLut::get(kind);
  const lgca::PlaneKernel& kernel = lgca::PlaneKernel::get(kind);
  lgca::SiteLattice in({128, 128}, lgca::Boundary::Null);
  lgca::fill_random(in, lut.model(), 0.3, 13, 0.1);
  lgca::add_obstacle_disk(in, 64, 64, 16);
  lgca::SiteLattice golden = in;
  lgca::fused_gas_run(golden, lut, 50);
  const lgca::ScopedSimdLevel scalar(lgca::SimdLevel::Scalar);
  lgca::SiteLattice bits = in;
  lgca::bitplane_gas_run(bits, kernel, 50);
  return bits == golden;
}

/// Full-mode-only: the temporal-blocking k-ladder on a DRAM-resident
/// square — the §7 Theorem 4 payoff measured end to end. Each rung runs
/// plane_gas_run_tiled at the given depth k (k = 1 is the plain sweep)
/// on a 4096^2 lattice whose double-buffered plane data is ~40 MiB,
/// far over the tile planner's 1 MiB working-set budget; the expected
/// shape is sites/s climbing monotonically from k = 1 to the
/// plan-chosen k as each cache-resident tile is read from and written
/// to memory once per k generations instead of once per generation.
/// (The quick-mode CI rows never include this section, so the recorded
/// quick baseline is untouched; the ladder that CI gates lives in
/// bench_schedule_io.)
bool print_tiled_ladder(std::vector<Row>& rows) {
  std::printf("\n  temporal-blocking k-ladder (DRAM-resident square):\n");
  std::printf("  %-8s %9s %5s %3s %-22s %10s %12s %9s %7s\n", "gas",
              "extent", "gens", "k", "kernel", "seconds", "updates/s",
              "speedup", "exact");

  const std::int64_t side = 4096;
  const std::int64_t gens = 48;
  const std::int64_t lut_gens = 8;
  const char* active = lgca::to_string(lgca::plane_simd_active());
  bool all_exact = true;
  for (const lgca::GasKind kind :
       {lgca::GasKind::HPP, lgca::GasKind::FHP_II}) {
    const lgca::PlaneKernel& kernel = lgca::PlaneKernel::get(kind);
    const bool proof = scalar_lut_proof(kind);
    const Extent extent{side, side};
    lgca::SiteLattice in(extent, lgca::Boundary::Null);
    lgca::fill_random(in, kernel.model(), 0.3, 13, 0.1);
    lgca::add_obstacle_disk(in, side / 2, side / 2, side / 8);
    const double area = static_cast<double>(extent.area());

    // LUT rate for the speedup column only (fewer generations — it is
    // orders of magnitude slower and just feeds the denominator).
    lgca::SiteLattice lut_lat = in;
    const double lut_s = time_run([&] {
      lgca::fused_gas_run(lut_lat, lgca::CollisionLut::get(kind), lut_gens);
    });
    const double lut_rate =
        area * static_cast<double>(lut_gens) / lut_s;

    // Requested depths: untiled, a short ladder, the planner's auto
    // pick (0); dedup after the cache model resolves them.
    std::vector<core::TilePlan> plans;
    for (const int k : {1, 2, 4, 0}) {
      const core::TilePlan plan = core::plan_temporal_tiles(
          extent, lgca::Boundary::Null, core::plane_row_bytes(extent), k);
      const bool seen =
          std::any_of(plans.begin(), plans.end(),
                      [&](const auto& p) { return p.depth == plan.depth; });
      if (!seen) plans.push_back(plan);
    }
    std::sort(plans.begin(), plans.end(),
              [](const auto& a, const auto& b) { return a.depth < b.depth; });

    lgca::SiteLattice ref;
    for (const core::TilePlan& plan : plans) {
      // Min-of-5 (not the usual 3): the rungs differ by cache-reuse
      // factors a noisy co-tenant can swamp at the tens-of-ms scale,
      // and the ladder's monotone shape is the point of the table.
      lgca::PlaneLattice planes(in);
      double best = 0.0;
      for (int rep = 0; rep < 5; ++rep) {
        planes.pack(in);
        const double s = time_run([&] {
          lgca::plane_gas_run_tiled(planes, kernel, gens, 0, 1,
                                    plan.tiling());
        });
        best = rep == 0 ? s : std::min(best, s);
      }
      const lgca::SiteLattice sites = planes.to_sites();
      bool exact;
      if (plan.depth <= 1) {
        ref = sites;
        exact = proof;
      } else {
        exact = sites == ref;
      }
      const double rate = area * static_cast<double>(gens) / best;
      rows.push_back(Row{gas_name(kind), side, side, lgca::Boundary::Null,
                         gens, "bit-plane tiled", active, 1, best, rate,
                         rate / lut_rate, exact, plan.depth});
      std::printf(
          "  %-8s %9s %5lld %3lld %-22s %10.3f %12.3e %8.2fx %7s\n",
          gas_name(kind), "4096x4096", static_cast<long long>(gens),
          static_cast<long long>(plan.depth), "bit-plane tiled x1", best,
          rate, rate / lut_rate, exact ? "yes" : "NO");
      all_exact = all_exact && exact;
    }
  }
  return all_exact;
}

bool print_tables(std::vector<Row>& rows) {
  bench_util::header("E15", "bit-plane kernel vs byte-LUT reference");
  const bool quick = quick_mode();
  // The quick shape is a 4096x64 *strip*, not a square, and it threads
  // four needles at once: (a) 64 words/row keeps every vector width in
  // its design regime — the AVX-512 span runs 7 full 8-word blocks plus
  // one overlapped tail, so its overlap waste is ~11% instead of the
  // ~60% a 10-word row would charge it; (b) both double buffers total
  // ~660 KB, comfortably L2-resident, so the rows measure the word
  // kernels rather than a DRAM bandwidth ceiling that flattens every
  // ISA to the same rate (exactly what side 1024 shows — see the
  // full-mode table and docs/PERFORMANCE.md); (c) 262 Ki sites is below
  // the band planner's ~1 Mi-site grain floor, so the 1/2/4/8-thread
  // ladder collapses to one band and stays flat (monotone) on any
  // host; (d) the generation count is high enough that each bit-plane
  // row takes tens of milliseconds — sub-millisecond rows are all
  // timer noise and the CI regression gate would flake.
  //
  // The 64x64 periodic square is a served session's shape: one-word
  // rows stored compactly, which the kernel runs as flat runs over
  // whole bands rather than row by row. It has no thread ladder (4 Ki
  // sites always run as one band), and enough generations for each row
  // to take tens of milliseconds.
  const BenchShape session{64, 64, 20000, 500, lgca::Boundary::Periodic,
                           false};
  const std::vector<BenchShape> shapes =
      quick ? std::vector<BenchShape>{{4096, 64, 2000, 100}, session}
            : std::vector<BenchShape>{{256, 256, 64, 64},
                                      {512, 512, 64, 64},
                                      {640, 640, 64, 64},
                                      {1024, 1024, 64, 64},
                                      {4096, 64, 2000, 100},
                                      session};

  std::printf("%s", quick ? "  (quick mode)\n" : "");
  std::printf("\n  %-8s %9s %5s %-22s %10s %12s %9s %7s\n", "gas", "extent",
              "gens", "kernel", "seconds", "updates/s", "speedup", "exact");

  bool all_exact = true;
  for (const lgca::GasKind kind :
       {lgca::GasKind::HPP, lgca::GasKind::FHP_II}) {
    const lgca::CollisionLut& lut = lgca::CollisionLut::get(kind);
    const lgca::PlaneKernel& kernel = lgca::PlaneKernel::get(kind);
    const bool proof = scalar_lut_proof(kind);
    for (const BenchShape& shape : shapes) {
      lgca::SiteLattice in({shape.width, shape.height}, shape.boundary);
      lgca::fill_random(in, lut.model(), 0.3, 13, 0.1);
      lgca::add_obstacle_disk(in, shape.width / 2, shape.height / 2,
                              std::min(shape.width, shape.height) / 8);
      const double area = static_cast<double>(shape.width) *
                          static_cast<double>(shape.height);

      char extent[24];
      std::snprintf(extent, sizeof(extent), "%lldx%lld",
                    static_cast<long long>(shape.width),
                    static_cast<long long>(shape.height));

      // Every row is best of 3, from the same input each rep (copied
      // or re-packed outside the timer): rows of tens of milliseconds
      // on a shared host are 20-30% off in a single sample, which the
      // CI regression and monotonicity gates must not see.
      lgca::SiteLattice lut_lat;
      double lut_s = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        lut_lat = in;
        const double s = time_run(
            [&] { lgca::fused_gas_run(lut_lat, lut, shape.lut_gens); });
        lut_s = rep == 0 ? s : std::min(lut_s, s);
      }
      const double lut_rate = area * static_cast<double>(shape.lut_gens) /
                              lut_s;

      auto emit = [&](const char* name, const char* simd, unsigned threads,
                      std::int64_t gens, double seconds, bool exact) {
        const double rate = area * static_cast<double>(gens) / seconds;
        rows.push_back(Row{gas_name(kind), shape.width, shape.height,
                           shape.boundary, gens, name, simd, threads,
                           seconds, rate, rate / lut_rate, exact});
        char label[32];
        std::snprintf(label, sizeof(label), "%s x%u", name, threads);
        std::printf("  %-8s %9s %5lld %-22s %10.3f %12.3e %8.2fx %7s\n",
                    gas_name(kind), extent, static_cast<long long>(gens),
                    label, seconds, rate, rate / lut_rate,
                    exact ? "yes" : "NO");
        all_exact = all_exact && exact;
      };
      emit("byte LUT fused", "", 1, shape.lut_gens, lut_s, true);

      // The bit-plane rows time plane_gas_run on an already-packed
      // lattice: the byte↔plane transpose is a one-time scalar cost
      // per run (the engine pays it once per pass, amortized over all
      // its generations), and at quick-bench scale it would otherwise
      // be the majority of every row — identical across ISA variants,
      // flattening the very differences this table exists to resolve.
      // The unpack for the exactness check sits outside the timer too.

      // The lattice is re-packed from the byte input before every rep
      // so each rep advances the same shape.gens generations and the
      // final content is comparable against the reference.
      auto bench_planes = [&](unsigned threads) {
        lgca::PlaneLattice planes(in);
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
          planes.pack(in);
          const double s = time_run([&] {
            lgca::plane_gas_run(planes, kernel, shape.gens, 0, threads);
          });
          best = rep == 0 ? s : std::min(best, s);
        }
        return std::pair<double, lgca::SiteLattice>{best, planes.to_sites()};
      };

      // Pinned scalar-64 row: the fixed reference point the SIMD rows
      // (and the recorded baselines) are compared against, present on
      // every host regardless of ISA. Its own exactness is vs the LUT
      // run when the generation counts line up, else the per-gas
      // small-lattice proof above.
      lgca::SiteLattice ref;
      {
        const lgca::ScopedSimdLevel scalar(lgca::SimdLevel::Scalar);
        auto [s, sites] = bench_planes(1);
        ref = std::move(sites);
        const bool exact =
            shape.gens == shape.lut_gens ? ref == lut_lat : proof;
        emit("bit-plane scalar64", "scalar64", 1, shape.gens, s, exact);
      }

      // The dispatched path (best compiled+supported variant) across
      // the thread ladder; the band planner may collapse small runs to
      // one band, which is exactly what the monotonicity gate checks.
      const char* active = lgca::to_string(lgca::plane_simd_active());
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        if (threads > 1 && !shape.thread_ladder) break;
        auto [s, sites] = bench_planes(threads);
        emit("bit-plane", active, threads, shape.gens, s, sites == ref);
      }
    }
  }

  if (!quick) all_exact = print_tiled_ladder(rows) && all_exact;

  bench_util::note("");
  bench_util::note("what to look for: the scalar64 row clears 4x over the byte");
  bench_util::note("LUT, the dispatched SIMD row clears 1.5x over scalar64 on");
  bench_util::note("an AVX machine (the 4096x64 strip is the regime that shows");
  bench_util::note("it — big squares spill L2 and every ISA converges on the");
  bench_util::note("same DRAM ceiling), the 1/2/4/8-thread ladder never goes");
  bench_util::note("DOWN (the band planner collapses lattices below its grain");
  bench_util::note("floor to one band instead of paying rendezvous), and");
  bench_util::note("'exact' reads yes in every row — every variant is the same");
  bench_util::note("boolean algebra as the LUT, computed a word at a time.");
  bench_util::note("The 64x64 rows are a served session's shape: one-word");
  bench_util::note("rows that run as flat runs over whole bands, so the");
  bench_util::note("SIMD row clears scalar64 there too.");
  return all_exact;
}

bool write_json(const std::vector<Row>& rows) {
  bench_util::JsonWriter w;
  w.begin_object();
  w.field("bench", "bitplane");
  w.field("quick", quick_mode());
  w.key("rows").begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.field("gas", r.gas);
    w.field("width", r.width);
    w.field("height", r.height);
    w.field("generations", r.generations);
    w.field("kernel", r.kernel);
    w.field("simd", r.simd);
    w.field("threads", r.threads);
    // Only the full-mode tiled ladder carries a depth: keeping the
    // field out of the k = 1 rows keeps the recorded quick-baseline
    // row keys unchanged.
    if (r.tile_depth > 1) w.field("tile_depth", r.tile_depth);
    // Likewise the boundary: only the periodic session rows name it,
    // so the Null rows recorded before it existed keep their keys.
    if (r.boundary == lgca::Boundary::Periodic) {
      w.field("boundary", "periodic");
    }
    w.field("seconds", r.seconds);
    w.field("sites_per_sec", r.rate);
    w.field("speedup_vs_lut", r.speedup);
    w.field("exact", r.exact);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const char* path = "BENCH_bitplane.json";
  if (!w.write_file(path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return false;
  }
  std::printf("\n  wrote %s (%d rows)\n", path,
              static_cast<int>(rows.size()));
  return true;
}

void BM_BitPlane(benchmark::State& state) {
  const auto kind = state.range(0) == 0 ? lgca::GasKind::HPP
                                        : lgca::GasKind::FHP_II;
  const lgca::PlaneKernel& kernel = lgca::PlaneKernel::get(kind);
  lgca::SiteLattice in({256, 256}, lgca::Boundary::Null);
  lgca::fill_random(in, kernel.model(), 0.3, 13, 0.1);
  lgca::PlaneLattice planes(in);
  for (auto _ : state) {
    lgca::plane_gas_run(planes, kernel, 4);
    benchmark::DoNotOptimize(planes);
  }
  state.SetItemsProcessed(state.iterations() * 256 * 256 * 4);
}
BENCHMARK(BM_BitPlane)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_BitPlaneFused(benchmark::State& state) {
  // Byte-LUT counterpart of BM_BitPlane for side-by-side items/s.
  const lgca::CollisionLut& lut = lgca::CollisionLut::get(lgca::GasKind::FHP_II);
  lgca::SiteLattice in({256, 256}, lgca::Boundary::Null);
  lgca::fill_random(in, lut.model(), 0.3, 13, 0.1);
  for (auto _ : state) {
    lgca::SiteLattice lat = in;
    lgca::fused_gas_run(lat, lut, 4);
    benchmark::DoNotOptimize(lat);
  }
  state.SetItemsProcessed(state.iterations() * 256 * 256 * 4);
}
BENCHMARK(BM_BitPlaneFused)->Unit(benchmark::kMillisecond);

void BM_PackUnpack(benchmark::State& state) {
  lgca::SiteLattice in({256, 256}, lgca::Boundary::Null);
  lgca::fill_random(in, lgca::GasModel::get(lgca::GasKind::FHP_II), 0.3, 13,
                    0.1);
  lgca::PlaneLattice planes(in);
  for (auto _ : state) {
    planes.pack(in);
    planes.unpack(in);
    benchmark::DoNotOptimize(in);
  }
  state.SetItemsProcessed(state.iterations() * 256 * 256 * 2);
}
BENCHMARK(BM_PackUnpack)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (not LATTICE_BENCH_MAIN): the exit code must report
// exactness so the CI smoke step can gate on it.
int main(int argc, char** argv) {
  std::vector<Row> rows;
  const bool exact = print_tables(rows);
  const bool wrote = write_json(rows);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return exact && wrote ? 0 : 1;
}
