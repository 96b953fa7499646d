// E9 — simulated machine update rates: modeled updates/tick for the
// reference, WSA, SPA and WSA-E backends across lattice sizes and
// pipeline shapes. Shape expectations from §6: WSA rate ≈ P·k per tick
// independent of lattice size; SPA rate ≈ (L/W)·k per tick, growing
// with the slice count; WSA-E ≈ k per tick at a constant 2·D bits/tick
// of main-memory demand (§5) — the off-chip buffer column grows with k
// instead; all at their technology clock ceilings.
//
// The measured table times the engines' software simulation rate with
// the persistent executors (pipeline built once, rearmed per pass) and
// is persisted to BENCH_update_rate.json; CI runs this binary with
// LATTICE_BENCH_QUICK=1 and gates the JSON against
// bench/baselines/BENCH_update_rate_quick.json, so a rebuilt-per-pass
// regression (or any fall off the fast path) fails the gate.

#include "bench_util.hpp"

#include <chrono>
#include <cstdlib>
#include <vector>

#include "lattice/core/engine.hpp"
#include "lattice/lgca/init.hpp"

namespace {

using namespace lattice;
using namespace lattice::core;

bool quick_mode() { return std::getenv("LATTICE_BENCH_QUICK") != nullptr; }

struct Row {
  const char* backend;
  std::int64_t side;
  std::int64_t generations;
  int depth;
  double seconds;
  double rate;  // sites_per_sec
  bool exact;
};

LatticeEngine::Config shape(Backend b, std::int64_t side, int depth) {
  LatticeEngine::Config cfg;
  cfg.extent = {side, side};
  cfg.gas = lgca::GasKind::FHP_II;
  cfg.backend = b;
  cfg.pipeline_depth = depth;
  cfg.wsa_width = 4;
  cfg.spa_slice_width = side / 4;
  return cfg;
}

double run_and_rate(Backend b, std::int64_t side, int depth, int width,
                    std::int64_t slice, double* bw = nullptr,
                    double* offchip = nullptr) {
  LatticeEngine::Config cfg = shape(b, side, depth);
  cfg.wsa_width = width;
  cfg.spa_slice_width = slice;
  LatticeEngine e(cfg);
  lgca::fill_random(e.state(), e.gas_model(), 0.3, 13, 0.1);
  e.advance(depth);
  const PerformanceReport r = e.report();
  if (bw != nullptr) *bw = r.bandwidth_bits_per_tick;
  if (offchip != nullptr) *offchip = r.offchip_buffer_bits_per_tick;
  return r.updates_per_tick;
}

void print_model_tables() {
  bench_util::header("E9", "simulated machine update rates");

  std::printf("  WSA: updates/tick vs P and k (64^2 lattice; model: P*k):\n");
  std::printf("  %4s %4s %14s %10s\n", "P", "k", "upd/tick", "model");
  for (const int p : {1, 2, 4}) {
    for (const int k : {1, 4, 8}) {
      const double upt = run_and_rate(Backend::Wsa, 64, k, p, 0);
      std::printf("  %4d %4d %14.2f %10d\n", p, k, upt, p * k);
    }
  }

  std::printf("\n  SPA: updates/tick vs W and k (64^2; model: (L/W)*k):\n");
  std::printf("  %4s %4s %14s %10s %14s\n", "W", "k", "upd/tick", "model",
              "bw bits/tick");
  for (const std::int64_t w : {std::int64_t{64}, std::int64_t{16},
                               std::int64_t{8}}) {
    for (const int k : {2, 6}) {
      double bw = 0;
      const double upt = run_and_rate(Backend::Spa, 64, k, 1, w, &bw);
      std::printf("  %4lld %4d %14.2f %10lld %14.0f\n",
                  static_cast<long long>(w), k, upt,
                  static_cast<long long>(64 / w * k), bw);
    }
  }

  std::printf("\n  WSA-E: updates/tick vs k (64^2; model: k; main bw is a\n");
  std::printf("  constant 2D — the off-chip buffer column pays for depth):\n");
  std::printf("  %4s %14s %10s %14s %16s\n", "k", "upd/tick", "model",
              "bw bits/tick", "offchip b/tick");
  for (const int k : {1, 4, 8}) {
    double bw = 0;
    double offchip = 0;
    const double upt =
        run_and_rate(Backend::WsaE, 64, k, 1, 0, &bw, &offchip);
    std::printf("  %4d %14.2f %10d %14.0f %16.0f\n", k, upt, k, bw, offchip);
  }

  bench_util::note("");
  bench_util::note("who wins: at equal pipeline depth SPA's slice");
  bench_util::note("parallelism multiplies throughput by L/W — and its");
  bench_util::note("bandwidth column grows by exactly the same factor,");
  bench_util::note("which is the whole tradeoff of Sec. 6.3. WSA-E trades");
  bench_util::note("the other way: constant main-memory demand at any");
  bench_util::note("depth, with the line buffers (and 4D pins/PE) moved");
  bench_util::note("off chip.");
}

// The measured software table the quick-bench gate records: one
// long-lived engine per row, advanced pass after pass so the
// persistent executors' build-once-rearm-per-pass path is what gets
// timed.
bool print_measured_table(std::vector<Row>& rows) {
  const bool quick = quick_mode();
  const std::int64_t side = quick ? 96 : 192;
  const std::int64_t generations = quick ? 48 : 96;
  const int depth = 4;

  std::printf("\n  measured simulation rate (%lldx%lld, %lld generations, "
              "k=%d, persistent executors)%s:\n",
              static_cast<long long>(side), static_cast<long long>(side),
              static_cast<long long>(generations), depth,
              quick ? " (quick mode)" : "");
  std::printf("  %-8s %10s %12s %7s\n", "backend", "seconds", "sites/s",
              "exact");

  bool all_exact = true;
  const struct {
    Backend b;
    const char* name;
  } backends[] = {
      {Backend::Wsa, "wsa"}, {Backend::Spa, "spa"}, {Backend::WsaE, "wsa_e"}};
  for (const auto& [b, name] : backends) {
    LatticeEngine e(shape(b, side, depth));
    lgca::fill_random(e.state(), e.gas_model(), 0.3, 13, 0.1);
    const EngineCheckpoint start = e.checkpoint();
    const auto t0 = std::chrono::steady_clock::now();
    e.advance(generations);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const bool exact = e.verify_against_reference(start);
    const double updates = static_cast<double>(side) *
                           static_cast<double>(side) *
                           static_cast<double>(generations);
    rows.push_back(
        Row{name, side, generations, depth, seconds, updates / seconds,
            exact});
    std::printf("  %-8s %10.3f %12.3e %7s\n", name, seconds,
                updates / seconds, exact ? "yes" : "NO");
    all_exact = all_exact && exact;
  }
  return all_exact;
}

bool write_json(const std::vector<Row>& rows) {
  bench_util::JsonWriter w;
  w.begin_object();
  w.field("bench", "update_rate");
  w.field("quick", quick_mode());
  w.key("rows").begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.field("backend", r.backend);
    w.field("side", r.side);
    w.field("generations", r.generations);
    w.field("depth", r.depth);
    w.field("seconds", r.seconds);
    w.field("sites_per_sec", r.rate);
    w.field("exact", r.exact);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const char* path = "BENCH_update_rate.json";
  if (!w.write_file(path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return false;
  }
  std::printf("\n  wrote %s (%d rows)\n", path,
              static_cast<int>(rows.size()));
  return true;
}

void BM_EngineWsa(benchmark::State& state) {
  const std::int64_t side = state.range(0);
  LatticeEngine e(shape(Backend::Wsa, side, 4));
  lgca::fill_random(e.state(), e.gas_model(), 0.3, 13);
  for (auto _ : state) {
    e.advance(4);
    benchmark::DoNotOptimize(e.state());
  }
  state.SetItemsProcessed(state.iterations() * side * side * 4);
}
BENCHMARK(BM_EngineWsa)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_EngineSpa(benchmark::State& state) {
  const std::int64_t side = state.range(0);
  LatticeEngine e(shape(Backend::Spa, side, 4));
  lgca::fill_random(e.state(), e.gas_model(), 0.3, 13);
  for (auto _ : state) {
    e.advance(4);
    benchmark::DoNotOptimize(e.state());
  }
  state.SetItemsProcessed(state.iterations() * side * side * 4);
}
BENCHMARK(BM_EngineSpa)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_EngineWsaE(benchmark::State& state) {
  const std::int64_t side = state.range(0);
  LatticeEngine e(shape(Backend::WsaE, side, 4));
  lgca::fill_random(e.state(), e.gas_model(), 0.3, 13);
  for (auto _ : state) {
    e.advance(4);
    benchmark::DoNotOptimize(e.state());
  }
  state.SetItemsProcessed(state.iterations() * side * side * 4);
}
BENCHMARK(BM_EngineWsaE)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_EngineReference(benchmark::State& state) {
  const std::int64_t side = state.range(0);
  LatticeEngine e(shape(Backend::Reference, side, 4));
  lgca::fill_random(e.state(), e.gas_model(), 0.3, 13);
  for (auto _ : state) {
    e.advance(4);
    benchmark::DoNotOptimize(e.state());
  }
  state.SetItemsProcessed(state.iterations() * side * side * 4);
}
BENCHMARK(BM_EngineReference)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (not LATTICE_BENCH_MAIN): the exit code must report
// exactness so the CI gate can fail on a wrong-physics "speedup".
int main(int argc, char** argv) {
  print_model_tables();
  std::vector<Row> rows;
  const bool exact = print_measured_table(rows);
  const bool wrote = write_json(rows);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return exact && wrote ? 0 : 1;
}
