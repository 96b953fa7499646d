// lattice_profile — run one engine configuration under full
// observability and dump what the instrumentation saw.
//
//   lattice_profile [--backend reference|wsa|spa|bitplane|wsa_e|
//                              reference3|bitplane3]
//                   [--gas hpp|fhp1|fhp2|fhp3] [--side N] [--nz N]
//                   [--generations N] [--threads N] [--depth N]
//                   [--tile-generations N]
//                   [--metrics FILE.json] [--trace FILE.json]
//                   [--fault-plan SPEC] [--checkpoint-interval N]
//                   [--max-retries N] [--oracle]
//
// --tile-generations enables temporal blocking on the software
// backends (0 = let the cache model choose, 1 = off, >= 2 = fixed
// depth) and prints the resolved tile plan — tile shape, depth, and
// the working set vs the planner's cache budget.
//
// Prints a per-stage summary to stdout; --metrics writes the engine's
// MetricsReport as JSON (the artifact CI uploads), --trace enables
// span collection and writes a Chrome Trace Event file that
// chrome://tracing or ui.perfetto.dev open directly.
//
// --fault-plan arms the guarded engine loop with a deterministic fault
// scenario and prints the recovery counters after the run. SPEC is a
// comma-separated list of key[=value] entries:
//   seed=N            hash seed for all transient draws (default 0)
//   buffer_flip=R     byte-pipeline line-buffer flip rate (WSA/SPA/WSA-E)
//   side_flip=R       SPA side-channel corruption rate
//   plane_flip=R      bit-plane stored-word flip rate (bitplane backend)
//   halo_flip=R       bit-plane shift-halo guard-word flip rate; only
//                     rows of width >= 449 store guard words, so it
//                     needs --side 449 or more
//   parity            maintain + verify the parity-shadow plane
//   stuck_plane=P:W:OR:AND
//                     persistently stuck plane word (plane P, global
//                     word W, hex OR/AND masks)
// Example: --fault-plan seed=7,plane_flip=5e-4,parity
// A plan the backend cannot realize on the chosen shape is refused
// with exit 2, as a bad argument is.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "lattice/common/error.hpp"
#include "lattice/core/engine.hpp"
#include "lattice/core/metrics_report.hpp"
#include "lattice/core/tile_plan.hpp"
#include "lattice/fault/fault.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/lgca3d/plane_lattice3.hpp"
#include "lattice/obs/json.hpp"
#include "lattice/obs/trace.hpp"

namespace {

using lattice::core::Backend;

struct Options {
  Backend backend = Backend::Reference;
  lattice::lgca::GasKind gas = lattice::lgca::GasKind::FHP_II;
  std::int64_t side = 256;
  /// z extent for the 3-D backends (the lattice is side × side × nz).
  std::int64_t nz = 8;
  std::int64_t generations = 64;
  unsigned threads = 1;
  int depth = 4;
  int tile_generations = 1;
  std::string metrics_path;
  std::string trace_path;
  lattice::fault::FaultPlan fault;
  std::int64_t checkpoint_interval = 0;
  int max_retries = 3;
  bool oracle = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--backend reference|wsa|spa|bitplane|wsa_e|\n"
      "                     reference3|bitplane3]\n"
      "          [--gas hpp|fhp1|fhp2|fhp3] [--side N] [--nz N]\n"
      "          [--generations N]\n"
      "          [--threads N] [--depth N] [--tile-generations N]\n"
      "          [--metrics FILE] [--trace FILE]\n"
      "          [--fault-plan SPEC] [--checkpoint-interval N]\n"
      "          [--max-retries N] [--oracle]\n"
      "SPEC: seed=N,buffer_flip=R,side_flip=R,plane_flip=R,halo_flip=R,\n"
      "      parity,stuck_plane=P:W:OR:AND  (comma-separated, hex masks;\n"
      "      halo_flip needs --side 449 or more)\n",
      argv0);
  std::exit(2);
}

// Parse one comma-separated fault-plan spec into `plan`. Returns false
// on any token it does not understand (the caller prints usage).
bool parse_fault_plan(const char* spec, lattice::fault::FaultPlan* plan) {
  const std::string s(spec);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string tok = s.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    const std::size_t eq = tok.find('=');
    const std::string key = tok.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? std::string() : tok.substr(eq + 1);
    if (key == "parity") {
      plan->parity_plane = true;
    } else if (key == "seed") {
      plan->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "buffer_flip") {
      plan->buffer_flip_rate = std::strtod(val.c_str(), nullptr);
    } else if (key == "side_flip") {
      plan->side_flip_rate = std::strtod(val.c_str(), nullptr);
    } else if (key == "plane_flip") {
      plan->plane_flip_rate = std::strtod(val.c_str(), nullptr);
    } else if (key == "halo_flip") {
      plan->halo_flip_rate = std::strtod(val.c_str(), nullptr);
    } else if (key == "stuck_plane") {
      int plane = 0;
      long long word = 0;
      unsigned long long or_mask = 0;
      unsigned long long and_mask = ~0ull;
      if (std::sscanf(val.c_str(), "%d:%lld:%llx:%llx", &plane, &word,
                      &or_mask, &and_mask) != 4) {
        return false;
      }
      plan->stuck_planes.push_back({plane, word, or_mask, and_mask});
    } else {
      return false;
    }
  }
  return true;
}

bool parse_backend(const char* s, Backend* out) {
  if (std::strcmp(s, "reference") == 0) *out = Backend::Reference;
  else if (std::strcmp(s, "wsa") == 0) *out = Backend::Wsa;
  else if (std::strcmp(s, "spa") == 0) *out = Backend::Spa;
  else if (std::strcmp(s, "bitplane") == 0) *out = Backend::BitPlane;
  else if (std::strcmp(s, "wsa_e") == 0) *out = Backend::WsaE;
  else if (std::strcmp(s, "reference3") == 0) *out = Backend::Reference3;
  else if (std::strcmp(s, "bitplane3") == 0) *out = Backend::BitPlane3;
  else return false;
  return true;
}

bool parse_gas(const char* s, lattice::lgca::GasKind* out) {
  using lattice::lgca::GasKind;
  if (std::strcmp(s, "hpp") == 0) *out = GasKind::HPP;
  else if (std::strcmp(s, "fhp1") == 0) *out = GasKind::FHP_I;
  else if (std::strcmp(s, "fhp2") == 0) *out = GasKind::FHP_II;
  else if (std::strcmp(s, "fhp3") == 0) *out = GasKind::FHP_III;
  else return false;
  return true;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (std::strcmp(a, "--backend") == 0) {
      if (!parse_backend(next(), &opt.backend)) usage(argv[0]);
    } else if (std::strcmp(a, "--gas") == 0) {
      if (!parse_gas(next(), &opt.gas)) usage(argv[0]);
    } else if (std::strcmp(a, "--side") == 0) {
      opt.side = std::atoll(next());
    } else if (std::strcmp(a, "--nz") == 0) {
      opt.nz = std::atoll(next());
    } else if (std::strcmp(a, "--generations") == 0) {
      opt.generations = std::atoll(next());
    } else if (std::strcmp(a, "--threads") == 0) {
      opt.threads = static_cast<unsigned>(std::atoi(next()));
    } else if (std::strcmp(a, "--depth") == 0) {
      opt.depth = std::atoi(next());
    } else if (std::strcmp(a, "--tile-generations") == 0) {
      opt.tile_generations = std::atoi(next());
    } else if (std::strcmp(a, "--metrics") == 0) {
      opt.metrics_path = next();
    } else if (std::strcmp(a, "--trace") == 0) {
      opt.trace_path = next();
    } else if (std::strcmp(a, "--fault-plan") == 0) {
      if (!parse_fault_plan(next(), &opt.fault)) usage(argv[0]);
    } else if (std::strcmp(a, "--checkpoint-interval") == 0) {
      opt.checkpoint_interval = std::atoll(next());
    } else if (std::strcmp(a, "--max-retries") == 0) {
      opt.max_retries = std::atoi(next());
    } else if (std::strcmp(a, "--oracle") == 0) {
      opt.oracle = true;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.side < 2 || opt.nz < 1 || opt.generations < 0 ||
      opt.threads < 1 || opt.depth < 1 || opt.tile_generations < 0 ||
      opt.checkpoint_interval < 0 || opt.max_retries < 0) {
    usage(argv[0]);
  }
  return opt;
}

// The engine for `config`, or exit 2 with the reason it is refused
// (say, a fault plan this backend cannot realize on this shape).
lattice::core::LatticeEngine make_engine(
    const lattice::core::LatticeEngine::Config& config) {
  try {
    return lattice::core::LatticeEngine(config);
  } catch (const lattice::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::Reference: return "reference";
    case Backend::Wsa: return "wsa";
    case Backend::Spa: return "spa";
    case Backend::BitPlane: return "bitplane";
    case Backend::WsaE: return "wsa_e";
    case Backend::Reference3: return "reference3";
    case Backend::BitPlane3: return "bitplane3";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  namespace obs = lattice::obs;

  if (!opt.trace_path.empty()) obs::set_trace_enabled(true);

  lattice::core::LatticeEngine::Config config;
  config.extent = {opt.side, opt.side};
  if (lattice::core::backend_is_3d(opt.backend)) config.depth = opt.nz;
  config.gas = opt.gas;
  config.backend = opt.backend;
  config.pipeline_depth = opt.depth;
  config.wsa_width = 4;
  config.threads = opt.threads;
  config.tile_generations = opt.tile_generations;
  config.fault = opt.fault;
  config.checkpoint_interval = opt.checkpoint_interval;
  config.max_retries = opt.max_retries;
  config.oracle_fallback = opt.oracle;
  lattice::core::LatticeEngine engine = make_engine(config);
  if (lattice::core::backend_is_3d(opt.backend)) {
    // The flat engine state is the Lattice3 raster: fill through the
    // cubic gas's initializer, land with one memcpy.
    lattice::lgca3d::Lattice3 volume({opt.side, opt.side, opt.nz},
                                     lattice::lgca3d::Boundary3::Null);
    lattice::lgca3d::fill_random(volume, 0.3, /*seed=*/42);
    std::memcpy(engine.state().grid().data(), volume.data(),
                engine.state().site_count());
  } else {
    lattice::lgca::fill_flow(engine.state(), engine.gas_model(), 0.3, 0.1,
                             /*seed=*/42);
  }
  try {
    engine.advance(opt.generations);
  } catch (const lattice::fault::CorruptionError& e) {
    std::fprintf(stderr,
                 "error: %s\n  injected=%lld detected=%lld — raise "
                 "--max-retries, lower the rate, or pass --oracle\n",
                 e.what(), static_cast<long long>(e.counters().injected()),
                 static_cast<long long>(e.counters().detected()));
    return 3;
  }

  const lattice::core::MetricsReport report = engine.snapshot();
  const lattice::core::PerformanceReport perf = engine.report();

  std::printf("backend=%s gas=%d side=%lld generations=%lld threads=%u\n",
              backend_name(opt.backend), static_cast<int>(opt.gas),
              static_cast<long long>(opt.side),
              static_cast<long long>(opt.generations), opt.threads);
  if (lattice::core::backend_is_3d(opt.backend)) {
    std::printf("nz                %lld\n", static_cast<long long>(opt.nz));
  }
  if (opt.backend == Backend::BitPlane || opt.backend == Backend::BitPlane3) {
    // The 2-D and the 3-D spans share one dispatch level.
    std::printf("simd              %s\n",
                lattice::lgca::to_string(lattice::lgca::plane_simd_active()));
  }
  if (opt.tile_generations != 1 &&
      (opt.backend == Backend::BitPlane || opt.backend == Backend::Reference ||
       opt.backend == Backend::BitPlane3)) {
    // Re-derive the plan the executor resolved (same deterministic
    // model, same inputs) so the profile shows what actually ran.
    // (tile_rows count z-planes for the 3-D backend.)
    const std::int64_t row_bytes =
        opt.backend == Backend::BitPlane
            ? lattice::core::plane_row_bytes(config.extent)
            : lattice::core::byte_row_bytes(config.extent);
    const lattice::core::TilePlan plan =
        opt.backend == Backend::BitPlane3
            ? lattice::core::plan_temporal_tiles3(
                  {opt.side, opt.side, opt.nz},
                  lattice::lgca3d::to_boundary3(config.boundary),
                  opt.tile_generations)
            : lattice::core::plan_temporal_tiles(config.extent,
                                                 config.boundary, row_bytes,
                                                 opt.tile_generations);
    if (plan.depth > 1) {
      std::printf("tile_plan         depth=%lld rows=%lld tiles=%lld "
                  "(scratch %lld rows)\n",
                  static_cast<long long>(plan.depth),
                  static_cast<long long>(plan.tile_rows),
                  static_cast<long long>(plan.tiles),
                  static_cast<long long>(plan.scratch_rows));
      std::printf("tile_working_set  %.1f KiB of %.1f KiB budget "
                  "(lattice %.1f KiB, recompute %.1f%%)\n",
                  plan.working_set_bytes / 1024.0,
                  plan.cache_bytes / 1024.0, plan.lattice_bytes / 1024.0,
                  100.0 * plan.recompute_overhead);
      std::printf("tile_tau_ceiling  %.2f updates/word at S=cache\n",
                  plan.updates_per_io_ceiling);
    } else {
      std::printf("tile_plan         off (infeasible or cache-resident; "
                  "requested %d)\n",
                  opt.tile_generations);
    }
  }
  std::printf("wall_seconds      %.6f\n", report.wall_seconds);
  std::printf("phase_seconds     %.6f\n", report.phase_seconds());
  std::printf("measured_rate     %.3e sites/s\n", perf.measured_rate);
  if (perf.ticks > 0) {
    // Hardware backends: the modeled silicon rate against the §7
    // ceiling it can never beat, and (WSA-E) the off-chip buffer bill.
    std::printf("modeled_rate      %.3e sites/s\n", perf.modeled_rate);
    std::printf("pebbling_ceiling  %.3e sites/s\n",
                perf.pebbling_rate_ceiling);
    if (perf.offchip_buffer_bits_per_tick > 0) {
      std::printf("offchip_buffer    %.0f bits/tick over %lld sites "
                  "(%.0f%% of demand sustained)\n",
                  perf.offchip_buffer_bits_per_tick,
                  static_cast<long long>(perf.offchip_buffer_sites),
                  100.0 * perf.buffer_bandwidth_fraction);
    }
  }
  if (opt.fault.armed()) {
    // The recovery story of this run: what was thrown at the engine,
    // what the online detectors caught, and which rungs of the
    // escalation ladder it had to climb to still commit exact state.
    std::printf("fault plan        armed (seed=%llu)\n",
                static_cast<unsigned long long>(opt.fault.seed));
    std::printf("faults_injected   %lld\n",
                static_cast<long long>(perf.faults_injected));
    std::printf("faults_detected   %lld\n",
                static_cast<long long>(perf.faults_detected));
    std::printf("rollbacks         %lld\n",
                static_cast<long long>(perf.rollbacks));
    std::printf("checkpoints       %lld\n",
                static_cast<long long>(perf.checkpoints));
    std::printf("interval_shrinks  %lld\n",
                static_cast<long long>(perf.interval_shrinks));
    std::printf("oracle_passes     %lld\n",
                static_cast<long long>(perf.oracle_passes));
    std::printf("remapped          %d\n", perf.remapped_slices);
    std::printf("effective_rate    %.3e sites/s (committed work)\n",
                perf.effective_measured_rate);
  }
  for (const lattice::core::MetricsPhase& p : report.phases) {
    std::printf("  %-26s %8lld calls  %10.6f s\n", p.name.c_str(),
                static_cast<long long>(p.count), p.seconds);
  }

  if (!opt.metrics_path.empty()) {
    obs::JsonWriter w;
    lattice::core::metrics_report_to_json(report, w);
    if (!w.write_file(opt.metrics_path)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.metrics_path.c_str());
      return 1;
    }
    std::printf("metrics -> %s\n", opt.metrics_path.c_str());
  }
  if (!opt.trace_path.empty()) {
    if (!obs::write_trace(opt.trace_path)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.trace_path.c_str());
      return 1;
    }
    std::printf("trace   -> %s (%lld events)\n", opt.trace_path.c_str(),
                static_cast<long long>(obs::trace_event_count()));
  }
  return 0;
}
