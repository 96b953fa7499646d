// The two bulk workloads: one large periodic lattice advanced by one
// engine in a closed loop of intervals, each interval an advance()
// followed by the observable a user of that simulation reads.
//
//   bulk2d  FHP-II, 2048x2048, BitPlane, threads=2, planner-chosen
//           tiling; interval = advance(256) + momentum_profile_x. The
//           kernel and the band/tile runner do most of the work.
//   bulk3d  cubic gas, 192^3, BitPlane3, threads=2, planner-chosen
//           tiling; interval = advance(64) + mass and momentum. The only
//           workload on lgca3d's own scheduler and scalar64 spans.
//
// Checks: exact mass and momentum conservation at every interval, and
// the engine's warm-up output bit-exact against a golden Reference /
// Reference3 twin.

#include <array>
#include <cmath>
#include <cstring>
#include <memory>

#include "lattice/core/engine.hpp"
#include "lattice/core/tile_plan.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/observables.hpp"
#include "lattice/lgca3d/lattice3.hpp"
#include "lattice/lgca3d/plane_lattice3.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace lattice;

/// A run measures at least this many intervals, so that its median
/// interval has kMinBeyond samples above it.
constexpr std::size_t kMinIntervals = 2 * kMinBeyond;
/// Repetitions of each probe in the traced run.
constexpr int kProbeReps = 3;

struct BulkShape {
  bool three_d = false;
  core::LatticeEngine::Config cfg;
  std::int64_t interval_gens = 0;

  lgca3d::Extent3 extent3() const {
    return {cfg.extent.width, cfg.extent.height, cfg.depth};
  }
  std::int64_t sites() const { return cfg.extent.area() * cfg.depth; }
};

BulkShape bulk_shape(const std::string& workload) {
  BulkShape b;
  b.cfg.boundary = lgca::Boundary::Periodic;
  b.cfg.threads = 2;
  b.cfg.tile_generations = 0;
  if (workload == "bulk2d") {
    b.cfg.extent = {2048, 2048};
    b.cfg.gas = lgca::GasKind::FHP_II;
    b.cfg.backend = core::Backend::BitPlane;
    b.interval_gens = 256;
  } else {
    b.three_d = true;
    b.cfg.extent = {192, 192};
    b.cfg.depth = 192;
    b.cfg.backend = core::Backend::BitPlane3;
    b.interval_gens = 64;
  }
  return b;
}

/// The seeded initial condition: the viscosity experiment's shear
/// start in 2-D, a uniform random fill of the cubic gas in 3-D.
void fill_initial(const BulkShape& b, lgca::SiteLattice& state,
                  std::uint64_t seed) {
  if (!b.three_d) {
    lgca::fill_shear(state, lgca::GasModel::get(b.cfg.gas), 0.3, 0.15, seed);
    return;
  }
  lgca3d::Lattice3 volume(b.extent3(), lgca3d::Boundary3::Periodic);
  lgca3d::fill_random(volume, 0.3, seed);
  std::memcpy(state.grid().data(), volume.data(), volume.site_count());
}

/// Conserved totals read at the end of every interval.
struct Totals {
  std::int64_t mass = 0;
  std::int64_t px = 0;
  std::int64_t py = 0;
  std::int64_t pz = 0;
  friend bool operator==(const Totals&, const Totals&) = default;
};

/// The 3-D observable: mass and momentum of the flat state, through
/// per-site tables of the cubic gas model.
class Sums3 {
 public:
  Sums3() {
    const auto& model = lgca3d::Gas3Model::get();
    for (int s = 0; s < 256; ++s) {
      const auto site = static_cast<lgca::Site>(s);
      const lgca3d::Vec3 p = model.momentum(site);
      table_[static_cast<std::size_t>(s)] = {model.mass(site), p.x, p.y, p.z};
    }
  }
  Totals operator()(const lgca::SiteLattice& state) const {
    Totals t;
    const lgca::Site* d = state.grid().data();
    for (std::size_t i = 0, n = state.site_count(); i < n; ++i) {
      const Totals& s = table_[d[i]];
      t.mass += s.mass;
      t.px += s.px;
      t.py += s.py;
      t.pz += s.pz;
    }
    return t;
  }

 private:
  std::array<Totals, 256> table_{};
};

/// The interval's observable: the 2-D momentum profile (summed into px)
/// or the 3-D mass and momentum.
Totals read_observable(const BulkShape& b, const lgca::SiteLattice& state,
                       const Sums3& sums3) {
  if (b.three_d) return sums3(state);
  double px = 0;
  for (const double v :
       lgca::momentum_profile_x(state, lgca::GasModel::get(b.cfg.gas))) {
    px += v;
  }
  return {0, std::llround(px), 0, 0};
}

/// Every conserved total; for the 2-D gas, mass and py come from
/// measure_invariants on top of the observable.
Totals conserved(const BulkShape& b, const lgca::SiteLattice& state,
                 Totals observed) {
  if (b.three_d) return observed;
  const lgca::Invariants inv =
      lgca::measure_invariants(state, lgca::GasModel::get(b.cfg.gas));
  observed.mass = inv.mass;
  observed.py = inv.py;
  return observed;
}

/// One set-up: construct the engine, fill it from the seed, and warm it
/// up with one tile block (history capture, pool lanes, first-touch
/// pages). `seconds` gets the time it took.
std::unique_ptr<core::LatticeEngine> set_up(const BulkShape& b,
                                            std::uint64_t seed,
                                            SpanLog& spans, double& seconds) {
  const auto t0 = Clock::now();
  std::unique_ptr<core::LatticeEngine> engine;
  {
    auto s = spans.span("setup.LatticeEngine", 0);
    engine = std::make_unique<core::LatticeEngine>(b.cfg);
  }
  {
    auto s = spans.span("setup.fill", 0);
    fill_initial(b, engine->state(), seed);
  }
  {
    auto s = spans.span("setup.LatticeEngine::advance", 0);
    engine->advance(engine->chunk_quantum());
  }
  seconds = ms_between(t0, Clock::now()) * 1e-3;
  return engine;
}

}  // namespace

double bulk_setup_s(const RunOptions& opt) {
  SpanLog off;
  double seconds = 0;
  set_up(bulk_shape(opt.workload), opt.seed, off, seconds);
  return seconds;
}

std::uint64_t bulk_initial_digest(const std::string& workload,
                                  std::uint64_t seed) {
  const BulkShape b = bulk_shape(workload);
  lgca::SiteLattice state(
      b.three_d ? lgca3d::flat_extent(b.extent3()) : b.cfg.extent,
      b.cfg.boundary);
  fill_initial(b, state, seed);
  return fnv1a(state);
}

Outcome run_bulk(const RunOptions& opt, SpanLog& spans) {
  const BulkShape b = bulk_shape(opt.workload);
  const Sums3 sums3;
  Outcome out;

  // ---- set-up: kColdSetups in fresh processes, then the run's own (its
  // process's first, so cold too), and kColdSetups more after the timed
  // phase; a traced run reports no setup_s ----
  std::vector<double> setups_before;
  if (!opt.trace) setups_before = cold_setups(opt, kColdSetups);
  sync_filesystem(opt.work_dir);
  double setup_own = 0;
  const std::unique_ptr<core::LatticeEngine> engine =
      set_up(b, opt.seed, spans, setup_own);
  core::LatticeEngine& e = *engine;
  // A digest, not a copy, so that the peak resident set is the engine's.
  const std::uint64_t warm_digest = fnv1a(e.state());
  const std::int64_t warm_gens = e.generation();
  if (opt.trace) {
    // The warm-up's twin on the now-warm engine, at once, so the two
    // differ by the cold costs alone (core.first_advance_extra_ms).
    auto s = spans.span("setup.steady_advance", 0);
    e.advance(e.chunk_quantum());
  }

  // ---- timed phase: closed loop of intervals ----
  // Traced runs alternate untraced (even) and traced (odd) intervals,
  // so both see the same drift; the untraced half is the baseline for
  // the trace overhead and the attribution check.
  std::vector<double> interval_ms;
  std::vector<double> traced_ms;
  std::vector<Totals> readings;
  // A traced run reports no end-to-end metric, so it needs no tail.
  const std::size_t min_intervals = opt.trace ? 3 : kMinIntervals;
  const auto phase0 = Clock::now();
  for (std::int64_t i = 0;; ++i) {
    const double elapsed = ms_between(phase0, Clock::now()) * 1e-3;
    if (elapsed >= opt.seconds && interval_ms.size() >= min_intervals) break;
    const bool traced = opt.trace && i % 2 == 1;
    spans.set_enabled(traced);
    const auto t0 = Clock::now();
    Totals observed;
    {
      auto s_interval = spans.span("bulk.interval", i);
      {
        auto s = spans.span("core.LatticeEngine::advance", i);
        e.advance(b.interval_gens);
      }
      auto s = spans.span("core.state_read", i);
      observed = read_observable(b, e.state(), sums3);
    }
    const double ms = ms_between(t0, Clock::now());
    (traced ? traced_ms : interval_ms).push_back(ms);
    ++out.attempted;
    // The rest of the conserved set is read outside the interval's time.
    const Totals t = conserved(b, e.state(), observed);
    readings.push_back(t);
  }
  spans.set_enabled(opt.trace);
  const double peak_mib = static_cast<double>(peak_rss_kib()) / 1024.0;
  std::vector<double> setups_after;
  if (!opt.trace) setups_after = cold_setups(opt, kColdSetups);

  // ---- checks ----
  {
    core::LatticeEngine::Config golden_cfg = b.cfg;
    golden_cfg.backend =
        b.three_d ? core::Backend::Reference3 : core::Backend::Reference;
    golden_cfg.tile_generations = 1;
    core::LatticeEngine golden(golden_cfg);
    fill_initial(b, golden.state(), opt.seed);
    const Totals initial =
        conserved(b, golden.state(), read_observable(b, golden.state(), sums3));
    golden.advance(warm_gens);
    const std::uint64_t golden_digest = fnv1a(golden.state());
    if (golden_digest != warm_digest) {
      out.fail_check(format("warm-up (%lld generations) differs from the "
                            "golden reference (digest %016llx, golden "
                            "%016llx)",
                            static_cast<long long>(warm_gens),
                            static_cast<unsigned long long>(warm_digest),
                            static_cast<unsigned long long>(golden_digest)));
    }
    std::int64_t broken = 0;
    for (const Totals& t : readings) broken += t == initial ? 0 : 1;
    if (broken > 0) {
      out.fail_check(format("%lld of %zu intervals broke mass or momentum "
                            "conservation",
                            static_cast<long long>(broken), readings.size()),
                     broken);
    }
    out.note(format("checks: warm-up bit-exact vs %s over %lld generations; "
                    "conservation at %zu intervals",
                    b.three_d ? "Reference3" : "Reference",
                    static_cast<long long>(warm_gens), readings.size()));
  }

  // ---- context ----
  const core::TilePlan plan =
      b.three_d ? core::plan_temporal_tiles3(
                      b.extent3(), lgca3d::to_boundary3(b.cfg.boundary),
                      b.cfg.tile_generations)
                : core::plan_temporal_tiles(b.cfg.extent, b.cfg.boundary,
                                            core::plane_row_bytes(b.cfg.extent),
                                            b.cfg.tile_generations);
  out.context.emplace_back(
      "shape", b.three_d ? "192x192x192 periodic, cubic gas, BitPlane3"
                         : "2048x2048 periodic, FHP-II, BitPlane");
  out.context.emplace_back(
      "tile_plan",
      format("depth=%lld tile_rows=%lld tiles=%lld working_set=%lld B "
             "recompute=%.4f",
             static_cast<long long>(plan.depth),
             static_cast<long long>(plan.tile_rows),
             static_cast<long long>(plan.tiles),
             static_cast<long long>(plan.working_set_bytes),
             plan.recompute_overhead));
  const std::string split =
      plan.depth > 1
          ? format("%lld tiles", static_cast<long long>(plan.tiles))
          : std::string("bands (untiled)");
  out.context.emplace_back(
      "threads",
      format("engine threads=%u over %s; active threads<=%u (main + lanes)",
             b.cfg.threads, split.c_str(), b.cfg.threads + 1));
  out.context.emplace_back("interval",
                           format("advance(%lld) + %s",
                                  static_cast<long long>(b.interval_gens),
                                  b.three_d ? "mass and momentum"
                                            : "momentum_profile_x"));

  // ---- end-to-end metrics ----
  // A run's 35-50 intervals support no tail: the highest percentile with
  // ten beyond is near p75, and across ten bulk3d runs it spread 0.33
  // while the host slowed, against 0.20 for the median. So a bulk run's
  // step_p95_ms is its median interval (README, "End-to-end metrics").
  auto& m = out.metrics;
  step_percentiles(out, "interval", interval_ms);
  m["step_p95_ms"] = m["step_p50_ms"];
  out.note("step_p95_ms is the median interval: too few intervals for a "
           "tail");
  m["sites_per_s"] = m["step_p50_ms"] > 0
                         ? static_cast<double>(b.sites()) *
                               static_cast<double>(b.interval_gens) /
                               (m["step_p50_ms"] * 1e-3)
                         : 0;
  setup_metric(out, setups_before, setup_own, setups_after);
  m["peak_rss_mb"] = peak_mib;
  if (!opt.trace) return out;

  // ---- traced run: probes at this shape, on copies of the state ----
  const LayerTimes lt = probe_layers({b.cfg, b.interval_gens, kProbeReps},
                                     e.state(), e.generation(), opt, spans,
                                     out);
  m["core.state_read_ms"] = span_median_ms(spans, "core.state_read");
  // The run's own set-up was its process's first, so its spans carry the
  // cold costs setup_s pays (pool threads, first-touch pages).
  m["core.construct_ms"] = span_median_ms(spans, "setup.LatticeEngine");
  m["core.first_advance_extra_ms"] =
      span_median_ms(spans, "setup.LatticeEngine::advance") -
      span_median_ms(spans, "setup.steady_advance");
  zero_layer(m, "serve");
  m["obs.trace_overhead_frac"] = median(traced_ms) / median(interval_ms) - 1;

  const std::string L = b.three_d ? "lgca3d" : "lgca";
  attribution_report(
      out, "interval", median(interval_ms), interval_ms.size(),
      {{L + " kernel", lt.kernel_ms},
       {L + " pack", lt.pack_ms},
       {L + " unpack", lt.unpack_ms},
       {L + " runner other", lt.runner_ms - lt.kernel_ms - lt.pack_ms -
                                 lt.unpack_ms},
       {"core engine other", lt.advance_ms - lt.runner_ms},
       {"core state read", m["core.state_read_ms"]}});
  return out;
}

}  // namespace perfbench
