// Layer probes for the traced run: the workload's own shape driven one
// layer at a time through public entry points, on copies of its state,
// so adjacent layers compare within one process.
//
//   plane kernel        plane_gas_run[_tiled][3] on pre-packed planes
//   pack / unpack       PlaneLattice[3]::pack / unpack
//   runner              bitplane_gas_run[_tiled][3] on bytes
//   engine              advance() alternated with the runner,
//                       checkpoint_io save and load; on request,
//                       construction and first vs steady advance()
//
// Every repetition is a span; each metric is the median of its spans.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>

#include "lattice/core/checkpoint_io.hpp"
#include "lattice/core/tile_plan.hpp"
#include "lattice/lgca/plane_kernel.hpp"
#include "lattice/lgca/temporal_tile.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace lattice;

using RunFn = std::function<void(unsigned threads, const core::TilePlan&,
                                 std::int64_t gens)>;

/// One dimension's plane layer as the probes drive it.
struct PlaneLayer {
  const char* name;  // "lgca" | "lgca3d"
  std::function<core::TilePlan(std::int64_t requested)> plan;
  std::function<void()> pack;    // bytes copy -> planes
  std::function<void()> unpack;  // planes -> bytes copy
  RunFn kernel;                  // on the planes
  RunFn runner;                  // on the bytes
};

PlaneLayer layer2(const core::LatticeEngine::Config& cfg,
                  const lgca::SiteLattice& state, std::int64_t t,
                  lgca::PlaneLattice& planes, lgca::SiteLattice& bytes) {
  const lgca::PlaneKernel& kernel = lgca::PlaneKernel::get(cfg.gas);
  const Extent ext = cfg.extent;
  const lgca::Boundary boundary = cfg.boundary;
  PlaneLayer layer;
  layer.name = "lgca";
  layer.plan = [ext, boundary](std::int64_t requested) {
    return core::plan_temporal_tiles(ext, boundary, core::plane_row_bytes(ext),
                                     requested);
  };
  layer.pack = [&planes, &state] { planes.pack(state); };
  layer.unpack = [&planes, &bytes] { planes.unpack(bytes); };
  layer.kernel = [&planes, &kernel, t](unsigned threads,
                                       const core::TilePlan& plan,
                                       std::int64_t gens) {
    if (plan.depth > 1) {
      lgca::plane_gas_run_tiled(planes, kernel, gens, t, threads,
                                plan.tiling());
    } else {
      lgca::plane_gas_run(planes, kernel, gens, t, threads);
    }
  };
  layer.runner = [&bytes, &kernel, t](unsigned threads,
                                      const core::TilePlan& plan,
                                      std::int64_t gens) {
    if (plan.depth > 1) {
      lgca::bitplane_gas_run_tiled(bytes, kernel, gens, t, threads,
                                   plan.tiling());
    } else {
      lgca::bitplane_gas_run(bytes, kernel, gens, t, threads);
    }
  };
  return layer;
}

PlaneLayer layer3(const core::LatticeEngine::Config& cfg,
                  const lgca::SiteLattice& state, std::int64_t t,
                  lgca3d::PlaneLattice3& planes, lgca::SiteLattice& bytes) {
  const lgca3d::Extent3 ext{cfg.extent.width, cfg.extent.height, cfg.depth};
  const lgca3d::Boundary3 boundary = lgca3d::to_boundary3(cfg.boundary);
  PlaneLayer layer;
  layer.name = "lgca3d";
  layer.plan = [ext, boundary](std::int64_t requested) {
    return core::plan_temporal_tiles3(ext, boundary, requested);
  };
  layer.pack = [&planes, &state] { planes.pack(state); };
  layer.unpack = [&planes, &bytes] { planes.unpack(bytes); };
  layer.kernel = [&planes, t](unsigned threads, const core::TilePlan& plan,
                              std::int64_t gens) {
    if (plan.depth > 1) {
      lgca3d::plane_gas_run_tiled3(planes, gens, t, threads, plan.tiling());
    } else {
      lgca3d::plane_gas_run3(planes, gens, t, threads);
    }
  };
  layer.runner = [&bytes, ext, t](unsigned threads, const core::TilePlan& plan,
                                  std::int64_t gens) {
    if (plan.depth > 1) {
      lgca3d::bitplane_gas_run_tiled3(bytes, ext, gens, t, threads,
                                      plan.tiling());
    } else {
      lgca3d::bitplane_gas_run3(bytes, ext, gens, t, threads);
    }
  };
  return layer;
}

void probe_plane_layer(const ProbeShape& shape, PlaneLayer& layer,
                       SpanLog& spans, Outcome& out, LayerTimes& lt) {
  const std::string L = layer.name;
  const auto& cfg = shape.cfg;
  auto& m = out.metrics;
  const double sites =
      static_cast<double>(cfg.extent.area() * cfg.depth);
  const core::TilePlan plan = layer.plan(cfg.tile_generations);

  lt.pack_ms = probe_ms(spans, "probe." + L + ".pack", shape.reps, layer.pack);
  lt.kernel_ms = probe_ms(spans, "probe." + L + ".kernel", shape.reps, [&] {
    layer.kernel(cfg.threads, plan, shape.gens);
  });
  lt.unpack_ms =
      probe_ms(spans, "probe." + L + ".unpack", shape.reps, layer.unpack);

  // Shorter runs for the thread and depth ladders: rates, not totals.
  auto rate = [&](const std::string& name, unsigned threads,
                  const core::TilePlan& p) {
    const std::int64_t quarter = std::max<std::int64_t>(1, shape.gens / 4);
    const std::int64_t gens = (quarter + p.depth - 1) / p.depth * p.depth;
    const double ms = probe_ms(spans, name, shape.reps,
                               [&] { layer.kernel(threads, p, gens); });
    return sites * static_cast<double>(gens) / (ms * 1e-3);
  };
  const double rate2 = rate("probe." + L + ".kernel.threads2", 2, plan);
  const double rate1 = rate("probe." + L + ".kernel.threads1", 1, plan);

  std::vector<std::int64_t> depths = {1, 2, 4, 6, 8, 12, 16};
  if (std::find(depths.begin(), depths.end(), plan.depth) == depths.end()) {
    depths.push_back(plan.depth);
  }
  double best_rate = 0;
  double planned_rate = 0;
  std::int64_t best_depth = 1;
  std::string ladder;
  for (const std::int64_t k : depths) {
    const core::TilePlan p = layer.plan(k);
    if (p.depth != k) continue;  // infeasible at this shape
    const double r = rate(format("probe.%s.ladder.depth%lld", L.c_str(),
                                 static_cast<long long>(k)),
                          cfg.threads, p);
    ladder += format(" %lld:%.4g", static_cast<long long>(k), r);
    if (r > best_rate) {
      best_rate = r;
      best_depth = k;
    }
    if (k == plan.depth) planned_rate = r;
  }
  out.note(L + " depth ladder (depth:sites/s):" + ladder);

  m[L + ".kernel_sites_per_s"] =
      sites * static_cast<double>(shape.gens) / (lt.kernel_ms * 1e-3);
  m[L + ".pack_ms"] = lt.pack_ms;
  m[L + ".unpack_ms"] = lt.unpack_ms;
  m[L + ".band_speedup"] = rate2 / rate1;
  m[L + ".tile_depth"] = static_cast<double>(plan.depth);
  m[L + ".tile_best_depth"] = static_cast<double>(best_depth);
  m[L + ".tile_regret"] = best_rate / planned_rate;
  if (L == "lgca") {
    m[L + ".recompute_frac"] = plan.recompute_overhead;
    // Computed, not measured: a tile block reads the committed planes
    // once and writes the other buffer once per `depth` generations.
    m[L + ".plane_bytes_per_update"] =
        2.0 * static_cast<double>(plan.lattice_bytes) /
        (sites * static_cast<double>(plan.depth));
  }
}

/// Engine probes. The runner and advance() run alternately on twin
/// copies of the state, so the engine-over-runner ratio compares two
/// layers under the same heap and cache conditions.
void probe_engine(const ProbeShape& shape, const lgca::SiteLattice& state,
                  const PlaneLayer& layer, const RunOptions& opt,
                  SpanLog& spans, Outcome& out, LayerTimes& lt) {
  auto& m = out.metrics;
  core::LatticeEngine e(shape.cfg);
  e.state() = state;
  e.advance(e.chunk_quantum());  // history captured, pool lanes up
  const core::TilePlan plan = layer.plan(shape.cfg.tile_generations);
  for (int r = 0; r < shape.reps; ++r) {
    {
      auto s = spans.span(std::string("probe.") + layer.name + ".runner", r);
      layer.runner(shape.cfg.threads, plan, shape.gens);
    }
    auto s = spans.span("probe.core.LatticeEngine::advance", r);
    e.advance(shape.gens);
  }
  lt.runner_ms =
      span_median_ms(spans, std::string("probe.") + layer.name + ".runner");
  lt.advance_ms = span_median_ms(spans, "probe.core.LatticeEngine::advance");
  m[std::string(layer.name) + ".runner_over_kernel"] =
      lt.runner_ms / lt.kernel_ms;
  m["core.advance_ms"] = lt.advance_ms;
  m["core.advance_over_runner"] = lt.advance_ms / lt.runner_ms;

  // Like the spool, every save creates a new file: rewriting one file in
  // place makes ext4 write it out on close (auto_da_alloc), which the
  // spool never pays.
  auto path = [&](int r) {
    return format("%s/probe-%d.ckpt", opt.work_dir.c_str(), r);
  };
  int saved = 0;
  m["core.checkpoint_save_ms"] =
      probe_ms(spans, "probe.core.save_checkpoint", shape.reps,
               [&] { core::save_checkpoint(e.checkpoint(), path(saved++)); });
  m["core.checkpoint_bytes"] =
      static_cast<double>(std::filesystem::file_size(path(0)));
  core::EngineCheckpoint loaded;
  int read = 0;
  m["core.checkpoint_load_ms"] =
      probe_ms(spans, "probe.core.load_checkpoint", shape.reps,
               [&] { loaded = core::load_checkpoint(path(read++)); });
  if (!(loaded.state == e.state()) || loaded.generation != e.generation()) {
    out.fail_check("checkpoint round trip changed the engine state");
  }
  for (int r = 0; r < saved; ++r) std::filesystem::remove(path(r));
}

}  // namespace

void probe_engine_rebuild(const ProbeShape& shape,
                          const lgca::SiteLattice& state, SpanLog& spans,
                          Outcome& out) {
  for (int r = 0; r < shape.reps; ++r) {
    std::unique_ptr<core::LatticeEngine> e;
    {
      auto s = spans.span("probe.core.LatticeEngine", r);
      e = std::make_unique<core::LatticeEngine>(shape.cfg);
    }
    e->state() = state;
    const std::int64_t q = e->chunk_quantum();
    {
      auto s = spans.span("probe.core.first_advance", r);
      e->advance(q);
    }
    auto s = spans.span("probe.core.steady_advance", r);
    e->advance(q);
  }
  out.metrics["core.construct_ms"] =
      span_median_ms(spans, "probe.core.LatticeEngine");
  out.metrics["core.first_advance_extra_ms"] =
      span_median_ms(spans, "probe.core.first_advance") -
      span_median_ms(spans, "probe.core.steady_advance");
}

LayerTimes probe_layers(const ProbeShape& shape,
                        const lgca::SiteLattice& state, std::int64_t t,
                        const RunOptions& opt, SpanLog& spans, Outcome& out) {
  LayerTimes lt;
  lgca::SiteLattice bytes = state;
  if (core::backend_is_3d(shape.cfg.backend)) {
    lgca3d::PlaneLattice3 planes(
        {shape.cfg.extent.width, shape.cfg.extent.height, shape.cfg.depth},
        lgca3d::to_boundary3(shape.cfg.boundary));
    PlaneLayer layer = layer3(shape.cfg, state, t, planes, bytes);
    probe_plane_layer(shape, layer, spans, out, lt);
    probe_engine(shape, state, layer, opt, spans, out, lt);
    zero_layer(out.metrics, "lgca");
  } else {
    lgca::PlaneLattice planes(shape.cfg.extent, shape.cfg.boundary);
    PlaneLayer layer = layer2(shape.cfg, state, t, planes, bytes);
    probe_plane_layer(shape, layer, spans, out, lt);
    probe_engine(shape, state, layer, opt, spans, out, lt);
    zero_layer(out.metrics, "lgca3d");
  }
  return lt;
}

}  // namespace perfbench
