// BitPlaneExec — the multi-spin coded software backends, 2-D and 3-D.
// The kernels evaluate gas collisions as boolean algebra over 64-site
// words, so custom rules are rejected here (they have no plane form).
// BitPlane3 is the same executor over the engine's flat {nx, ny·nz}
// view of a volume: the z-plane runners of the cubic gas and the d = 3
// tile plan. The executor takes its name, and so its pass histogram,
// from the backend.
//
// max_chunk() takes everything in one pass: pipeline_depth is a
// hardware parameter with no meaning for this backend, and chunking by
// it would re-pay the pack/unpack transpose (about one scalar FHP-II
// generation each way) per chunk. One pass per advance() also gives
// snapshot() a single engine.pass.bitplane_ns (or bitplane3_ns) sample
// per call, with the bitplane.pack/update/unpack stages nested
// underneath it.

#include <optional>

#include "exec_factories.hpp"
#include "lattice/core/tile_plan.hpp"
#include "lattice/fault/memory_guard.hpp"
#include "lattice/lgca/plane_kernel.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"
#include "lattice/obs/metrics.hpp"
#include "volume3.hpp"

namespace lattice::core::detail {

namespace {

class BitPlaneExec final : public BackendExec {
 public:
  BitPlaneExec(const LatticeEngine::Config& config,
               fault::FaultInjector* injector)
      : BackendExec(backend_is_3d(config.backend) ? "bitplane3" : "bitplane",
                    config.pipeline_depth),
        kernel_(backend_is_3d(config.backend)
                    ? nullptr
                    : &lgca::PlaneKernel::get(config.gas)),
        extent_(extent3_of(config)),
        threads_(config.threads),
        injector_(injector),
        plan_(kernel_ != nullptr
                  ? plan_temporal_tiles(config.extent, config.boundary,
                                        plane_row_bytes(config.extent),
                                        config.tile_generations)
                  : plan_temporal_tiles3(extent_,
                                         lgca3d::to_boundary3(config.boundary),
                                         config.tile_generations)) {
    if (injector_ != nullptr) guard_.emplace(*injector_);
    // Surface which span variant this backend runs (a profile can't
    // tell 64-bit from 512-bit words from timings alone): the dispatch
    // level, which the 2-D and the 3-D spans share.
    static const obs::MetricsRegistry::Id simd_id =
        obs::gauge_id("bitplane.simd_bits");
    static const obs::MetricsRegistry::Id simd3_id =
        obs::gauge_id("bitplane3.simd_bits");
    obs::gauge_set(kernel_ != nullptr ? simd_id : simd3_id,
                   lgca::plane_span_ops(lgca::plane_simd_active()).width_bits);
  }

  std::int64_t max_chunk(std::int64_t remaining) const noexcept override {
    return remaining;
  }

  std::int64_t chunk_quantum() const noexcept override { return plan_.depth; }

  void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                std::int64_t generation) override {
    // A depth-1 plan is an infeasible tiling: the runner's plain sweep.
    lgca::PlaneRunHooks* hooks = guard_ ? &*guard_ : nullptr;
    if (kernel_ == nullptr) {
      lgca3d::bitplane_gas_run_tiled3(state, extent_, chunk, generation,
                                      threads_, plan_.tiling(), hooks);
    } else {
      lgca::bitplane_gas_run_tiled(state, *kernel_, chunk, generation,
                                   threads_, plan_.tiling(), hooks);
    }
    stats_.site_updates += state.extent().area() * chunk;
  }

  bool supports_fault_plan(
      const fault::FaultPlan& plan) const noexcept override {
    // Plane-resident storage realizes every plane-memory source; the
    // machine-memory sources (pipeline buffers, inter-stage links,
    // stuck chips) have no physical analog here. Halo flips strike
    // guard words, which only wide rows store; compact rows are dense.
    return !plan.arms_machine_memory() &&
           (plan.halo_flip_rate == 0.0 ||
            lgca::PlaneLattice::guarded(extent_.nx));
  }

  bool try_degrade() override {
    if (injector_ != nullptr && injector_->has_stuck_planes()) {
      injector_->disable_stuck_planes();
      return true;
    }
    return false;
  }

 private:
  const lgca::PlaneKernel* kernel_;  // null for the 3-D backend
  lgca3d::Extent3 extent_;
  unsigned threads_;
  fault::FaultInjector* injector_;
  TilePlan plan_;
  std::optional<fault::PlaneMemoryGuard> guard_;
};

}  // namespace

std::unique_ptr<BackendExec> make_bitplane_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector) {
  (void)rule;
  LATTICE_REQUIRE(config.custom_rule == nullptr,
                  backend_is_3d(config.backend)
                      ? "the 3-D backends run the cubic gas only; custom "
                        "rules have no boolean-algebra kernel"
                      : "the bit-plane backend runs lattice gases only; "
                        "custom rules have no boolean-algebra kernel");
  return std::make_unique<BitPlaneExec>(config, injector);
}

}  // namespace lattice::core::detail
