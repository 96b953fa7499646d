// ReferenceExec — the golden updaters behind the executor interface,
// 2-D and 3-D. Kernel selection happens once at construction: 2-D gas
// rules get the fused CollisionLut sweep, anything else the generic
// virtual-dispatch path, banded by rows when threads > 1. Reference3
// is the same executor over the engine's flat {nx, ny·nz} view of a
// volume: it always runs the gather-and-collide updater through
// golden_run, deliberately unclever, because it is the oracle the
// BitPlane3 backend is measured against. The executor takes its name,
// and so its pass histogram, from the backend.

#include <optional>

#include "exec_factories.hpp"
#include "lattice/core/tile_plan.hpp"
#include "lattice/fault/memory_guard.hpp"
#include "lattice/lgca/collision_lut.hpp"
#include "lattice/lgca/reference.hpp"
#include "volume3.hpp"

namespace lattice::core::detail {

namespace {

class ReferenceExec final : public BackendExec {
 public:
  ReferenceExec(const LatticeEngine::Config& config, const lgca::Rule& rule,
                fault::FaultInjector* injector)
      : BackendExec(backend_is_3d(config.backend) ? "reference3" : "reference",
                    config.pipeline_depth),
        config_(config),
        rule_(&rule) {
    // A volume's rule is the 2-D GasRule the engine builds from
    // config.gas, so a LUT would load for it; only golden_run knows to
    // run it as the cubic gas. The LUT sweep and the row bands are 2-D.
    if (!backend_is_3d(config.backend)) {
      lut_ = lgca::CollisionLut::try_get(rule);
      threads_ = config.threads;
    }
    if (injector != nullptr) guard_.emplace(*injector);
    // Temporal blocking applies to the fused byte-LUT sweep only: the
    // generic virtual-dispatch path has no windowed row update, and
    // the guarded path must step one generation at a time anyway (the
    // site guard injects and audits per generation).
    if (lut_ != nullptr && !guard_) {
      plan_ = plan_temporal_tiles(config.extent, config.boundary,
                                  byte_row_bytes(config.extent),
                                  config.tile_generations);
    }
  }

  void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                std::int64_t generation) override {
    if (guard_) {
      // Guarded: one generation at a time, so each fault lands (and is
      // audited) in the same generation that would read it on the
      // bit-plane backend — the two fault runs stay like-for-like. On
      // a volume the site guard keys its draws by global flat row
      // z·ny + y, the same coordinates the 3-D plane guard uses.
      guard_->run_begin(state);
      for (std::int64_t g = 0; g < chunk; ++g) {
        guard_->inject_and_audit(state, generation + g);
        run_generations(state, 1, generation + g);
        guard_->record(state);
      }
    } else {
      run_generations(state, chunk, generation);
    }
    stats_.site_updates += state.extent().area() * chunk;
  }

  bool supports_fault_plan(
      const fault::FaultPlan& plan) const noexcept override {
    // Site space mirrors the in-lattice plane sources exactly; halo
    // guard words and the parity shadow plane only exist in the
    // bit-plane coding, so plans arming them are rejected here.
    return !plan.arms_machine_memory() && plan.halo_flip_rate == 0.0 &&
           !plan.parity_plane;
  }

  bool try_degrade() override {
    if (guard_ && injector()->has_stuck_planes()) {
      injector()->disable_stuck_planes();
      return true;
    }
    return false;
  }

 private:
  void run_generations(lgca::SiteLattice& state, std::int64_t chunk,
                       std::int64_t generation) {
    if (lut_ != nullptr) {
      // A depth-1 plan is an infeasible tiling: the runner's plain sweep.
      lgca::fused_gas_run_tiled(state, *lut_, chunk, generation, threads_,
                                plan_.tiling());
    } else if (threads_ > 1) {
      lgca::reference_run_parallel(state, *rule_, chunk, threads_, generation);
    } else {
      golden_run(state, config_, *rule_, chunk, generation);
    }
  }

  fault::FaultInjector* injector() { return guard_->injector(); }

  LatticeEngine::Config config_;  // copied: the engine may be moved
  const lgca::Rule* rule_;
  const lgca::CollisionLut* lut_ = nullptr;
  unsigned threads_ = 1;
  TilePlan plan_;
  std::optional<fault::SiteMemoryGuard> guard_;
};

}  // namespace

std::unique_ptr<BackendExec> make_reference_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector) {
  LATTICE_REQUIRE(
      !backend_is_3d(config.backend) || config.custom_rule == nullptr,
      "the 3-D backends run the cubic gas only; custom rules have no "
      "3-D form");
  return std::make_unique<ReferenceExec>(config, rule, injector);
}

}  // namespace lattice::core::detail
