// SpaExec — the Sternberg partitioned machine behind the executor
// interface. The factory normalizes the slice width (0 → nearest
// lattice divisor to the §6.2 optimum) into the engine's config before
// construction, so everything downstream sees the resolved value.
//
// The machine is built with the executor and persists across passes
// (stage grid or wavefront ladder, depending on strategy); ragged tail
// chunks use a throwaway shallower machine. try_degrade() is the stuck
// chip remap: the injector pulls failed (depth, slice) lanes out of
// the datapath and surviving pipelines absorb their columns.

#include "exec_factories.hpp"
#include "lattice/arch/spa.hpp"
#include "lattice/fault/fault.hpp"

namespace lattice::core::detail {

namespace {

class SpaExec final : public BackendExec {
 public:
  SpaExec(const LatticeEngine::Config& config, const lgca::Rule& rule,
          fault::FaultInjector* injector)
      : BackendExec("spa", config.pipeline_depth),
        cfg_(config),
        rule_(&rule),
        injector_(injector),
        spa_(pipelined_extent(config), rule, config.spa_slice_width,
             config.pipeline_depth, /*t0=*/0, config.threads,
             config.fast_kernel, injector) {}

  void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                std::int64_t generation) override {
    if (chunk == depth_) {
      spa_.set_t0(generation);
      state = spa_.run(state);
      const arch::SpaStats& s = spa_.stats();
      stats_.ticks += s.ticks - prev_.ticks;
      stats_.site_updates += s.site_updates - prev_.site_updates;
      stats_.buffer_sites = s.buffer_sites;
      prev_ = s;
    } else {
      arch::SpaMachine tail(state.extent(), *rule_, cfg_.spa_slice_width,
                            static_cast<int>(chunk), generation,
                            cfg_.threads, cfg_.fast_kernel, injector_);
      state = tail.run(state);
      stats_.ticks += tail.stats().ticks;
      stats_.site_updates += tail.stats().site_updates;
      stats_.buffer_sites = tail.stats().buffer_sites;
    }
  }

  bool supports_fault_plan(
      const fault::FaultPlan& plan) const noexcept override {
    return !plan.arms_plane_memory();
  }

  bool try_degrade() override {
    if (injector_ != nullptr && injector_->has_stuck()) {
      injector_->disable_stuck();
      return true;
    }
    return false;
  }

  void fill_report(PerformanceReport& report) const override {
    report.bandwidth_bits_per_tick =
        2.0 * cfg_.tech.bits_per_site *
        static_cast<double>(cfg_.extent.width) /
        static_cast<double>(cfg_.spa_slice_width);
  }

 private:
  LatticeEngine::Config cfg_;  // copied: the engine may be moved
  const lgca::Rule* rule_;
  fault::FaultInjector* injector_;
  arch::SpaMachine spa_;
  arch::SpaStats prev_;  // spa_'s counters at the last harvest
};

}  // namespace

std::unique_ptr<BackendExec> make_spa_exec(LatticeEngine::Config& config,
                                           const lgca::Rule& rule,
                                           fault::FaultInjector* injector) {
  if (config.spa_slice_width == 0) {
    config.spa_slice_width =
        pick_spa_slice_width(config.tech, config.extent.width);
  }
  return std::make_unique<SpaExec>(config, rule, injector);
}

}  // namespace lattice::core::detail
