// WsaExec — the wide-serial pipeline behind the executor interface.
//
// The stage chain is built with the executor and persists across
// passes: a full-depth pass retargets it with set_t0() and rearms in
// place, so the steady-state advance loop allocates nothing. Only a
// ragged tail chunk (chunk < pipeline depth, at most once per
// advance() call) pays for a throwaway shorter chain.

#include "exec_factories.hpp"
#include "lattice/arch/wsa.hpp"
#include "lattice/fault/fault.hpp"

namespace lattice::core::detail {

namespace {

class WsaExec final : public BackendExec {
 public:
  WsaExec(const LatticeEngine::Config& config, const lgca::Rule& rule,
          fault::FaultInjector* injector)
      : BackendExec("wsa", config.pipeline_depth),
        cfg_(config),
        rule_(&rule),
        injector_(injector),
        pipe_(pipelined_extent(config), rule, config.pipeline_depth,
              config.wsa_width, /*t0=*/0, config.fast_kernel, injector) {}

  void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                std::int64_t generation) override {
    if (chunk == depth_) {
      pipe_.set_t0(generation);
      state = pipe_.run(state);
      const arch::PipelineStats& s = pipe_.stats();
      stats_.ticks += s.ticks - prev_.ticks;
      stats_.site_updates += s.site_updates - prev_.site_updates;
      stats_.buffer_sites = s.buffer_sites;
      prev_ = s;
    } else {
      arch::WsaPipeline tail(state.extent(), *rule_, static_cast<int>(chunk),
                             cfg_.wsa_width, generation, cfg_.fast_kernel,
                             injector_);
      state = tail.run(state);
      stats_.ticks += tail.stats().ticks;
      stats_.site_updates += tail.stats().site_updates;
      stats_.buffer_sites = tail.stats().buffer_sites;
    }
  }

  bool supports_fault_plan(
      const fault::FaultPlan& plan) const noexcept override {
    // The pipeline's buffers and links take the machine-memory
    // sources; there is no plane-resident storage to corrupt.
    return !plan.arms_plane_memory();
  }

  void fill_report(PerformanceReport& report) const override {
    report.bandwidth_bits_per_tick =
        2.0 * cfg_.tech.bits_per_site * cfg_.wsa_width;
  }

 private:
  LatticeEngine::Config cfg_;  // copied: the engine may be moved
  const lgca::Rule* rule_;
  fault::FaultInjector* injector_;
  arch::WsaPipeline pipe_;
  arch::PipelineStats prev_;  // pipe_'s counters at the last harvest
};

}  // namespace

std::unique_ptr<BackendExec> make_wsa_exec(const LatticeEngine::Config& config,
                                           const lgca::Rule& rule,
                                           fault::FaultInjector* injector) {
  return std::make_unique<WsaExec>(config, rule, injector);
}

}  // namespace lattice::core::detail
