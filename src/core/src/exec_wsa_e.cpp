// WsaEExec — the §5 extensible architecture behind the executor
// interface. Functionally a width-1 WSA chain (bit-identical output by
// construction); what it adds to the report is the off-chip ledger:
// external line-buffer storage k·(2L + 10) sites, buffer-channel
// demand k·4·D bits/tick, and the achieved fraction of that demand
// after bank conflicts in the configured parts. Main memory demand is
// a constant 2·D bits/tick regardless of depth — the point of §5.

#include "exec_factories.hpp"
#include "lattice/arch/design_space.hpp"
#include "lattice/arch/wsa_e.hpp"
#include "lattice/fault/fault.hpp"

namespace lattice::core::detail {

namespace {

class WsaEExec final : public BackendExec {
 public:
  WsaEExec(const LatticeEngine::Config& config, const lgca::Rule& rule,
           fault::FaultInjector* injector)
      : BackendExec("wsa_e", config.pipeline_depth),
        cfg_(config),
        rule_(&rule),
        injector_(injector),
        pipe_(pipelined_extent(config), rule, config.pipeline_depth, /*t0=*/0,
              config.fast_kernel, injector, config.wsa_e_buffer) {}

  void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                std::int64_t generation) override {
    if (chunk == depth_) {
      pipe_.set_t0(generation);
      state = pipe_.run(state);
      harvest(pipe_.stats(), prev_);
      prev_ = pipe_.stats();
    } else {
      arch::WsaEPipeline tail(state.extent(), *rule_, static_cast<int>(chunk),
                              generation, cfg_.fast_kernel, injector_,
                              cfg_.wsa_e_buffer);
      state = tail.run(state);
      harvest(tail.stats(), arch::WsaEStats{});
    }
  }

  bool supports_fault_plan(
      const fault::FaultPlan& plan) const noexcept override {
    return !plan.arms_plane_memory();
  }

  void fill_report(PerformanceReport& report) const override {
    // Main memory touches only the chain ends: constant 2·D bits/tick.
    report.bandwidth_bits_per_tick = 2.0 * cfg_.tech.bits_per_site;
    report.offchip_buffer_sites =
        depth_ * arch::wsa_e::storage_sites_per_pe(cfg_.extent.width);
    report.offchip_buffer_bits_per_tick =
        static_cast<double>(depth_) *
        arch::wsa_e::buffer_bits_per_tick_per_pe(cfg_.tech);
    report.buffer_bandwidth_fraction =
        stats_.ticks > 0 ? static_cast<double>(stream_ticks_) /
                               static_cast<double>(stats_.ticks)
                         : 1.0;
  }

 private:
  void harvest(const arch::WsaEStats& now, const arch::WsaEStats& prev) {
    stats_.ticks += now.ticks - prev.ticks;
    stats_.site_updates += now.site_updates - prev.site_updates;
    stats_.buffer_sites = now.buffer_sites;
    stream_ticks_ += now.stream_ticks - prev.stream_ticks;
  }

  LatticeEngine::Config cfg_;  // copied: the engine may be moved
  const lgca::Rule* rule_;
  fault::FaultInjector* injector_;
  arch::WsaEPipeline pipe_;
  arch::WsaEStats prev_;       // pipe_'s counters at the last harvest
  std::int64_t stream_ticks_ = 0;
};

}  // namespace

std::unique_ptr<BackendExec> make_wsa_e_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector) {
  return std::make_unique<WsaEExec>(config, rule, injector);
}

}  // namespace lattice::core::detail
