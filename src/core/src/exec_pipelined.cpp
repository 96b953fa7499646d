// The hardware executors: the wide-serial pipeline behind Wsa and
// WsaE, and the Sternberg partitioned machine behind Spa.
//
// Each executor builds its machine once and keeps it across passes: a
// full-depth pass retargets it with set_t0() and rearms it in place,
// so the steady-state advance loop allocates nothing. Only a ragged
// tail chunk (chunk < pipeline depth, at most once per advance() call)
// pays for a throwaway shallower machine. Both executors run every
// pass, on either machine, through the one harvest_pass().
//
// WSA-E (§5) is the WSA chain at width 1 with its line buffer moved
// off chip, so it runs on WsaPipeline and its bits are WSA's. What it
// adds to the report is the off-chip ledger: external line-buffer
// storage k·(2L + 10) sites, buffer-channel demand k·4·D bits/tick,
// and the achieved fraction of that demand after bank conflicts in the
// configured parts (arch::line_buffer_stall_rate). Main memory demand
// is a constant 2·D bits/tick regardless of depth — the point of §5.
//
// The SPA factory normalizes the slice width (0 → nearest lattice
// divisor to the §6.2 optimum) into the engine's config before
// construction, so everything downstream sees the resolved value.
// SpaExec::try_degrade() is the stuck chip remap: the injector pulls
// failed (depth, slice) lanes out of the datapath and surviving
// pipelines absorb their columns.

#include <cmath>

#include "exec_factories.hpp"
#include "lattice/arch/design_space.hpp"
#include "lattice/arch/memory.hpp"
#include "lattice/arch/spa.hpp"
#include "lattice/arch/wsa.hpp"
#include "lattice/fault/fault.hpp"

namespace lattice::core::detail {

namespace {

// One pass of `machine` over `state`: adds the pass's counters to
// `stats` and returns its ticks. The delta is taken around the run, so
// the persistent machine and a throwaway tail are harvested alike.
template <class Machine>
std::int64_t harvest_pass(Machine& machine, lgca::SiteLattice& state,
                          ExecStats& stats) {
  const std::int64_t ticks = machine.stats().ticks;
  const std::int64_t updates = machine.stats().site_updates;
  state = machine.run(state);
  const std::int64_t pass_ticks = machine.stats().ticks - ticks;
  stats.ticks += pass_ticks;
  stats.site_updates += machine.stats().site_updates - updates;
  stats.buffer_sites = machine.stats().buffer_sites;
  return pass_ticks;
}

class WsaExec final : public BackendExec {
 public:
  WsaExec(const LatticeEngine::Config& config, const lgca::Rule& rule,
          fault::FaultInjector* injector)
      : BackendExec(config.backend == Backend::WsaE ? "wsa_e" : "wsa",
                    config.pipeline_depth),
        cfg_(config),
        rule_(&rule),
        injector_(injector),
        offchip_(config.backend == Backend::WsaE),
        width_(offchip_ ? 1 : config.wsa_width),
        pipe_(pipeline(pipelined_extent(config), config.pipeline_depth, 0)),
        stall_rate_(stall_rate(pipe_.lead())) {}

  void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                std::int64_t generation) override {
    if (chunk == depth_) {
      pipe_.set_t0(generation);
      charge_offchip(harvest_pass(pipe_, state, stats_), stall_rate_);
    } else {
      arch::WsaPipeline tail = pipeline(state.extent(), chunk, generation);
      charge_offchip(harvest_pass(tail, state, stats_),
                     stall_rate(tail.lead()));
    }
  }

  bool supports_fault_plan(
      const fault::FaultPlan& plan) const noexcept override {
    // The pipeline's buffers and links take the machine-memory
    // sources; there is no plane-resident storage to corrupt.
    return !plan.arms_plane_memory();
  }

  void fill_report(PerformanceReport& report) const override {
    // Main memory touches only the chain ends: 2·D·P bits/tick, with
    // P = 1 on WSA-E however deep the chain.
    report.bandwidth_bits_per_tick = 2.0 * cfg_.tech.bits_per_site * width_;
    if (!offchip_) return;
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
  arch::WsaPipeline pipeline(Extent extent, std::int64_t depth,
                             std::int64_t t0) const {
    return arch::WsaPipeline(extent, *rule_, static_cast<int>(depth), width_,
                             t0, /*fast_kernel=*/true, injector_);
  }

  // WSA-E's buffer-channel stalls per stream tick for a chain of
  // latency `lead` (the measuring window depends on it); 0 on WSA.
  double stall_rate(std::int64_t lead) const {
    if (!offchip_) return 0.0;
    return arch::line_buffer_stall_rate(cfg_.extent, lead, cfg_.wsa_e_buffer);
  }

  // WSA-E: a pass of `ticks` stream ticks also waits `rate` stall ticks
  // per tick on the external parts (0 with the default dual-bank ones).
  void charge_offchip(std::int64_t ticks, double rate) {
    if (!offchip_) return;
    static const obs::MetricsRegistry::Id stalls_id =
        obs::counter_id("wsa_e.buffer_stalls");
    const auto stalls = static_cast<std::int64_t>(
        std::llround(rate * static_cast<double>(ticks)));
    stream_ticks_ += ticks;
    stats_.ticks += stalls;
    obs::count(stalls_id, stalls);
  }

  LatticeEngine::Config cfg_;  // copied: the engine may be moved
  const lgca::Rule* rule_;
  fault::FaultInjector* injector_;
  bool offchip_;  // WSA-E: line buffers off chip, one PE per chip
  int width_;
  arch::WsaPipeline pipe_;
  double stall_rate_;  // pipe_'s, measured once
  std::int64_t stream_ticks_ = 0;
};

class SpaExec final : public BackendExec {
 public:
  SpaExec(const LatticeEngine::Config& config, const lgca::Rule& rule,
          fault::FaultInjector* injector)
      : BackendExec("spa", config.pipeline_depth),
        cfg_(config),
        rule_(&rule),
        injector_(injector),
        spa_(machine(pipelined_extent(config), config.pipeline_depth, 0)) {}

  void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                std::int64_t generation) override {
    if (chunk == depth_) {
      spa_.set_t0(generation);
      harvest_pass(spa_, state, stats_);
    } else {
      arch::SpaMachine tail = machine(state.extent(), chunk, generation);
      harvest_pass(tail, state, stats_);
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
  arch::SpaMachine machine(Extent extent, std::int64_t depth,
                           std::int64_t t0) const {
    return arch::SpaMachine(extent, *rule_, cfg_.spa_slice_width,
                            static_cast<int>(depth), t0, cfg_.threads,
                            /*fast_kernel=*/true, injector_);
  }

  LatticeEngine::Config cfg_;  // copied: the engine may be moved
  const lgca::Rule* rule_;
  fault::FaultInjector* injector_;
  arch::SpaMachine spa_;
};

}  // namespace

std::unique_ptr<BackendExec> make_wsa_exec(const LatticeEngine::Config& config,
                                           const lgca::Rule& rule,
                                           fault::FaultInjector* injector) {
  return std::make_unique<WsaExec>(config, rule, injector);
}

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
