#include "lattice/core/backend_exec.hpp"

#include <algorithm>

#include "exec_factories.hpp"
#include "lattice/fault/fault.hpp"

namespace lattice::core {

BackendExec::BackendExec(std::string_view name, std::int64_t pipeline_depth)
    : depth_(pipeline_depth),
      name_(name),
      pass_phase_("engine.pass." + name_ + "_ns"),
      pass_ns_(obs::histogram_id(pass_phase_)) {
  LATTICE_REQUIRE(pipeline_depth >= 1, "pipeline depth must be >= 1");
}

BackendExec::~BackendExec() = default;

std::int64_t BackendExec::max_chunk(std::int64_t remaining) const noexcept {
  return std::min(remaining, depth_);
}

std::int64_t BackendExec::chunk_quantum() const noexcept { return 1; }

void BackendExec::fill_report(PerformanceReport& report) const {
  // Software backends: no simulated datapath, no modeled bandwidth.
  (void)report;
}

bool BackendExec::try_degrade() { return false; }

bool BackendExec::supports_fault_plan(
    const fault::FaultPlan& plan) const noexcept {
  return !plan.armed();
}

Extent detail::pipelined_extent(const LatticeEngine::Config& config) {
  LATTICE_REQUIRE(config.boundary == lgca::Boundary::Null,
                  "pipelined backends require null boundaries");
  return config.extent;
}

std::unique_ptr<BackendExec> make_backend_exec(LatticeEngine::Config& config,
                                               const lgca::Rule& rule,
                                               fault::FaultInjector* injector) {
  switch (config.backend) {
    case Backend::Reference:
    case Backend::Reference3:
      return detail::make_reference_exec(config, rule, injector);
    case Backend::BitPlane:
    case Backend::BitPlane3:
      return detail::make_bitplane_exec(config, rule, injector);
    case Backend::Wsa:
    case Backend::WsaE:
      return detail::make_wsa_exec(config, rule, injector);
    case Backend::Spa:
      return detail::make_spa_exec(config, rule, injector);
  }
  LATTICE_REQUIRE(false, "unknown backend");
  return nullptr;
}

}  // namespace lattice::core
