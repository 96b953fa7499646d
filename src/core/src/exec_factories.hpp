// Private per-backend executor factories, one per translation unit
// (exec_*.cpp). Only backend_exec.cpp's make_backend_exec() calls
// these; the classes themselves stay file-local to their TU.

#pragma once

#include <memory>

#include "lattice/core/backend_exec.hpp"

namespace lattice::core::detail {

std::unique_ptr<BackendExec> make_reference_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector);

/// BitPlane and BitPlane3: one executor, keyed on the backend.
std::unique_ptr<BackendExec> make_bitplane_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector);

std::unique_ptr<BackendExec> make_wsa_exec(const LatticeEngine::Config& config,
                                           const lgca::Rule& rule,
                                           fault::FaultInjector* injector);

/// May normalize config in place (spa_slice_width == 0 → §6.2 pick).
std::unique_ptr<BackendExec> make_spa_exec(LatticeEngine::Config& config,
                                           const lgca::Rule& rule,
                                           fault::FaultInjector* injector);

std::unique_ptr<BackendExec> make_wsa_e_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector);

std::unique_ptr<BackendExec> make_reference3_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector);

}  // namespace lattice::core::detail
