// Private executor factories, one per machine family (exec_*.cpp),
// plus the boundary check the pipelined executors share. Only
// backend_exec.cpp's make_backend_exec() calls the factories; the
// classes themselves stay file-local to their TU.

#pragma once

#include <memory>

#include "lattice/core/backend_exec.hpp"

namespace lattice::core::detail {

/// Reference and Reference3: one executor, keyed on the backend.
std::unique_ptr<BackendExec> make_reference_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector);

/// The WSA, WSA-E and SPA datapaths stream rows through line buffers
/// with no wrap-around path: checks the null boundary they require and
/// returns the extent their pipeline or machine is built over.
Extent pipelined_extent(const LatticeEngine::Config& config);

/// BitPlane and BitPlane3: one executor, keyed on the backend.
std::unique_ptr<BackendExec> make_bitplane_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector);

/// Wsa and WsaE: one executor, keyed on the backend. WSA-E runs the
/// WSA pipeline at width 1 and keeps the off-chip buffer ledger.
std::unique_ptr<BackendExec> make_wsa_exec(const LatticeEngine::Config& config,
                                           const lgca::Rule& rule,
                                           fault::FaultInjector* injector);

/// May normalize config in place (spa_slice_width == 0 → §6.2 pick).
std::unique_ptr<BackendExec> make_spa_exec(LatticeEngine::Config& config,
                                           const lgca::Rule& rule,
                                           fault::FaultInjector* injector);

}  // namespace lattice::core::detail
