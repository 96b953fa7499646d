// BackendExec — the polymorphic executor layer behind LatticeEngine.
//
// One executor per Backend value, created by make_backend_exec() and
// owned by the engine; backends that run the same machine share an
// executor class keyed on the backend. A constructed executor is
// ready to run its first pass. Everything backend-specific lives here: kernel
// detection (CollisionLut / PlaneKernel), slice-width defaulting,
// boundary requirements, the per-pass obs histogram, fault-injector
// wiring, persistent pipeline/machine state, and the report fields
// only that backend knows (bandwidth, off-chip buffer ledger). The
// engine itself never branches on the backend.
//
// Adding a backend (docs/ARCHITECTURE.md) starts by generalizing an
// existing executor, as WsaExec serves both WSA and WSA-E; only a new
// machine subclasses BackendExec, implements run_pass(), and adds a
// case to the factory in backend_exec.cpp.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "lattice/core/engine.hpp"
#include "lattice/obs/metrics.hpp"

namespace lattice::fault {
class FaultInjector;
struct FaultPlan;
}  // namespace lattice::fault

namespace lattice::core {

/// Counters an executor accumulates across passes. ticks stays 0 for
/// the software backends (no simulated clock); buffer_sites is a gauge
/// holding the most recent pass's datapath storage.
struct ExecStats {
  std::int64_t ticks = 0;
  std::int64_t site_updates = 0;
  std::int64_t buffer_sites = 0;
};

class BackendExec {
 public:
  virtual ~BackendExec();
  BackendExec(const BackendExec&) = delete;
  BackendExec& operator=(const BackendExec&) = delete;

  /// Advance `state` in place by `chunk` generations, the first of
  /// which is `generation`. Counters accumulate into stats().
  virtual void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                        std::int64_t generation) = 0;

  const ExecStats& stats() const noexcept { return stats_; }

  /// The obs stage name: run_pass() time lands in the top-level
  /// "engine.pass.<name>_ns" phase histogram (docs/OBSERVABILITY.md),
  /// whose full name is pass_phase().
  std::string_view name() const noexcept { return name_; }
  const std::string& pass_phase() const noexcept { return pass_phase_; }
  obs::MetricsRegistry::Id pass_histogram() const noexcept {
    return pass_ns_;
  }

  /// Whether this executor can realize every fault source `plan` arms.
  /// The machine-memory sources (buffer/link byte flips, stuck chips)
  /// need a simulated datapath; the plane-memory sources (plane-word
  /// flips, halo flips, stuck plane words, the parity shadow) need
  /// plane-resident site storage — no executor has both. The engine
  /// rejects an armed plan the executor cannot fully realize, so a
  /// fault run never silently under-injects. The base returns false
  /// for any armed plan.
  virtual bool supports_fault_plan(
      const fault::FaultPlan& plan) const noexcept;

  /// Largest chunk the executor wants for one pass, given `remaining`
  /// generations. Hardware executors bound it by the pipeline depth;
  /// software ones may take everything in one pass.
  virtual std::int64_t max_chunk(std::int64_t remaining) const noexcept;

  /// Generation quantum of one pass: the engine's guarded loop rounds
  /// chunk sizes and the working checkpoint interval up to a multiple
  /// of this, so a rollback never has to resume mid-quantum. 1 for
  /// every backend except a temporally-tiled one, whose quantum is the
  /// tile depth (a tile block commits depth generations atomically).
  virtual std::int64_t chunk_quantum() const noexcept;

  /// Backend-specific PerformanceReport fields (bandwidth demand,
  /// off-chip buffer ledger). The engine fills the generic ones.
  virtual void fill_report(PerformanceReport& report) const;

  /// Last-resort recovery hook: after max_retries failed replays the
  /// engine asks the executor to reconfigure around a persistent fault
  /// (SPA remaps stuck chips out of the datapath). Returns true if the
  /// executor degraded and the pass should be retried.
  virtual bool try_degrade();

 protected:
  /// `name` keys the pass histogram; `pipeline_depth` bounds the
  /// default max_chunk().
  BackendExec(std::string_view name, std::int64_t pipeline_depth);

  ExecStats stats_;
  std::int64_t depth_;

 private:
  std::string name_;
  std::string pass_phase_;
  obs::MetricsRegistry::Id pass_ns_;
};

/// Build the executor for config.backend. `config` is the engine's own
/// copy and may be normalized in place (e.g. SPA picks the default
/// slice width here); `injector` is null unless a fault plan is armed.
std::unique_ptr<BackendExec> make_backend_exec(LatticeEngine::Config& config,
                                               const lgca::Rule& rule,
                                               fault::FaultInjector* injector);

}  // namespace lattice::core
