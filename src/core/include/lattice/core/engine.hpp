// LatticeEngine — the library's front door.
//
// Bundles a lattice state, an update rule, and a choice of execution
// backend (golden reference, WSA pipeline, WSA-E chain, SPA machine,
// bit-plane multi-spin software kernel) behind one `advance()` call,
// and turns the backend's counters plus a technology point into the
// performance report the paper's analysis predicts: modeled update
// rate, memory bandwidth demand, and the Hong–Kung ceiling
// R ≤ B·τ(2S) the design can never beat (§7).
//
// All per-backend behavior lives behind the BackendExec executor layer
// (lattice/core/backend_exec.hpp): the engine owns one executor,
// created by a factory keyed on `Config::backend`, and never branches
// on the backend itself. This header deliberately includes none of the
// backend machinery (arch pipelines, collision LUTs, plane kernels) —
// client TUs compile only the lattice container, the technology point
// and the fault plan.
//
//   LatticeEngine engine(LatticeEngine::Config{
//       .extent = {256, 256},
//       .gas = lgca::GasKind::FHP_II,
//       .backend = core::Backend::Wsa,
//       .wsa_width = 4,
//       .pipeline_depth = 8,
//   });
//   lgca::fill_flow(engine.state(), engine.gas_model(), 0.3, 0.1, seed);
//   engine.advance(100);
//   const core::PerformanceReport r = engine.report();

#pragma once

#include <cstdint>
#include <memory>

#include "lattice/arch/memory.hpp"
#include "lattice/arch/technology.hpp"
#include "lattice/fault/fault.hpp"
#include "lattice/lgca/gas_model.hpp"
#include "lattice/lgca/lattice.hpp"

namespace lattice::lgca {
class GasRule;
}  // namespace lattice::lgca

namespace lattice::core {

struct MetricsReport;
class BackendExec;

enum class Backend {
  Reference,  // golden double-buffered updater
  Wsa,        // wide-serial pipeline
  Spa,        // Sternberg partitioned machine
  BitPlane,   // multi-spin coded software backend: 64 sites/word,
              // boolean-algebra collisions (HPP, FHP-I/II gases only)
  WsaE,       // extensible WSA (§5): one PE per chip, line buffer
              // off-chip on an external memory channel
  Reference3, // golden gather-and-collide updater for the cubic 3-D
              // gas (Config::depth z-planes; custom rules rejected)
  BitPlane3,  // multi-spin coded 3-D backend: z-slab banding,
              // boolean-algebra collisions of the cubic gas at the
              // dispatched SIMD width
};

/// Whether `backend` runs the cubic 3-D gas over a {nx, ny, nz} volume
/// (carried through the engine as the flat {nx, ny·nz} byte lattice).
constexpr bool backend_is_3d(Backend backend) noexcept {
  return backend == Backend::Reference3 || backend == Backend::BitPlane3;
}

/// What a run cost and what the technology model says about it.
struct PerformanceReport {
  Backend backend = Backend::Reference;
  std::int64_t generations = 0;
  std::int64_t site_updates = 0;
  std::int64_t ticks = 0;               // 0 for the reference backend
  double updates_per_tick = 0;
  double modeled_rate = 0;              // updates/s at tech.clock_hz
  /// Wall-clock seconds this process spent inside advance(), and the
  /// measured software update rate site_updates / wall_seconds. The
  /// modeled rate is what the paper's silicon would sustain; the
  /// measured rate is what this simulator sustains — printing both
  /// keeps the distinction honest (docs/PERFORMANCE.md).
  double wall_seconds = 0;
  double measured_rate = 0;             // updates/s of the simulation
  double bandwidth_bits_per_tick = 0;   // main memory demand
  std::int64_t storage_sites = 0;       // S: site storage in the datapath
  /// Hong–Kung ceiling for this (B, S, d=2): R ≤ B·2τ(2S), in
  /// updates/s. The modeled rate must sit below it.
  double pebbling_rate_ceiling = 0;

  // ---- WSA-E off-chip buffer ledger (zero for other backends) ----

  /// External line-buffer storage across all stages, in sites: the §5
  /// cost the architecture moves off chip, k·(2L + 10).
  std::int64_t offchip_buffer_sites = 0;
  /// Demand on the external buffer channels, bits/tick summed over
  /// stages: k·4·D, the non-stream two thirds of the 6·D pin bill.
  double offchip_buffer_bits_per_tick = 0;
  /// Achieved fraction of that demand after bank conflicts in the
  /// configured buffer parts; 1.0 means the paper's full-bandwidth
  /// assumption holds.
  double buffer_bandwidth_fraction = 0;

  // ---- robustness (all zero unless a fault plan was armed) ----

  std::int64_t faults_injected = 0;   // words altered by the injector
  std::int64_t faults_detected = 0;   // parity + link + conservation hits
  /// Detected faults whose effects were discarded by a rollback — the
  /// corruption never reached a committed generation.
  std::int64_t faults_corrected = 0;
  std::int64_t rollbacks = 0;         // passes discarded and re-run
  std::int64_t checkpoints = 0;       // state snapshots taken
  int remapped_slices = 0;            // stuck chips/plane words retired
  double checkpoint_seconds = 0;      // wall-clock spent snapshotting
  /// Escalations past plain rollback-retry (docs/ROBUSTNESS.md):
  /// checkpoint-interval halvings under repeated faults, and intervals
  /// re-executed on the fault-free reference oracle as the last resort
  /// before CorruptionError.
  std::int64_t interval_shrinks = 0;
  std::int64_t oracle_passes = 0;
  /// Useful work only: generation × area. site_updates also counts
  /// work that was later rolled back and redone.
  std::int64_t committed_updates = 0;
  /// Update rates over committed work — what the machine delivers
  /// *through* faults, rollbacks, and degradation. Equal to
  /// modeled_rate / measured_rate on a fault-free run.
  double effective_rate = 0;          // committed/tick at tech.clock_hz
  double effective_measured_rate = 0; // committed / wall_seconds
};

/// A resumable engine snapshot (see LatticeEngine::checkpoint). For a
/// 3-D engine `state` is the flat {nx, ny·nz} view and `depth` records
/// nz, so restore() and the durable format can reject a snapshot whose
/// volume factorization does not match the target engine.
struct EngineCheckpoint {
  lgca::SiteLattice state;
  std::int64_t generation = 0;
  std::int64_t depth = 1;
};

class LatticeEngine {
 public:
  struct Config {
    Extent extent{64, 64};
    /// z extent (nz) for the 3-D backends: the engine's state becomes
    /// the flat {width, height·depth} byte view of a {width, height,
    /// depth} volume (raster order (z·ny + y)·nx + x — byte-compatible
    /// with lgca3d::Lattice3). Must be 1 for every 2-D backend.
    std::int64_t depth = 1;
    lgca::GasKind gas = lgca::GasKind::FHP_II;
    /// Override: run an arbitrary rule instead of a gas (the engine
    /// does not own it; it must outlive the engine).
    const lgca::Rule* custom_rule = nullptr;
    lgca::Boundary boundary = lgca::Boundary::Null;
    Backend backend = Backend::Reference;
    int pipeline_depth = 1;     // k: generations per pass (hardware backends)
    int wsa_width = 1;          // P
    std::int64_t spa_slice_width = 0;  // W; 0 = pick a divisor near §6.2
    /// Worker threads for the software execution: bands the reference
    /// and bit-plane sweeps, runs SPA slice pipelines as a wavefront.
    /// 1 = serial.
    unsigned threads = 1;
    /// Temporal blocking for the software backends (Reference fused
    /// path and BitPlane): generations computed per cache-resident
    /// trapezoidal tile before the next tile is touched (core/
    /// tile_plan.hpp). 1 = off (today's streaming sweep); 0 = let the
    /// cache model choose; >= 2 = that exact depth when feasible.
    /// Output is bit-identical at any setting. On the guarded
    /// (fault-plan) path the checkpoint cadence quantizes to multiples
    /// of the resolved depth, so a rollback always lands on a tile-
    /// block boundary. Hardware backends ignore this (pipeline_depth
    /// is their temporal blocking).
    int tile_generations = 1;
    arch::Technology tech = arch::Technology::paper1987();
    /// WSA-E only: the external line-buffer parts on each stage's
    /// buffer channel. The default (dual-bank, single-tick cycle)
    /// sustains full bandwidth; slower parts stall the machine and
    /// show up in PerformanceReport::buffer_bandwidth_fraction.
    arch::MemoryConfig wsa_e_buffer{/*banks=*/2, /*bank_busy_ticks=*/1};

    /// Fault scenario. The byte-plan sources (buffer/side/stuck) target
    /// the hardware simulators (WSA / WSA-E / SPA — injection lives in
    /// the simulated buffers and links); the plane-memory sources
    /// (plane_flip/halo_flip/stuck_planes/parity_plane) target the
    /// bit-plane backend's plane words (halo_flip only on rows wide
    /// enough to store guard words, lgca::PlaneLattice::guarded), with
    /// the reference executor mirroring the non-halo subset. Fault-free
    /// by default; an armed plan turns advance() into the guarded
    /// checkpoint/rollback loop below, on executors whose
    /// supports_fault_plan() accepts it.
    fault::FaultPlan fault;
    /// Snapshot the state every this many committed generations; a
    /// detected fault rolls back to the last snapshot and re-runs.
    /// 0 = one checkpoint per pass (pipeline_depth generations). Under
    /// repeated faults the engine shrinks the working interval (see
    /// advance()); it regrows back to this value on clean passes.
    std::int64_t checkpoint_interval = 0;
    /// Consecutive failed retries tolerated before the engine escalates
    /// (shrink the checkpoint interval, degrade the executor, fall back
    /// to the reference oracle) and finally throws CorruptionError.
    int max_retries = 3;
    /// Last escalation rung: when retries, interval shrinking and
    /// executor degradation have all failed, re-execute the poisoned
    /// interval on the fault-free golden reference updater (bit-exact
    /// oracle) instead of throwing. Off by default — an oracle pass
    /// masks a persistent fault the caller may rather hear about.
    bool oracle_fallback = false;
  };

  explicit LatticeEngine(Config config);
  ~LatticeEngine();
  LatticeEngine(LatticeEngine&&) noexcept;
  LatticeEngine& operator=(LatticeEngine&&) noexcept;

  /// Advance the lattice `generations` steps on the configured backend.
  ///
  /// With an armed fault plan this is the guarded loop: snapshot every
  /// checkpoint_interval generations, run each pass under the online
  /// detectors, and on any detection discard the pass, restore the last
  /// snapshot, bump the injector epoch (so transients redraw) and
  /// re-run. After max_retries consecutive failures the engine climbs
  /// an escalation ladder (docs/ROBUSTNESS.md): halve the working
  /// checkpoint interval (less exposure per attempt; it regrows on
  /// clean passes), then ask the executor to degrade (SPA remaps stuck
  /// chips, the bit-plane backend retires stuck plane words), then —
  /// if Config::oracle_fallback — re-execute the poisoned interval on
  /// the fault-free golden reference, and only then throw
  /// fault::CorruptionError.
  void advance(std::int64_t generations);

  /// Snapshot the current state and generation for later restore().
  EngineCheckpoint checkpoint() const {
    return {state_, generation_, config_.depth};
  }

  /// Generation quantum of one executor pass (>= 1): a temporally-tiled
  /// executor commits whole tile blocks, so callers that slice work into
  /// scheduling quanta (the serve layer's SessionManager) round their
  /// quantum up to a multiple of this to keep tiling and guarded
  /// checkpoints intact. 1 for every untiled backend.
  std::int64_t chunk_quantum() const noexcept;

  /// Resume from a snapshot taken on a compatibly-configured engine
  /// (same extent, boundary and depth); throws lattice::Error if the
  /// snapshot does not fit.
  void restore(const EngineCheckpoint& ckpt);

  /// Injector counters so far (all zero when no fault plan is armed).
  fault::FaultCounters fault_counters() const noexcept {
    return injector_ != nullptr ? injector_->counters()
                                : fault::FaultCounters{};
  }

  /// Current lattice state (mutable, e.g. for initialization).
  lgca::SiteLattice& state() noexcept { return state_; }
  const lgca::SiteLattice& state() const noexcept { return state_; }

  const lgca::Rule& rule() const noexcept { return *rule_; }
  const lgca::GasModel& gas_model() const;
  const Config& config() const noexcept { return config_; }
  std::int64_t generation() const noexcept { return generation_; }

  PerformanceReport report() const;

  /// Merge the process-global metrics registry into a structured
  /// report: top-level per-stage times (which sum to roughly the
  /// wall-clock this engine spent inside advance()) plus the raw
  /// counter/gauge/histogram snapshot. Empty phases when the library
  /// was built with -DLATTICE_OBS=OFF. See docs/OBSERVABILITY.md.
  MetricsReport snapshot() const;

  /// Replay the golden reference from `from` (a checkpoint() the
  /// caller took before advancing, on this engine or a compatible one)
  /// up to generation(), and compare with state() — the end-to-end
  /// correctness check for every backend. Throws lattice::Error if
  /// `from` does not fit the engine (see restore()) or lies after
  /// generation(). The engine keeps no history of its own.
  bool verify_against_reference(const EngineCheckpoint& from) const;

 private:
  void run_pass(std::int64_t chunk);
  void advance_guarded(std::int64_t generations);

  Config config_;
  std::unique_ptr<lgca::GasRule> owned_rule_;
  const lgca::Rule* rule_;
  lgca::SiteLattice state_;
  std::int64_t generation_ = 0;
  double wall_seconds_ = 0;

  // recovery machinery; null/zero when the fault plan is unarmed.
  // Declared before exec_ so the executor (which may hold a pointer to
  // the injector) is destroyed first.
  std::unique_ptr<fault::FaultInjector> injector_;
  std::int64_t rollbacks_ = 0;
  std::int64_t checkpoints_ = 0;
  std::int64_t faults_corrected_ = 0;
  double checkpoint_seconds_ = 0;
  /// Working checkpoint interval of the guarded loop: starts at
  /// Config::checkpoint_interval, halves on escalation, regrows on
  /// clean passes.
  std::int64_t interval_ = 0;
  std::int64_t interval_shrinks_ = 0;
  std::int64_t oracle_passes_ = 0;

  /// The backend's executor: owns all backend-specific state (kernels,
  /// persistent pipelines/machines, counters).
  std::unique_ptr<BackendExec> exec_;
};

/// Pick a slice width that divides `width` and is as close as possible
/// to the §6.2 optimum for the technology.
std::int64_t pick_spa_slice_width(const arch::Technology& tech,
                                  std::int64_t width);

}  // namespace lattice::core
