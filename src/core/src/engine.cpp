#include "lattice/core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "lattice/arch/design_space.hpp"
#include "lattice/core/backend_exec.hpp"
#include "lattice/core/metrics_report.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/plane_lattice.hpp"
#include "lattice/obs/metrics.hpp"
#include "lattice/obs/trace.hpp"
#include "lattice/pebble/bounds.hpp"
#include "volume3.hpp"

namespace lattice::core {

namespace {

// Resolve the extent of the engine's state buffers. A 3-D backend
// carries the {nx, ny, nz} volume as its flat {nx, ny·nz} byte view
// (validated as a volume first, so hostile extents fail with a typed
// error before any allocation); every 2-D backend requires depth == 1.
Extent engine_state_extent(const LatticeEngine::Config& config) {
  LATTICE_REQUIRE(config.depth >= 1, "depth must be >= 1");
  if (backend_is_3d(config.backend)) {
    lgca3d::validate_extent3(detail::extent3_of(config));
    return lgca3d::flat_extent(detail::extent3_of(config));
  }
  LATTICE_REQUIRE(config.depth == 1,
                  "depth > 1 needs a 3-D backend (Reference3 or BitPlane3)");
  return config.extent;
}

// Resolved once; the engine's hot loop then only touches atomics. The
// per-backend pass histograms live with the executors (each BackendExec
// owns its engine.pass.<name>_ns id); what remains here is the
// backend-independent accounting.
struct EngineObs {
  obs::MetricsRegistry::Id generations = obs::counter_id("engine.generations");
  obs::MetricsRegistry::Id site_updates =
      obs::counter_id("engine.site_updates");
  obs::MetricsRegistry::Id rollbacks = obs::counter_id("engine.rollbacks");
  obs::MetricsRegistry::Id replays = obs::counter_id("engine.replays");
  obs::MetricsRegistry::Id checkpoints = obs::counter_id("engine.checkpoints");
  obs::MetricsRegistry::Id interval_shrinks =
      obs::counter_id("engine.interval_shrinks");
  obs::MetricsRegistry::Id oracle_passes =
      obs::counter_id("engine.oracle_passes");
  obs::MetricsRegistry::Id checkpoint_ns =
      obs::histogram_id("engine.checkpoint_ns");
  obs::MetricsRegistry::Id restore_ns = obs::histogram_id("engine.restore_ns");
  static const EngineObs& get() {
    static const EngineObs ids;
    return ids;
  }
};

// The fit restore() and verify_against_reference() both demand of a
// snapshot: the engine's extent, boundary and depth (the same flat
// byte count can factor into different volumes), and a real generation.
void require_fits(const EngineCheckpoint& ckpt, const lgca::SiteLattice& state,
                  std::int64_t depth) {
  LATTICE_REQUIRE(ckpt.state.extent() == state.extent(),
                  "checkpoint extent does not match the engine");
  LATTICE_REQUIRE(ckpt.state.boundary() == state.boundary(),
                  "checkpoint boundary mode does not match the engine");
  LATTICE_REQUIRE(ckpt.depth == depth,
                  "checkpoint depth does not match the engine: the same "
                  "flat byte count can factor into different volumes");
  LATTICE_REQUIRE(ckpt.generation >= 0, "checkpoint generation must be >= 0");
}

}  // namespace

std::int64_t pick_spa_slice_width(const arch::Technology& tech,
                                  std::int64_t width) {
  LATTICE_REQUIRE(width >= 2, "lattice width must be >= 2");
  const double target = arch::spa::corner(tech).slice_width;
  std::int64_t best = width;  // single slice always divides
  double best_gap = std::abs(static_cast<double>(width) - target);
  for (std::int64_t w = 2; w <= width; ++w) {
    if (width % w != 0) continue;
    const double gap = std::abs(static_cast<double>(w) - target);
    if (gap < best_gap) {
      best = w;
      best_gap = gap;
    }
  }
  return best;
}

LatticeEngine::LatticeEngine(Config config)
    : config_(config),
      state_(engine_state_extent(config), config.boundary) {
  LATTICE_REQUIRE(config_.pipeline_depth >= 1, "pipeline depth must be >= 1");
  if (config_.custom_rule != nullptr) {
    rule_ = config_.custom_rule;
  } else {
    owned_rule_ = std::make_unique<lgca::GasRule>(config_.gas);
    rule_ = owned_rule_.get();
  }
  if (config_.threads == 0) config_.threads = 1;
  LATTICE_REQUIRE(config_.checkpoint_interval >= 0,
                  "checkpoint interval must be >= 0");
  LATTICE_REQUIRE(config_.max_retries >= 0, "max retries must be >= 0");
  LATTICE_REQUIRE(config_.tile_generations >= 0,
                  "tile generations must be >= 0 (0 = auto, 1 = off)");
  if (config_.fault.armed()) {
    injector_ = std::make_unique<fault::FaultInjector>(config_.fault);
  }
  // Everything backend-specific — kernel detection, slice-width
  // defaulting, boundary requirements, persistent pipelines — lives in
  // the executor. The factory may normalize config_ in place.
  exec_ = make_backend_exec(config_, *rule_, injector_.get());
  LATTICE_REQUIRE(
      injector_ == nullptr || exec_->supports_fault_plan(config_.fault),
      "this backend cannot realize the armed fault plan: the byte-plan "
      "sources (buffer/side/stuck) need a hardware simulator's buffers "
      "and links, the plane-memory sources (plane_flip/halo_flip/"
      "stuck_planes/parity_plane) need the bit-plane backend (the "
      "reference executor mirrors the non-halo subset), and halo_flip "
      "needs guarded rows, width >= " +
          std::to_string(lgca::PlaneLattice::kMinGuardedWidth));
  if (injector_ != nullptr) {
    // The interval defaults after executor creation so it can quantize
    // to the executor's pass quantum: a temporally-tiled pass commits
    // whole tile blocks, so checkpoints must land on block boundaries.
    if (config_.checkpoint_interval == 0) {
      config_.checkpoint_interval = config_.pipeline_depth;
    }
    const std::int64_t quantum = std::max<std::int64_t>(
        std::int64_t{1}, exec_->chunk_quantum());
    config_.checkpoint_interval =
        (config_.checkpoint_interval + quantum - 1) / quantum * quantum;
    interval_ = config_.checkpoint_interval;
  }
}

LatticeEngine::~LatticeEngine() = default;
LatticeEngine::LatticeEngine(LatticeEngine&&) noexcept = default;
LatticeEngine& LatticeEngine::operator=(LatticeEngine&&) noexcept = default;

const lgca::GasModel& LatticeEngine::gas_model() const {
  LATTICE_REQUIRE(owned_rule_ != nullptr,
                  "engine was configured with a custom rule, not a gas");
  return owned_rule_->model();
}

void LatticeEngine::run_pass(std::int64_t chunk) {
  const obs::TraceSpan span("engine.pass");
  const obs::ScopedTimer pass_timer(exec_->pass_histogram());
  exec_->run_pass(state_, chunk, generation_);
}

void LatticeEngine::advance(std::int64_t generations) {
  LATTICE_REQUIRE(generations >= 0, "generations must be >= 0");
  const obs::TraceSpan span("engine.advance");
  const std::int64_t updates_before = exec_->stats().site_updates;
  const auto start = std::chrono::steady_clock::now();
  if (injector_ != nullptr) {
    advance_guarded(generations);
  } else {
    std::int64_t left = generations;
    while (left > 0) {
      const std::int64_t chunk = exec_->max_chunk(left);
      run_pass(chunk);
      generation_ += chunk;
      left -= chunk;
    }
  }
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  obs::count(EngineObs::get().generations, generations);
  obs::count(EngineObs::get().site_updates,
             exec_->stats().site_updates - updates_before);
}

// The guarded loop: every pass runs under the online detectors; any
// detection discards the pass's output — the machine's time is spent
// (ticks and site_updates keep counting, as the silicon would), but no
// corrupted generation is ever committed. Re-execution is exact: the
// injector's epoch is bumped so transient draws differ, while stuck
// faults (persistent silicon) replay until an escalation removes them.
//
// Escalation ladder, climbed after max_retries consecutive dirty
// attempts at the same checkpoint (each rung resets the retry budget):
//   1. shrink — halve the working checkpoint interval, down to one
//      generation per attempt: less exposure per attempt, so a retry
//      under a high transient rate actually has a chance to commit.
//      Clean passes regrow the interval back to the configured value.
//   2. degrade — the executor reconfigures around a persistent fault
//      (SPA remaps stuck chips; the bit-plane backend retires stuck
//      plane words onto spares).
//   3. oracle — if Config::oracle_fallback, re-execute the poisoned
//      interval on the fault-free golden reference updater and resume
//      on the fast backend from its (bit-exact) output.
//   4. give up — throw CorruptionError with the counter snapshot.
void LatticeEngine::advance_guarded(std::int64_t generations) {
  const std::int64_t target = generation_ + generations;
  EngineCheckpoint ckpt{state_, generation_};
  const auto snapshot = [&] {
    const obs::TraceSpan span("engine.checkpoint");
    const obs::ScopedTimer timer(EngineObs::get().checkpoint_ns);
    const auto t0 = std::chrono::steady_clock::now();
    ckpt.state = state_;
    ckpt.generation = generation_;
    checkpoint_seconds_ += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    ++checkpoints_;
    obs::count(EngineObs::get().checkpoints, 1);
  };
  ++checkpoints_;  // the entry snapshot above
  obs::count(EngineObs::get().checkpoints, 1);
  // Pass quantum: a temporally-tiled executor commits whole tile
  // blocks, so every attempted chunk is rounded up to a block multiple
  // (capped by the remaining work — the final partial block is the one
  // place a short block is allowed, and the tiled drivers handle it).
  const std::int64_t quantum =
      std::max<std::int64_t>(std::int64_t{1}, exec_->chunk_quantum());
  int attempts = 0;
  while (generation_ < target) {
    std::int64_t chunk = std::min<std::int64_t>(
        std::min<std::int64_t>(target - generation_, config_.pipeline_depth),
        interval_);
    if (quantum > 1) {
      chunk = std::min(target - generation_,
                       (chunk + quantum - 1) / quantum * quantum);
    }
    const std::int64_t before = injector_->counters().detected();
    run_pass(chunk);
    const std::int64_t after = injector_->counters().detected();
    if (after == before) {
      generation_ += chunk;
      attempts = 0;
      // The snapshot test uses the interval this pass ran at. Regrowing
      // first would let a clean pass at a shrunken interval go
      // unsnapshotted, and the next, longer pass — which a fault that
      // only deeper passes reach fails again — would roll it back with
      // a fresh retry budget, forever.
      if (generation_ - ckpt.generation >= interval_ &&
          generation_ < target) {
        snapshot();
      }
      if (interval_ < config_.checkpoint_interval) {
        interval_ = std::min(config_.checkpoint_interval, interval_ * 2);
      }
      continue;
    }
    // A detector fired: everything since the last checkpoint is suspect.
    ++rollbacks_;
    faults_corrected_ += after - before;
    {
      const obs::TraceSpan rb_span("engine.rollback");
      const obs::ScopedTimer timer(EngineObs::get().restore_ns);
      state_ = ckpt.state;
      generation_ = ckpt.generation;
    }
    obs::count(EngineObs::get().rollbacks, 1);
    obs::count(EngineObs::get().replays, 1);
    injector_->bump_epoch();
    if (++attempts > config_.max_retries) {
      attempts = 0;
      if (interval_ > quantum) {
        // Halve, but stay on the pass quantum (identical to a plain
        // halving when the quantum is 1): less exposure per attempt
        // without ever splitting a tile block.
        interval_ = std::max(
            quantum, (interval_ / 2 + quantum - 1) / quantum * quantum);
        ++interval_shrinks_;
        obs::count(EngineObs::get().interval_shrinks, 1);
        continue;
      }
      if (exec_->try_degrade()) continue;
      if (config_.oracle_fallback) {
        const obs::TraceSpan oracle_span("engine.oracle");
        detail::golden_run(state_, config_, *rule_, chunk, generation_);
        generation_ += chunk;
        ++oracle_passes_;
        obs::count(EngineObs::get().oracle_passes, 1);
        if (generation_ < target) snapshot();
        continue;
      }
      throw fault::CorruptionError(
          "fault recovery failed at generation " +
              std::to_string(generation_) + ": " +
              std::to_string(config_.max_retries) +
              " retries exhausted and no degradation path remains",
          injector_->counters());
    }
  }
}

std::int64_t LatticeEngine::chunk_quantum() const noexcept {
  return std::max<std::int64_t>(std::int64_t{1}, exec_->chunk_quantum());
}

// Untimed: engine.restore_ns is a phase of advance() (the guarded
// loop's rollbacks), and a caller's restore() lies outside advance()'s
// wall clock.
void LatticeEngine::restore(const EngineCheckpoint& ckpt) {
  require_fits(ckpt, state_, config_.depth);
  state_ = ckpt.state;
  generation_ = ckpt.generation;
}

PerformanceReport LatticeEngine::report() const {
  const ExecStats& es = exec_->stats();
  PerformanceReport r;
  r.backend = config_.backend;
  r.generations = generation_;
  r.site_updates = es.site_updates;
  r.ticks = es.ticks;
  r.updates_per_tick = es.ticks > 0
                           ? static_cast<double>(es.site_updates) /
                                 static_cast<double>(es.ticks)
                           : 0.0;
  r.modeled_rate = r.updates_per_tick * config_.tech.clock_hz;
  r.wall_seconds = wall_seconds_;
  r.measured_rate = wall_seconds_ > 0
                        ? static_cast<double>(es.site_updates) / wall_seconds_
                        : 0.0;
  r.storage_sites = es.buffer_sites;

  // Backend-specific fields: bandwidth demand, off-chip buffer ledger.
  exec_->fill_report(r);

  if (r.bandwidth_bits_per_tick > 0 && r.storage_sites > 0) {
    // B in site values per second; d follows the lattice the backend
    // actually runs (the 3-D backends report against the S^(1/3) law).
    const double bw_sites = r.bandwidth_bits_per_tick /
                            config_.tech.bits_per_site * config_.tech.clock_hz;
    const int dim =
        backend_is_3d(config_.backend) ? 3 : pebble::kEngineLatticeDim;
    r.pebbling_rate_ceiling = pebble::update_rate_upper(
        dim, static_cast<double>(r.storage_sites), bw_sites);
  }

  // Robustness accounting. committed_updates counts only generations
  // that survived the detectors; on a fault-free run it equals
  // site_updates and the effective rates collapse onto the plain ones.
  r.committed_updates = generation_ * state_.extent().area();
  r.effective_rate = es.ticks > 0
                         ? static_cast<double>(r.committed_updates) /
                               static_cast<double>(es.ticks) *
                               config_.tech.clock_hz
                         : 0.0;
  r.effective_measured_rate =
      wall_seconds_ > 0
          ? static_cast<double>(r.committed_updates) / wall_seconds_
          : 0.0;
  if (injector_ != nullptr) {
    const fault::FaultCounters& c = injector_->counters();
    r.faults_injected = c.injected();
    r.faults_detected = c.detected();
    r.faults_corrected = faults_corrected_;
    r.rollbacks = rollbacks_;
    r.checkpoints = checkpoints_;
    r.remapped_slices = injector_->remapped_lanes();
    r.checkpoint_seconds = checkpoint_seconds_;
    r.interval_shrinks = interval_shrinks_;
    r.oracle_passes = oracle_passes_;
  }
  return r;
}

MetricsReport LatticeEngine::snapshot() const {
  return build_metrics_report(wall_seconds_, exec_->pass_phase());
}

bool LatticeEngine::verify_against_reference(
    const EngineCheckpoint& from) const {
  require_fits(from, state_, config_.depth);
  LATTICE_REQUIRE(from.generation <= generation_,
                  "checkpoint lies after the engine's generation");
  lgca::SiteLattice replay = from.state;
  detail::golden_run(replay, config_, *rule_, generation_ - from.generation,
                     from.generation);
  return replay == state_;
}

}  // namespace lattice::core
