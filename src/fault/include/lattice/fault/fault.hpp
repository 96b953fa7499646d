// Fault injection, online error detection, and recovery bookkeeping
// for the architecture simulators.
//
// The paper's throughput analysis assumes perfect silicon; real lattice
// machines suffer transient bit flips in the 2n−2-site line buffers,
// stuck-at PE outputs, and corrupted words on the SPA side channels.
// This module provides:
//
//   FaultPlan     — a seeded, deterministic description of the faults a
//                   run should suffer. Fault-free by default; a plan is
//                   "armed" only when some fault source is non-trivial.
//   FaultInjector — the runtime realization: every injection decision
//                   is a pure hash of (seed, epoch, generation, stream
//                   position), so the same plan replays the same faults
//                   and a rollback retry (which bumps the epoch) redraws
//                   the transient ones. Counters record what was
//                   injected and what the detectors caught.
//   StageAudit    — the per-stage conservation ledger: LGCA collisions
//                   conserve particles exactly, so a pipeline stage must
//                   satisfy  out_mass == in_mass − outflow  where
//                   outflow counts particles whose streaming destination
//                   lies outside the lattice (null boundaries drain, but
//                   by an exactly computable amount). Obstacle bits are
//                   static geometry and must balance on their own.
//   audit_chain   — the pass-level check over those ledgers that WSA,
//                   WSA-E and SPA share: each generation stores what
//                   the previous one emitted, and balances.
//   CorruptionError — thrown by the engine when the bounded retry
//                   budget is exhausted; carries the counter snapshot.
//
// Detection mechanisms and their guarantees are documented in
// docs/ROBUSTNESS.md. The simulators call the injector only when a
// non-null pointer is armed, so the fault-free fast paths stay intact.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lattice/common/error.hpp"
#include "lattice/lgca/geometry.hpp"
#include "lattice/lgca/lattice.hpp"
#include "lattice/lgca/site.hpp"
#include "lattice/obs/metrics.hpp"

namespace lattice::fault {

/// A persistently failed processing element: every output word of the
/// given (stage, lane) is forced through `v' = (v & and_mask) | or_mask`.
/// WSA: stage = chip index in the chain, lane = PE index within the
/// P-wide stage. SPA: stage = depth index, lane = slice index.
struct StuckAt {
  int stage = 0;
  std::int64_t lane = 0;
  lgca::Site or_mask = 0;      // bits forced high
  lgca::Site and_mask = 0xFF;  // bits forced low where cleared
};

/// A persistently failed plane-memory word in the bit-plane backend:
/// every read of plane `plane` at global word position `word` (row-major
/// y * words_per_row + k, *lattice* coordinates, so the same plan hits
/// the same sites on every backend and SIMD level) is forced through
/// `w' = (w & and_mask) | or_mask`. Models a stuck DRAM column in
/// CAM-8-style plane-resident site memory.
struct StuckPlaneWord {
  int plane = 0;
  std::int64_t word = 0;
  std::uint64_t or_mask = 0;
  std::uint64_t and_mask = ~std::uint64_t{0};
};

/// Deterministic fault scenario. Default-constructed plans are
/// fault-free and cost nothing.
struct FaultPlan {
  std::uint64_t seed = 0;

  /// Transient single-bit flip probability per stored site-update word
  /// (WSA line buffers, SPA slice buffers).
  double buffer_flip_rate = 0;

  /// SPA side channels, per transferred word: single-bit corruption in
  /// transit, and whole-word drop (a framing error; the receiver sees
  /// an empty word).
  double side_flip_rate = 0;
  double side_drop_rate = 0;

  /// Persistently failed PEs.
  std::vector<StuckAt> stuck;

  /// Bit-plane backend plane memory, per (generation, word-column):
  /// transient single-bit flip probability in a stored plane word. Keyed
  /// by global lattice coordinates, so reference, scalar64, AVX2 and
  /// AVX-512 all draw the identical fault set for a given plan.
  double plane_flip_rate = 0;

  /// Shift-halo guard words, per (generation, row): transient single-bit
  /// flip probability in the left/right guard of a halo plane. Only the
  /// bit-plane backend has a halo representation to corrupt, and only
  /// on wide rows (lgca::PlaneLattice::guarded): compact rows store no
  /// guard words, so a plan arming this on them is refused.
  double halo_flip_rate = 0;

  /// Persistently failed plane-memory words.
  std::vector<StuckPlaneWord> stuck_planes;

  /// Maintain and verify a parity-shadow plane (XOR of all eight planes
  /// per word) during armed bit-plane runs. A detector, not a fault: it
  /// catches any corruption of a single plane word regardless of whether
  /// the per-plane population ledger balances. Costs one extra plane of
  /// traffic, so it is opt-in (soak runs).
  bool parity_plane = false;

  bool armed() const noexcept {
    return arms_machine_memory() || arms_plane_memory();
  }

  /// Fault sources realized by the byte-pipeline machine simulators
  /// (WSA / SPA / WSA-E line buffers, side channels, PEs).
  bool arms_machine_memory() const noexcept {
    return buffer_flip_rate > 0 || side_flip_rate > 0 || side_drop_rate > 0 ||
           !stuck.empty();
  }

  /// Fault sources (and detectors) realized against plane-word site
  /// memory (bit-plane backend; the reference executor mirrors the
  /// non-halo subset in site space).
  bool arms_plane_memory() const noexcept {
    return plane_flip_rate > 0 || halo_flip_rate > 0 ||
           !stuck_planes.empty() || parity_plane;
  }
};

/// What was injected and what the online detectors caught.
struct FaultCounters {
  std::int64_t injected_flips = 0;  // buffer words corrupted
  std::int64_t injected_stuck = 0;  // words altered by stuck PEs / planes
  std::int64_t injected_side = 0;   // side-channel words corrupted/dropped
  std::int64_t injected_plane = 0;  // plane/halo words with transient flips

  std::int64_t detected_parity = 0;        // buffer parity mismatches
  std::int64_t detected_side = 0;          // link parity / framing errors
  std::int64_t detected_conservation = 0;  // particle-ledger violations
  std::int64_t detected_ledger = 0;        // per-plane population mismatches
  std::int64_t detected_canary = 0;        // halo guard canary mismatches
  std::int64_t detected_shadow = 0;        // parity-shadow plane mismatches

  std::int64_t injected() const noexcept {
    return injected_flips + injected_stuck + injected_side + injected_plane;
  }
  std::int64_t detected() const noexcept {
    return detected_parity + detected_side + detected_conservation +
           detected_ledger + detected_canary + detected_shadow;
  }
};

/// Raised when recovery gives up: the retry budget is exhausted and no
/// degradation path remains.
class CorruptionError : public Error {
 public:
  CorruptionError(const std::string& what, const FaultCounters& counters)
      : Error(what), counters_(counters) {}

  const FaultCounters& counters() const noexcept { return counters_; }

 private:
  FaultCounters counters_;
};

/// Per-stage particle ledger, maintained by a stage only while a fault
/// injector is attached (and only for gas rules, whose collisions
/// conserve mass). All quantities are accumulated from the *true* bus
/// values on the input side and the *emitted* (post-stuck) values on
/// the output side, so any corruption between those points unbalances
/// the ledger.
struct StageAudit {
  bool valid = false;  // conservation is only defined for gas rules
  std::int64_t in_mass = 0;
  std::int64_t out_mass = 0;
  std::int64_t outflow = 0;  // particles streaming off the lattice edge
  std::int64_t in_obstacles = 0;
  std::int64_t out_obstacles = 0;

  /// Collision conservation + static geometry, per generation.
  bool balanced() const noexcept {
    return !valid || (out_mass == in_mass - outflow &&
                      out_obstacles == in_obstacles);
  }

  StageAudit& operator+=(const StageAudit& o) noexcept {
    valid = valid || o.valid;
    in_mass += o.in_mass;
    out_mass += o.out_mass;
    outflow += o.outflow;
    in_obstacles += o.in_obstacles;
    out_obstacles += o.out_obstacles;
    return *this;
  }
};

/// Particles of `v` at lattice coordinate `c` whose streaming
/// destination lies outside `lattice` — the exact per-site edge drain
/// of the null-boundary update.
int site_outflow(lgca::Site v, Coord c, Extent lattice,
                 lgca::Topology topo) noexcept;

/// Runtime fault source shared by the simulators of one engine. The
/// byte-pipeline methods (corrupt_stored, corrupt_side_word, apply_stuck)
/// are not thread-safe: armed runs execute on the cycle-exact (serial)
/// machine models, which is where the simulated buffers live. The
/// plane-memory methods (draw_*, note_*, report_* for ledger / canary /
/// shadow) ARE thread-safe — detection runs inside the bit-plane
/// backend's row bands — with relaxed atomic counter updates.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const noexcept { return plan_; }

  /// True while any fault source remains active (stuck PEs disabled by
  /// remapping no longer count).
  bool armed() const noexcept;

  /// Rollback boundary: transient fault draws are keyed by the epoch,
  /// so a retry of the same generations redraws them.
  void bump_epoch() noexcept { ++epoch_; }
  std::uint64_t epoch() const noexcept { return epoch_; }

  // ---- injection (called by the simulators) ----

  /// Possibly flip one bit of the word stored for the site update at
  /// (generation t, stream position pos). Deterministic in
  /// (seed, epoch, t, pos).
  lgca::Site corrupt_stored(std::int64_t t, std::int64_t pos,
                            lgca::Site v) noexcept;

  /// Possibly corrupt or drop a side-channel word in transit. `key`
  /// must be unique per transfer within a generation.
  lgca::Site corrupt_side_word(std::int64_t t, std::int64_t key,
                               lgca::Site v) noexcept;

  /// Apply any active stuck-at masks for (stage, lane).
  lgca::Site apply_stuck(int stage, std::int64_t lane, lgca::Site v) noexcept;

  /// True if any active stuck-at fault targets this stage/lane pair —
  /// lets hot loops skip the mask scan.
  bool has_stuck() const noexcept {
    return !stuck_disabled_ && !plan_.stuck.empty();
  }

  // ---- plane-memory injection (bit-plane backend + reference oracle) ----
  // Draws are pure functions of (seed, epoch, t, position), like
  // corrupt_stored, but drawing and accounting are split: the caller
  // masks the returned flip against the lattice tail (a draw landing in
  // column padding injects nothing, identically on every backend) and
  // then notes what it actually applied.

  /// Flip mask for the plane word at global position `word` (row-major
  /// y * words_per_row + k) read at generation t. Returns 0 (the common
  /// case) or a single-bit mask; *plane receives the target plane.
  std::uint64_t draw_plane_flip(std::int64_t t, std::int64_t word,
                                int* plane) const noexcept;

  /// Flip mask for a shift-halo guard word of `row` read at generation
  /// t. *plane_sel is a raw 3-bit selector the caller maps onto its halo
  /// plane set; *left picks the guard (true = index -1, false = index
  /// words_per_row).
  std::uint64_t draw_halo_flip(std::int64_t t, std::int64_t row,
                               int* plane_sel, bool* left) const noexcept;

  /// Active stuck plane-word masks; empty once degrade retired them.
  const std::vector<StuckPlaneWord>& stuck_planes() const noexcept {
    static const std::vector<StuckPlaneWord> kNone;
    return stuck_planes_disabled_ ? kNone : plan_.stuck_planes;
  }
  bool has_stuck_planes() const noexcept {
    return !stuck_planes_disabled_ && !plan_.stuck_planes.empty();
  }

  /// Counter bumps for plane faults the caller applied (thread-safe).
  void note_plane_faults(std::int64_t n) noexcept;
  void note_stuck_planes(std::int64_t n) noexcept;

  // ---- detection reporting (called by the simulators' checkers) ----
  // Each report lands both in this injector's counters (the engine's
  // rollback logic keys off those) and in the global metrics registry
  // as fault.detected.* (docs/OBSERVABILITY.md).

  void report_parity_error() noexcept {
    ++counters_.detected_parity;
    obs::count(obs_.detected_parity, 1);
  }
  void report_side_error() noexcept {
    ++counters_.detected_side;
    obs::count(obs_.detected_side, 1);
  }
  void report_conservation_error() noexcept {
    ++counters_.detected_conservation;
    obs::count(obs_.detected_conservation, 1);
  }

  // Plane-memory detector reports; thread-safe (called from row bands).
  void report_ledger_error(std::int64_t n = 1) noexcept;
  void report_canary_error(std::int64_t n = 1) noexcept;
  void report_shadow_error(std::int64_t n = 1) noexcept;

  // ---- graceful degradation ----

  /// Take all stuck PEs out of the datapath (the SPA remaps a failed
  /// slice's columns onto the surviving pipelines). Returns the number
  /// of distinct lanes removed; they stop injecting from now on.
  int disable_stuck() noexcept;

  /// Take all stuck plane-memory words out of service (the bit-plane
  /// backend's degrade step: the modeled machine remaps the failed DRAM
  /// columns onto spares). Returns the number of distinct (plane, word)
  /// cells retired.
  int disable_stuck_planes() noexcept;

  /// Distinct lanes/plane words removed by the disable_* calls so far.
  int remapped_lanes() const noexcept { return remapped_lanes_; }

  const FaultCounters& counters() const noexcept { return counters_; }

 private:
  /// Registry ids for the fault.* metrics, resolved once per injector
  /// (all kInvalidId in LATTICE_OBS_ENABLED=0 builds).
  struct ObsIds {
    obs::MetricsRegistry::Id injected_flips = obs::MetricsRegistry::kInvalidId;
    obs::MetricsRegistry::Id injected_stuck = obs::MetricsRegistry::kInvalidId;
    obs::MetricsRegistry::Id injected_side = obs::MetricsRegistry::kInvalidId;
    obs::MetricsRegistry::Id detected_parity =
        obs::MetricsRegistry::kInvalidId;
    obs::MetricsRegistry::Id detected_side = obs::MetricsRegistry::kInvalidId;
    obs::MetricsRegistry::Id detected_conservation =
        obs::MetricsRegistry::kInvalidId;
    obs::MetricsRegistry::Id injected_plane = obs::MetricsRegistry::kInvalidId;
    obs::MetricsRegistry::Id detected_ledger = obs::MetricsRegistry::kInvalidId;
    obs::MetricsRegistry::Id detected_canary = obs::MetricsRegistry::kInvalidId;
    obs::MetricsRegistry::Id detected_shadow = obs::MetricsRegistry::kInvalidId;
    obs::MetricsRegistry::Id remapped = obs::MetricsRegistry::kInvalidId;
  };

  FaultPlan plan_;
  std::uint64_t epoch_ = 0;
  bool stuck_disabled_ = false;
  bool stuck_planes_disabled_ = false;
  int remapped_lanes_ = 0;
  FaultCounters counters_;
  ObsIds obs_;
};

/// The conservation audit of one pass through a pipelined machine:
/// generation d must store exactly what generation d-1 emitted (the
/// first stores `in`), and each generation's ledger must balance.
/// `per_generation` holds one ledger per generation of the pass, in
/// order (a WSA stage's, or a depth's summed over SPA slices). Ledgers
/// are only kept for gas rules; a chain of invalid ones is skipped.
/// Every violation is reported as a conservation error.
void audit_chain(const lgca::SiteLattice& in,
                 const std::vector<StageAudit>& per_generation,
                 FaultInjector& injector);

}  // namespace lattice::fault
