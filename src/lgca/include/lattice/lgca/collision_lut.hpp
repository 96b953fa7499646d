// Fused gather–collide execution of the lattice-gas update.
//
// `GasRule::apply` is the semantic definition: build a 3×3 `Window`,
// loop the channels through `neighbor_offset`, push the gathered state
// through the model's table — with a virtual call per site. That is the
// oracle, not the fast path. `CollisionLut` precomputes everything that
// is constant per (gas, row parity) — the per-channel gather taps
// (dx, dy, channel mask), the center-bit mask, and a private copy of
// both chirality collision tables — so a site update becomes a handful
// of masked loads from raw row pointers plus one table read, exactly
// the paper's "simple at each lattice point" silicon datapath (§3).
//
// Everything here is bit-identical to the reference updater by
// construction and by exhaustive test (all 256 site states × both
// chirality variants × both row parities).

#pragma once

#include <array>
#include <cstdint>

#include "lattice/lgca/gas_model.hpp"
#include "lattice/lgca/lattice.hpp"

namespace lattice::lgca {

class CollisionLut {
 public:
  /// The (immutable, lazily built) singleton for a gas kind.
  static const CollisionLut& get(GasKind kind);

  /// The LUT for `rule` if it is a GasRule, nullptr otherwise — the
  /// one-time fast-path detection used by the engine and simulators.
  static const CollisionLut* try_get(const Rule& rule);

  /// One gather tap: the gathered state collects `bit` from the site at
  /// array offset (dx, dy).
  struct Tap {
    std::int8_t dx = 0;
    std::int8_t dy = 0;
    Site bit = 0;
  };

  const GasModel& model() const noexcept { return *model_; }
  int tap_count() const noexcept { return tap_count_; }
  const std::array<Tap, 6>& taps(bool odd_row) const noexcept {
    return taps_[odd_row ? 1 : 0];
  }

  /// Bits copied straight from the pre-update center site (rest
  /// particle when the model has one, obstacle flag always).
  Site center_mask() const noexcept { return center_mask_; }

  /// Post-collision state, chirality variant 0 or 1. Identical to
  /// GasModel::collide, tabulated locally for cache locality.
  Site collide(Site in, int variant) const noexcept {
    return tables_[static_cast<std::size_t>(variant & 1)][in];
  }

  /// Update columns [x0, x1) of row `y`: write the generation-(t+1)
  /// sites into `next` from the generation-t lattice `cur`, honoring
  /// cur's boundary mode. Bit-identical to GasRule::apply over
  /// cur.window_at for every column in the span.
  void update_span(SiteLattice& next, const SiteLattice& cur, std::int64_t t,
                   std::int64_t y, std::int64_t x0, std::int64_t x1) const;

  /// update_span over full rows [y0, y1).
  void update_rows(SiteLattice& next, const SiteLattice& cur, std::int64_t t,
                   std::int64_t y0, std::int64_t y1) const;

  /// Windowed single-row update for the temporal tiling driver
  /// (temporal_tile.hpp): compute one full row into `next` at storage
  /// row `dst_y` from `cur` centered on storage row `src_y`, where the
  /// two lattices may have different heights (a trapezoid scratch strip
  /// vs the real lattice). `sem_y` is the row's semantic lattice
  /// coordinate — it alone selects the hex-parity tap set and feeds the
  /// chirality hash, so offset (or wrapped) scratch storage reproduces
  /// the golden update bit-exactly. Source rows resolve as src_y +
  /// tap.dy against cur's own height and boundary. update_span with
  /// x0 = 0, x1 = width is exactly this with dst_y == src_y == sem_y.
  void update_span_window(SiteLattice& next, std::int64_t dst_y,
                          const SiteLattice& cur, std::int64_t src_y,
                          std::int64_t sem_y, std::int64_t t) const;

 private:
  explicit CollisionLut(GasKind kind);

  void row_core(SiteLattice& next, std::int64_t dst_y,
                const SiteLattice& cur, std::int64_t src_y,
                std::int64_t sem_y, std::int64_t t, std::int64_t x0,
                std::int64_t x1) const;

  const GasModel* model_;
  int tap_count_;
  Site center_mask_;
  std::array<std::array<Tap, 6>, 2> taps_{};  // [row parity][channel]
  std::array<std::array<Site, 256>, 2> tables_{};
};

/// Advance `lat` by `generations` gas steps on the fused kernel,
/// double-buffered: the scheduler's runner (scheduler.hpp) over byte
/// rows, with min(threads, rows) row bands capped at the shared pool's
/// lanes, each owned by one lane for the run (threads == 1 runs
/// inline). Bit-identical to reference_run with a GasRule of the same
/// kind for any thread count. Chunk-invariant: splitting a run at any
/// generation boundary and resuming with the carried t0 reproduces the
/// continuous run exactly (chirality is a position-time hash of
/// (x, y, t), not stream state), and bands are plain row ranges, since
/// update_span takes any [x0, x1) column span.
void fused_gas_run(SiteLattice& lat, const CollisionLut& lut,
                   std::int64_t generations, std::int64_t t0 = 0,
                   unsigned threads = 1);

}  // namespace lattice::lgca
