// Bit-parallel lattice-gas update over PlaneLattice bit-planes.
//
// Where CollisionLut replaces the semantic oracle's window build with a
// fused gather + one 256-entry table read per site, PlaneKernel goes
// one level further: it evaluates the collision rules themselves as
// boolean algebra on whole words of sites. Propagation is a funnel
// shift per channel plane (branch-free: a wide row reads its guard-word
// halo, a compact row selects its wrapped word per position),
// collision is a fixed expression of ANDs/ORs/NOTs derived from the
// exact-configuration structure of the HPP and FHP rules, and the
// chirality variants arrive a word at a time (GasModel::chirality_word,
// one hash per 64 sites), so no step of the FHP update is per site
// (docs/PERFORMANCE.md has the cost model).
//
// The word width is ISA-dispatched at runtime (plane_simd.hpp): the
// boolean algebra is written once (src/lgca/src/plane_span.inc) over a
// word type and runs on 64-bit scalar words, 256-bit AVX2 vectors (4
// words per op), or 512-bit AVX-512 vectors (8 words per op). All
// variants are bit-identical; the scalar path is always compiled in
// and handles the remainder + masked tail word even when a vector path
// runs the bulk.
//
// The span covers rows two ways, and the shape alone picks which. A
// row of at least PlaneLattice::kRowPad payload words is a row span,
// swept in column tiles, its shifts reading the guard halo. A band of
// compact rows (fewer words, stored dense at stride = words) is one
// run: every row whose taps stay inside the lattice — all but its
// first and last row — in one span call over their words, tap (dx, dy)
// an offset dy · words plus the funnel shift, the row's other end
// shifted in where a shift crosses a row end (zero under Null), and
// the hex diagonals' shift picked per word by row parity. Such a band
// fills whole vector blocks where a one-word row would leave all of
// itself to the scalar tail, and pays the span's setup once instead of
// per row. The lattice's edge rows and the trapezoid tile step's
// window rows are one-row runs with their taps resolved, so a compact
// lattice makes no row-span call and has no halo to fill.
//
// The runners declared here (and the tiled ones in temporal_tile.hpp)
// are instances of the one runner of the band/trapezoid scheduler
// (lattice/lgca/scheduler.hpp) with a row as the unit; the 3-D runners
// are the same runner with a z-plane as the unit. Parallelism is
// static band ownership: at most `threads` contiguous row bands, each
// owned by one pool lane for the whole run, with one rendezvous per
// generation. A grain-size floor collapses the band count (down to an
// inline single band) when per-generation work is too small to pay
// for the rendezvous, so thread scaling is monotone — more threads
// never run slower than fewer (docs/ARCHITECTURE.md, "Threading
// contract").
//
// Supported gases: HPP, FHP-I, FHP-II. FHP-III's collision table is a
// cyclic permutation of (mass, momentum) equivalence classes and has no
// compact boolean form; it keeps the byte-LUT path. Everything here is
// bit-identical to GasModel::collide / the golden reference updater —
// by construction, and by exhaustive test (all 256 site states × both
// chirality variants × every compiled SIMD level, plus multi-generation
// lattice parity).

#pragma once

#include <array>
#include <cstdint>

#include "lattice/lgca/gas_model.hpp"
#include "lattice/lgca/plane_lattice.hpp"

namespace lattice::lgca {

struct PlaneSpanOps;
struct SpanRun;

/// Grain floor for the band scheduler: a row band must own at least
/// this many payload words of one plane per generation, or the planner
/// merges bands. 16384 words ≈ 1 Mi sites ≈ hundreds of µs of kernel
/// work per generation — an order of magnitude above a barrier
/// rendezvous, so a band is never synchronization-bound and sub-
/// megasite lattices run single-band regardless of Config::threads.
inline constexpr std::int64_t kDefaultBandGrainWords = 16384;

class PlaneKernel {
 public:
  /// True when `kind` has a boolean-algebra kernel (HPP, FHP-I/II).
  static bool supports(GasKind kind) noexcept;

  /// The (immutable, lazily built) singleton for a supported gas kind;
  /// throws lattice::Error for unsupported kinds (FHP-III).
  static const PlaneKernel& get(GasKind kind);

  /// The kernel for `rule` if it is a GasRule of a supported kind,
  /// nullptr otherwise — mirrors CollisionLut::try_get.
  static const PlaneKernel* try_get(const Rule& rule);

  const GasModel& model() const noexcept { return *model_; }
  GasKind kind() const noexcept { return model_->kind(); }

  /// Bitmask (bit p = plane p) of the planes the update writes: the
  /// gas's moving channels, plus the rest plane when it has rest
  /// particles. The complement is static for a whole run — HPP's
  /// unused channels 4/5, an absent rest plane, the obstacle mask —
  /// and is established once by prime_static_planes() instead of being
  /// re-stored every word of every generation.
  std::uint32_t written_planes() const noexcept { return written_; }

  /// Bitmask of the planes the update gathers with a column shift
  /// (tap dx != 0 on either row parity) — the only planes whose shift
  /// halo (on wide rows) must be current before update_rows reads
  /// them. Rest and
  /// obstacle are always read unshifted; for HPP even the N/S channel
  /// planes drop out, leaving just E/W.
  std::uint32_t halo_planes() const noexcept { return halo_; }

  /// One-time setup for a double-buffered run: zeroes this gas's
  /// static-zero planes in `lat` (the kernel no longer clears them per
  /// word, and after swaps the original buffer resurfaces as output)
  /// and copies the obstacle plane into `next`, tail-masked. After
  /// this, both buffers agree on every plane outside written_planes()
  /// for the rest of the run.
  void prime_static_planes(PlaneLattice& lat, PlaneLattice& next) const;

  /// Compute generation-(t+1) rows [y0, y1) of `next` from the
  /// generation-t lattice `cur`, whose shift halo (wide rows) must have
  /// been prepared for halo_planes() (PlaneLattice::prepare_shift_halo),
  /// and whose static planes must have been primed. Wide rows are
  /// column-tiled so the three source row strips plus the destination
  /// strip stay cache resident; tile_words == 0 picks the default
  /// L2-sized tile. Compact rows run as one run (the header comment),
  /// which tile_words does not split. On return the produced wide rows
  /// of `next` are halo-ready for the following generation — the fill
  /// happens here, band-locally and cache-hot, rather than as a serial
  /// full-lattice walk between generations. Runs at the
  /// process-wide active SIMD level (plane_simd_active). Bit-identical
  /// to GasRule::apply per site.
  void update_rows(PlaneLattice& next, const PlaneLattice& cur,
                   std::int64_t t, std::int64_t y0, std::int64_t y1,
                   std::int64_t tile_words = 0) const;

  /// Windowed single-row update for the trapezoid tile step
  /// (scheduler.hpp): compute one full row into `next` at storage
  /// row `dst_y` from `cur` centered on storage row `src_y`, where the
  /// two lattices may have different heights (a trapezoid scratch strip
  /// vs the real lattice). `sem_y` is the row's *semantic* lattice
  /// coordinate — it alone drives the hex-parity tap set and the
  /// per-word chirality hash, so a scratch strip whose storage rows
  /// are offset (or wrapped) from the lattice rows still reproduces the
  /// golden update bit-exactly. Source rows resolve as src_y + tap.dy
  /// against cur's own height and boundary (out-of-range reads zero
  /// under Null); the caller guarantees that resolution lands on rows
  /// holding generation-t content whose shift halo (wide rows) is
  /// current.
  /// update_rows is exactly this with dst_y == src_y == sem_y.
  void update_row_window(PlaneLattice& next, std::int64_t dst_y,
                         const PlaneLattice& cur, std::int64_t src_y,
                         std::int64_t sem_y, std::int64_t t) const;

 private:
  explicit PlaneKernel(GasKind kind);

  void update_row_span(PlaneLattice& next, std::int64_t dst_y,
                       const PlaneLattice& cur, std::int64_t src_y,
                       std::int64_t sem_y, const PlaneSpanOps& ops,
                       std::int64_t t, std::int64_t k0,
                       std::int64_t k1) const;
  void update_run(PlaneLattice& next, const PlaneLattice& cur,
                  const PlaneSpanOps& ops, std::int64_t t, std::int64_t y0,
                  std::int64_t y1) const;
  SpanRun span_run(PlaneLattice& next, std::int64_t dst_y,
                   const PlaneLattice& cur, std::int64_t src_y,
                   std::int64_t sem_y, std::int64_t t,
                   std::int64_t rows) const;
  void span(const PlaneSpanOps& ops, const SpanRun& run) const;

  /// One gather tap per channel: channel i collects from the source row
  /// y + dy shifted by dx (the offset of the opposite-direction
  /// neighbor, exactly CollisionLut's taps).
  struct Tap {
    std::int8_t dx = 0;
    std::int8_t dy = 0;
  };

  const GasModel* model_;
  int channels_;
  std::uint32_t written_ = 0;
  std::uint32_t halo_ = 0;
  std::array<std::array<Tap, 6>, 2> taps_{};  // [row parity][channel]
};

/// Observation/instrumentation points inside the plane runners, keyed
/// to the runner's blocks: a generation of the plain sweep, or `depth`
/// generations of a tiled run. The one client today is the fault
/// subsystem's PlaneMemoryGuard (fault/memory_guard.hpp), which
/// injects plane-word faults into the generation-t source and audits
/// per-plane particle ledgers over the produced rows; the interface
/// lives here so lgca never depends on lattice::fault. A null hooks
/// pointer is the fault-free fast path: the run loop takes one untaken
/// branch per lane-block and skips the pre-update rendezvous entirely.
///
/// At every depth, each lane calls before_rows and after_rows over its
/// own rows only, once per block, concurrently with the other lanes.
/// A throw from a hook ends the run: every lane leaves at the same
/// rendezvous, the runner rethrows the first exception, and the
/// lattice is left mid-block (unspecified).
class PlaneRunHooks {
 public:
  virtual ~PlaneRunHooks() = default;

  /// Once per run, serially, after static planes are primed and the
  /// generation-t0 shift halo is filled, before any update. The masks
  /// are the running kernel's written_planes()/halo_planes() — passed
  /// as plain masks rather than a kernel reference so the same hooks
  /// serve every plane-coded runner (the 3-D kernel included), which
  /// all share the PlaneLattice storage contract.
  virtual void run_begin(PlaneLattice& lat, std::uint32_t written_planes,
                         std::uint32_t halo_planes, std::int64_t t0) = 0;

  /// Per lane, per block, before the block gathers from the lane's
  /// rows [y0, y1) of the committed generation-t source `cur` (t is
  /// the block's first generation). May mutate those rows (fault
  /// injection). A rendezvous separates every before_rows from every
  /// update, so a lane never gathers a neighbor row that is still
  /// being mutated.
  virtual void before_rows(PlaneLattice& cur, std::int64_t t,
                           std::int64_t y0, std::int64_t y1) = 0;

  /// Per lane, per block, after the block produced the lane's rows
  /// [y0, y1) of `next` (halo-ready; t is the block's last
  /// generation). Read-only.
  virtual void after_rows(const PlaneLattice& next, std::int64_t t,
                          std::int64_t y0, std::int64_t y1) = 0;
};

/// Advance `lat` by `generations` gas steps on the bit-plane kernel,
/// double-buffered. Up to `threads` static row bands are owned by
/// persistent pool lanes with one rendezvous per generation; the
/// planner never makes a band smaller than `band_grain_words` payload
/// words (0 picks kDefaultBandGrainWords), collapsing to an inline
/// single band when the lattice is too small to parallelize
/// profitably. Bit-identical to reference_run / fused_gas_run of the
/// same kind for any thread count and any SIMD level.
void plane_gas_run(PlaneLattice& lat, const PlaneKernel& kernel,
                   std::int64_t generations, std::int64_t t0 = 0,
                   unsigned threads = 1, std::int64_t band_grain_words = 0,
                   PlaneRunHooks* hooks = nullptr);

/// Byte-lattice convenience wrapper: pack once, run, unpack once. The
/// word-parallel transpose costs about one scalar FHP-II generation
/// each way, so it amortizes within a few generations.
void bitplane_gas_run(SiteLattice& lat, const PlaneKernel& kernel,
                      std::int64_t generations, std::int64_t t0 = 0,
                      unsigned threads = 1, std::int64_t band_grain_words = 0,
                      PlaneRunHooks* hooks = nullptr);

}  // namespace lattice::lgca
