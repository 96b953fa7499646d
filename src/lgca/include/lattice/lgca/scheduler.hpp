// The one band/trapezoid scheduler behind every software sweep: the
// plane runners (2-D and 3-D), the byte-LUT runner and the banded
// reference updater.
//
// The paper's §7 Theorem 4 is one schedule argument for every
// dimension: a blocked pebbling schedule gives R = O(B·S^(1/d))
// whatever d is, and the streaming sweep that holds R = B is its
// depth-1 case. This header is that schedule once, over a *unit* — a
// row of a 2-D lattice, or a z-plane of ny rows of a 3-D volume — so a
// new gas or dimension supplies its unit operations and inherits band
// planning, the runner, the trapezoid tile step, the lane split, the
// pack → run → unpack wrapper and the bitplane.* obs unchanged
// (docs/ARCHITECTURE.md, "The band/tile scheduler").
//
// A kernel adapter A is a small struct of unit operations; the
// scheduler calls them directly (templates, no indirect call per row):
//
//   using Lattice                the storage the kernel updates
//   kPlanes                      plane-coded storage: static planes,
//                                shift halo, run hooks, bitplane.* obs
//   kernel                       the kernel the operations call
//   sites(lat), units(lat)       site and unit counts
//   periodic(lat)                the boundary
//   scratch(lat, n)              a lattice of n units, lat's width and
//                                boundary (also the double buffer, at
//                                n = units(lat)): zeroed byte storage,
//                                or plane storage on loan from the
//                                running thread's spares
//                                (detail::take_spare), which the
//                                runner gives back when it is done
//   update(next, cur, t, u0, u1)
//                                the band update: units [u0, u1) of
//                                next from cur, left halo-ready
//   update_window(dst, du, cur, su, sem, t)
//                                one unit into dst's storage unit du
//                                from cur centered on storage unit su;
//                                sem, the unit's lattice coordinate,
//                                alone drives parity and chirality
// and, when kPlanes:
//   flat(lat)                    the flat PlaneLattice the hooks see
//   rows_per_unit(lat)           rows of flat(lat) per unit
//   kernel.written_planes(), kernel.halo_planes()
// or, when not:
//   band_ns()                    the histogram a band-generation is
//                                timed under
//
// The per-unit halo fill and the static-plane copy into scratch follow
// from the flat view: both run over a unit's rows_per_unit flat rows.

#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "lattice/common/grid.hpp"
#include "lattice/common/thread_pool.hpp"
#include "lattice/lgca/plane_kernel.hpp"
#include "lattice/lgca/temporal_tile.hpp"
#include "lattice/obs/metrics.hpp"
#include "lattice/obs/trace.hpp"

namespace lattice::lgca {

/// The bitplane.* obs ids every plane runner reports under, whatever
/// its dimension (docs/OBSERVABILITY.md).
struct BitplaneObs {
  obs::MetricsRegistry::Id sites = obs::counter_id("bitplane.sites");
  obs::MetricsRegistry::Id words = obs::counter_id("bitplane.words");
  obs::MetricsRegistry::Id band_ns = obs::histogram_id("bitplane.band_ns");
  obs::MetricsRegistry::Id bands = obs::gauge_id("bitplane.bands");
  obs::MetricsRegistry::Id tile_ns = obs::histogram_id("bitplane.tile_ns");
  obs::MetricsRegistry::Id tile_depth = obs::gauge_id("bitplane.tile_depth");
  obs::MetricsRegistry::Id tiles = obs::gauge_id("bitplane.tiles");
  obs::MetricsRegistry::Id pack_ns = obs::histogram_id("bitplane.pack_ns");
  obs::MetricsRegistry::Id update_ns = obs::histogram_id("bitplane.update_ns");
  obs::MetricsRegistry::Id unpack_ns = obs::histogram_id("bitplane.unpack_ns");
  static const BitplaneObs& get();
};

namespace detail {

/// Plane lattices a thread keeps spare, per lattice type: a run's
/// packed planes, its double buffer and one tiled lane's two strips.
inline constexpr std::size_t kSpareLattices = 4;

/// The running thread's spare plane lattices of type L, oldest first.
/// Per thread, never per engine: the sessions a worker serves share
/// its spares, so they cost no memory per session.
template <class L>
std::vector<L>& spare_lattices() {
  thread_local std::vector<L> spares;
  return spares;
}

/// A plane lattice's extent and boundary, 2-D or 3-D.
template <class L>
auto lattice_shape(const L& l) noexcept {
  if constexpr (requires { l.extent3(); }) {
    return std::pair{l.extent3(), l.boundary3()};
  } else {
    return std::pair{l.extent(), l.boundary()};
  }
}

/// A plane lattice of this extent and boundary for one run: the running
/// thread's newest spare of that shape, else a new zeroed one, so only
/// a thread's first run at a shape allocates. A spare holds whatever
/// its last run left there, so every word a run reads must be written
/// first in that run (docs/ARCHITECTURE.md, "Where a run's buffers
/// come from").
template <class L, class E, class B>
L take_spare(E extent, B boundary) {
  std::vector<L>& spares = spare_lattices<L>();
  for (std::size_t i = spares.size(); i-- > 0;) {
    if (lattice_shape(spares[i]) == std::pair{extent, boundary}) {
      L lat = std::move(spares[i]);
      spares.erase(spares.begin() + static_cast<std::ptrdiff_t>(i));
      return lat;
    }
  }
  return L(extent, boundary);
}

/// Give a lattice back to the running thread's spares when its run
/// ends, dropping the oldest spare if the thread already keeps
/// kSpareLattices.
template <class L>
void give_spare(L lat) {
  std::vector<L>& spares = spare_lattices<L>();
  if (spares.size() == kSpareLattices) spares.erase(spares.begin());
  spares.push_back(std::move(lat));
}

}  // namespace detail

/// The runner's argument check: throws on a bad thread or generation
/// count, and returns false when there is nothing to run.
bool runnable(unsigned threads, std::int64_t generations, std::int64_t sites);

/// Band count for a run over `units` units of `unit_words` payload
/// words of one plane each: never more bands than requested threads,
/// units, or pool lanes — and never a band owning less than `grain`
/// words per generation. The grain floor is what keeps thread scaling
/// monotone: for kernels this cheap (a few word ops per 64 sites), a
/// band below it costs more in rendezvous than its update, so small
/// lattices collapse to fewer bands (down to one, which runs inline
/// with zero pool traffic).
std::int64_t plan_bands(std::int64_t units, std::int64_t unit_words,
                        unsigned threads, std::int64_t grain);

/// The tiling feasibility rule over `units` units (rows, or z-planes):
/// depth >= 2, tile_rows >= depth (keeps the recompute tax below
/// 100%), at least two tiles (one tile means the lattice already fits
/// the budget — the plain sweep is strictly better), and, under a Null
/// boundary, a scratch lattice no taller than the lattice (so it
/// clamps at most one lattice edge).
bool tiling_feasible(const TemporalTiling& tiling, std::int64_t units,
                     Boundary boundary);

/// One-time setup for a double-buffered run: zero the planes outside
/// `written_planes` in `lat` and in `next` (the spans never store them,
/// after swaps the original buffer resurfaces as output, and a spare
/// `next` may hold another gas's planes there) except the obstacle
/// plane, which is copied into `next`, tail-masked. After this, both
/// buffers agree on every static plane for the whole run.
void prime_static_planes(PlaneLattice& lat, PlaneLattice& next,
                         std::uint32_t written_planes);

/// Scratch storage base for a tile whose output units are [u0, u1):
/// local unit = global (unwrapped) unit - base. Under Periodic the
/// windows stay unwrapped (wrap happens per unit when resolving
/// content), so the base is simply the widest window's low edge. Under
/// Null the windows clamp to [0, n], and clamping the base into
/// [0, n - scratch_n] makes the scratch lattice's own Null boundary
/// coincide with the lattice edge: a clamped tile's read of unit -1
/// (or n) lands on local unit -1 (or scratch_n) and resolves to zero,
/// exactly as the golden updater reads it.
inline std::int64_t scratch_base(std::int64_t u0, std::int64_t kb,
                                 std::int64_t n, std::int64_t scratch_n,
                                 bool periodic) noexcept {
  const std::int64_t lo = u0 - (kb - 1);
  return periodic ? lo : std::max<std::int64_t>(0, std::min(lo, n - scratch_n));
}

/// Balanced contiguous tile range for one lane: never an empty range
/// while lanes <= tiles.
struct TileRange {
  std::int64_t lo;
  std::int64_t hi;
};
inline TileRange lane_tiles(std::int64_t tiles, unsigned lanes,
                            unsigned lane) noexcept {
  return {tiles * lane / lanes, tiles * (lane + 1) / lanes};
}

/// Take the double buffer (a spare, for plane storage) and, for plane
/// storage, prime the static planes, fill the generation-t0 shift halo
/// of the shifted planes, open the hooks and count the run's sites and
/// plane words. Every later generation's halo is written by the band
/// update itself. A spare double buffer holds its last run's words:
/// prime_static_planes rewrites its static planes, and the first
/// generation stores every written plane of every row, and fills the
/// halo of the shifted ones, before the second reads any.
template <class A>
typename A::Lattice begin_run(const A& a, typename A::Lattice& lat,
                              std::int64_t generations, std::int64_t t0,
                              PlaneRunHooks* hooks) {
  typename A::Lattice next = a.scratch(lat, a.units(lat));
  if constexpr (A::kPlanes) {
    PlaneLattice& flat = a.flat(lat);
    const std::uint32_t written = a.kernel.written_planes();
    const std::uint32_t halo = a.kernel.halo_planes();
    prime_static_planes(flat, a.flat(next), written);
    flat.prepare_shift_halo(halo, 0, flat.extent().height);
    if (hooks != nullptr) hooks->run_begin(flat, written, halo, t0);
    // Plane words per generation — the capacity measure of the sweep
    // (all 8 planes × rows × words/row). Actual memory traffic is
    // lower: only written planes are stored, and static planes are
    // never re-read in full.
    const BitplaneObs& ids = BitplaneObs::get();
    obs::count(ids.sites, flat.extent().area() * generations);
    obs::count(ids.words, generations * flat.extent().height *
                              flat.words_per_row() * PlaneLattice::kPlanes);
  }
  return next;
}

/// Fill the shift halo of units [u0, u1) of plane storage, as the band
/// update leaves its produced units.
template <class A>
void fill_halo(const A& a, typename A::Lattice& lat, std::int64_t u0,
               std::int64_t u1) {
  const std::int64_t rpu = a.rows_per_unit(lat);
  a.flat(lat).prepare_shift_halo(a.kernel.halo_planes(), u0 * rpu, u1 * rpu);
}

/// Copy the obstacle plane of the lattice units a scratch lattice
/// stands for (local unit ls = global unit base + ls) into it. Every
/// trapezoid step reads the obstacle plane from its source unit, and
/// it is static for the whole run, so once per block suffices. The
/// static-zero planes of a strip are left as they are: a spare strip
/// may hold another gas's planes there, but no span reads a plane its
/// gas neither writes nor takes as the obstacle (the rest load is
/// gated by HasRest, and HPP gathers channels 0-3 only), and the last
/// step writes `next`, not a strip.
template <class A>
void copy_static(const A& a, typename A::Lattice& scratch,
                 const typename A::Lattice& lat, std::int64_t base,
                 bool periodic) {
  constexpr int kObstaclePlane = 7;
  const std::int64_t n = a.units(lat);
  const std::int64_t rpu = a.rows_per_unit(lat);
  const PlaneLattice& src = a.flat(lat);
  const std::int64_t words = src.words_per_row();
  for (std::int64_t ls = 0; ls < a.units(scratch); ++ls) {
    const std::int64_t gu = periodic ? wrap(base + ls, n) : base + ls;
    for (std::int64_t r = 0; r < rpu; ++r) {
      const std::uint64_t* row = src.row(kObstaclePlane, gu * rpu + r);
      std::copy(row, row + words,
                a.flat(scratch).row(kObstaclePlane, ls * rpu + r));
    }
  }
}

/// One trapezoid: advance output units [u0, u1) by kb generations from
/// the committed generation-t lattice `lat` into `next`, intermediate
/// generations ping-ponging between the scratch lattices. Step g
/// (1-based) computes the window [u0 - (kb - g), u1 + (kb - g)),
/// clamped under Null, so every unit a later step reads was produced
/// one step earlier in the same tile. Reads only `lat` and the
/// scratch, so concurrent tiles never race. kb >= 2: a one-generation
/// block is the band update itself.
template <class A>
void run_tile(const A& a, typename A::Lattice& next,
              const typename A::Lattice& lat, std::int64_t t,
              std::int64_t kb, std::int64_t u0, std::int64_t u1,
              typename A::Lattice& s0, typename A::Lattice& s1) {
  using L = typename A::Lattice;
  const std::int64_t n = a.units(lat);
  const bool periodic = a.periodic(lat);
  const std::int64_t base = scratch_base(u0, kb, n, a.units(s0), periodic);
  if constexpr (A::kPlanes) {
    copy_static(a, s0, lat, base, periodic);
    copy_static(a, s1, lat, base, periodic);
  }
  L* cur_s = &s0;
  L* dst_s = &s1;
  for (std::int64_t g = 1; g <= kb; ++g) {
    std::int64_t lo = u0 - (kb - g);
    std::int64_t hi = u1 + (kb - g);
    if (!periodic) {
      lo = std::max<std::int64_t>(lo, 0);
      hi = std::min(hi, n);
    }
    const L& cur = g == 1 ? lat : *cur_s;
    L& dst = g == kb ? next : *dst_s;
    for (std::int64_t gu = lo; gu < hi; ++gu) {
      const std::int64_t sem = periodic ? wrap(gu, n) : gu;
      const std::int64_t src_u = g == 1 ? sem : gu - base;
      const std::int64_t dst_u = g == kb ? gu : gu - base;
      a.update_window(dst, dst_u, cur, src_u, sem, t + g - 1);
      if constexpr (A::kPlanes) {
        if (g < kb) fill_halo(a, dst, dst_u, dst_u + 1);
      }
    }
    std::swap(cur_s, dst_s);
  }
  if constexpr (A::kPlanes) fill_halo(a, next, u0, u1);
}

/// The runner: advance `lat` by `generations` generations,
/// double-buffered, in blocks of k generations. With `tiling` feasible
/// (tiling_feasible) and at least two generations, k = tiling.depth
/// and each block runs cache-resident trapezoids; otherwise k = 1 and
/// the tiles are the bands plan_bands picks at `band_grain_words` (0
/// picks kDefaultBandGrainWords), the plain sweep. Tiles of one block
/// are independent (redundant seam recompute), so up to `threads`
/// lanes own balanced contiguous tile ranges, and one rendezvous per
/// block is the only cross-lane traffic. `hooks` fire per lane over
/// the lane's own units: before_rows at the block's first generation,
/// a rendezvous so no lane gathers rows still under injection, the
/// tiles, then after_rows at the block's last generation. So fault
/// injection strikes the committed state while cache-resident
/// intermediates stay clean, and a detected fault rolls the whole
/// block back. One lane runs inline: no pool dispatch, no barrier and,
/// at k = 1, no scratch. A throw from any lane (a hook, a rule) ends
/// the run for every lane at the same rendezvous and is rethrown here.
/// Plane storage comes from the spares: the double buffer from the
/// calling thread's, a tiled lane's two strips from its own thread's,
/// and each goes back to them when the run or the lane ends.
template <class A>
void run_schedule(const A& a, typename A::Lattice& lat,
                  std::int64_t generations, std::int64_t t0, unsigned threads,
                  const TemporalTiling& tiling, std::int64_t band_grain_words,
                  PlaneRunHooks* hooks) {
  using L = typename A::Lattice;
  if (!runnable(threads, generations, a.sites(lat))) return;
  const std::int64_t n = a.units(lat);
  const bool tiled =
      generations >= 2 &&
      tiling_feasible(tiling, n,
                      a.periodic(lat) ? Boundary::Periodic : Boundary::Null);
  const std::int64_t k = tiled ? tiling.depth : 1;
  std::int64_t rpu = 1;
  std::int64_t unit_words = 1;  // byte rows: the grain counts rows
  if constexpr (A::kPlanes) {
    rpu = a.rows_per_unit(lat);
    unit_words = rpu * a.flat(lat).words_per_row();
  }
  const std::int64_t tiles =
      tiled ? (n + tiling.tile_rows - 1) / tiling.tile_rows
            : plan_bands(n, unit_words, threads,
                         band_grain_words > 0 ? band_grain_words
                                              : kDefaultBandGrainWords);
  // Balance the tiles: tile i owns units [i·n/tiles, (i+1)·n/tiles),
  // so sizes differ by at most one and no tile is empty. The plain
  // one-band sweep skips this divide and the block count's: a 64-bit
  // divide is a visible share of a 2 µs call on a 64² lattice.
  const auto unit_at = [&](std::int64_t i) {
    return tiles == 1 ? i * n : i * n / tiles;
  };
  const std::int64_t blocks = tiled ? (generations + k - 1) / k : generations;
  const unsigned lanes = static_cast<unsigned>(std::min<std::int64_t>(
      std::min<std::int64_t>(threads, tiles),
      common::ThreadPool::shared().max_lanes()));
  obs::MetricsRegistry::Id timer = obs::MetricsRegistry::kInvalidId;
  if constexpr (A::kPlanes) {
    const BitplaneObs& ids = BitplaneObs::get();
    timer = tiled ? ids.tile_ns : ids.band_ns;
    if (tiled) {
      obs::gauge_set(ids.tile_depth, k);
      obs::gauge_set(ids.tiles, tiles);
    } else {
      obs::gauge_set(ids.bands, tiles);
    }
  } else if (!tiled) {
    timer = A::band_ns();
  }
  L next = begin_run(a, lat, generations, t0, hooks);

  // One lane's blocks over its tiles; `sync.step(work)` runs one phase.
  const auto lane_run = [&](const TileRange range, auto& sync) {
    L s0;
    L s1;
    if (tiled) {
      s0 = a.scratch(lat, tiling.tile_rows + 2 * (k - 1));
      s1 = a.scratch(lat, tiling.tile_rows + 2 * (k - 1));
    }
    const std::int64_t u0 = unit_at(range.lo);
    const std::int64_t u1 = unit_at(range.hi);
    L* cur = &lat;
    L* dst = &next;
    for (std::int64_t b = 0; b < blocks; ++b) {
      const std::int64_t kb = std::min(k, generations - b * k);
      const std::int64_t t = t0 + b * k;
      const auto inject = [&] {
        if constexpr (A::kPlanes) {
          hooks->before_rows(a.flat(*cur), t, u0 * rpu, u1 * rpu);
        }
      };
      const auto update = [&] {
        for (std::int64_t tile = range.lo; tile < range.hi; ++tile) {
          const obs::ScopedTimer tile_timer(timer);
          const std::int64_t v0 = unit_at(tile);
          const std::int64_t v1 = unit_at(tile + 1);
          if (kb == 1) {
            a.update(*dst, *cur, t, v0, v1);
          } else {
            run_tile(a, *dst, *cur, t, kb, v0, v1, s0, s1);
          }
        }
        if constexpr (A::kPlanes) {
          if (hooks != nullptr) {
            hooks->after_rows(a.flat(*dst), t + kb - 1, u0 * rpu, u1 * rpu);
          }
        }
      };
      if (hooks != nullptr && !sync.step(inject)) break;
      if (!sync.step(update)) break;
      std::swap(cur, dst);
    }
    if constexpr (A::kPlanes) {
      if (tiled) {
        detail::give_spare(std::move(s0));
        detail::give_spare(std::move(s1));
      }
    }
  };
  if (lanes == 1) {
    common::SoloStep solo;
    lane_run(TileRange{0, tiles}, solo);
  } else {
    common::Lockstep sync(lanes);
    common::ThreadPool::shared().run_lanes(lanes, [&](unsigned lane) {
      lane_run(lane_tiles(tiles, lanes, lane), sync);
    });
  }
  // Each lane swapped its own view once per block, so after an odd
  // number of blocks the result is in `next`.
  if (blocks % 2 == 1) std::swap(lat, next);
  if constexpr (A::kPlanes) detail::give_spare(std::move(next));
}

/// The byte-storage wrapper of every plane runner: pack `sites` once
/// into plane storage L of this extent and boundary, taken from the
/// running thread's spares, advance it with `run(planes)`, unpack it
/// once and give it back; each stage runs under its
/// bitplane.pack/update/unpack timer and trace span. pack() rewrites
/// every payload word, tail bits included, so a spare's old words
/// never reach the run, and a steady run allocates nothing. The
/// transpose is word-parallel, ~2.5 word ops per site each way, about
/// one scalar FHP-II generation (docs/PERFORMANCE.md), so it amortizes
/// within a few generations.
template <class L, class Sites, class E, class B, class Run>
void packed_run(Sites& sites, E extent, B boundary, const Run& run) {
  const BitplaneObs& ids = BitplaneObs::get();
  L planes = [&] {
    const obs::ScopedTimer timer(ids.pack_ns);
    const obs::TraceSpan span("bitplane.pack");
    L packed = detail::take_spare<L>(extent, boundary);
    packed.pack(sites);
    return packed;
  }();
  {
    const obs::ScopedTimer timer(ids.update_ns);
    const obs::TraceSpan span("bitplane.update");
    run(planes);
  }
  {
    const obs::ScopedTimer timer(ids.unpack_ns);
    const obs::TraceSpan span("bitplane.unpack");
    planes.unpack(sites);
  }
  detail::give_spare(std::move(planes));
}

}  // namespace lattice::lgca
