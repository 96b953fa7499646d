// The scheduler's out-of-line half (scheduler.hpp), and its 2-D
// instances: the plane runners over PlaneLattice rows, and the byte-LUT
// runner and the banded reference updater over SiteLattice rows.

#include "lattice/lgca/scheduler.hpp"

#include "lattice/common/error.hpp"
#include "lattice/lgca/reference.hpp"

namespace lattice::lgca {

const BitplaneObs& BitplaneObs::get() {
  static const BitplaneObs ids;
  return ids;
}

bool runnable(unsigned threads, std::int64_t generations, std::int64_t sites) {
  LATTICE_REQUIRE(threads >= 1, "need at least one worker thread");
  LATTICE_REQUIRE(generations >= 0, "generations must be >= 0");
  return sites > 0 && generations > 0;
}

std::int64_t plan_bands(std::int64_t units, std::int64_t unit_words,
                        unsigned threads, std::int64_t grain) {
  const std::int64_t work = units * unit_words;  // per plane, per generation
  std::int64_t bands = std::min<std::int64_t>(threads, units);
  bands = std::min(bands, std::max<std::int64_t>(1, work / grain));
  bands = std::min(bands, static_cast<std::int64_t>(
                              common::ThreadPool::shared().max_lanes()));
  return std::max<std::int64_t>(1, bands);
}

bool tiling_feasible(const TemporalTiling& tiling, std::int64_t units,
                     Boundary boundary) {
  const std::int64_t k = tiling.depth;
  const std::int64_t r = tiling.tile_rows;
  if (k < 2 || r < k || units <= 0) return false;
  if ((units + r - 1) / r < 2) return false;
  return boundary == Boundary::Periodic || r + 2 * (k - 1) <= units;
}

void prime_static_planes(PlaneLattice& lat, PlaneLattice& next,
                         std::uint32_t written_planes) {
  LATTICE_ASSERT(next.extent() == lat.extent() &&
                     next.boundary() == lat.boundary(),
                 "prime_static_planes: buffer shapes differ");
  constexpr int kObstaclePlane = 7;
  const std::int64_t words = lat.words_per_row();
  if (words == 0) return;
  const std::uint64_t tail = lat.tail_mask();
  for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
    if (((written_planes >> p) & 1u) != 0) continue;
    for (std::int64_t y = 0; y < lat.extent().height; ++y) {
      const std::uint64_t* src = lat.row(p, y);
      std::uint64_t* dst = next.row(p, y);
      if (p == kObstaclePlane) {
        for (std::int64_t k = 0; k < words; ++k) dst[k] = src[k];
        dst[words - 1] &= tail;
      } else {
        // Static-zero plane: cleared once per run in both buffers, not
        // by the update every generation. `next` needs it too: a spare
        // may hold a rest plane an FHP-II run left there.
        std::uint64_t* mut = lat.row(p, y);
        for (std::int64_t k = 0; k < words; ++k) mut[k] = 0;
        for (std::int64_t k = 0; k < words; ++k) dst[k] = 0;
      }
    }
  }
}

namespace {

/// Rows of a 2-D plane lattice.
struct PlaneRows {
  using Lattice = PlaneLattice;
  static constexpr bool kPlanes = true;
  const PlaneKernel& kernel;

  static std::int64_t sites(const PlaneLattice& l) { return l.extent().area(); }
  static std::int64_t units(const PlaneLattice& l) { return l.extent().height; }
  static std::int64_t rows_per_unit(const PlaneLattice&) { return 1; }
  static bool periodic(const PlaneLattice& l) {
    return l.boundary() == Boundary::Periodic;
  }
  static auto& flat(auto& l) { return l; }
  static PlaneLattice scratch(const PlaneLattice& l, std::int64_t rows) {
    return detail::take_spare<PlaneLattice>(Extent{l.extent().width, rows},
                                            l.boundary());
  }
  void update(PlaneLattice& next, const PlaneLattice& cur, std::int64_t t,
              std::int64_t y0, std::int64_t y1) const {
    kernel.update_rows(next, cur, t, y0, y1);
  }
  void update_window(PlaneLattice& dst, std::int64_t dst_y,
                     const PlaneLattice& cur, std::int64_t src_y,
                     std::int64_t sem_y, std::int64_t t) const {
    kernel.update_row_window(dst, dst_y, cur, src_y, sem_y, t);
  }
};

/// Rows of a byte lattice: no static planes, no halo and no hooks. A
/// byte scratch row carries the full site state, and the updates
/// resolve row and column edges per site. Bands are timed under
/// reference.band_ns.
struct SiteRows {
  using Lattice = SiteLattice;
  static constexpr bool kPlanes = false;

  static std::int64_t sites(const SiteLattice& l) { return l.extent().area(); }
  static std::int64_t units(const SiteLattice& l) { return l.extent().height; }
  static bool periodic(const SiteLattice& l) {
    return l.boundary() == Boundary::Periodic;
  }
  static SiteLattice scratch(const SiteLattice& l, std::int64_t rows) {
    return SiteLattice({l.extent().width, rows}, l.boundary());
  }
  static obs::MetricsRegistry::Id band_ns() {
    static const obs::MetricsRegistry::Id id =
        obs::histogram_id("reference.band_ns");
    return id;
  }
};

/// Byte rows through the collide table, which preserves the obstacle
/// and rest bits of every produced row.
struct ByteRows : SiteRows {
  const CollisionLut& kernel;

  void update(SiteLattice& next, const SiteLattice& cur, std::int64_t t,
              std::int64_t y0, std::int64_t y1) const {
    kernel.update_rows(next, cur, t, y0, y1);
  }
  void update_window(SiteLattice& dst, std::int64_t dst_y,
                     const SiteLattice& cur, std::int64_t src_y,
                     std::int64_t sem_y, std::int64_t t) const {
    kernel.update_span_window(dst, dst_y, cur, src_y, sem_y, t);
  }
};

/// Byte rows through any Rule, site by site: the semantic oracle,
/// banded. Windows resolve against cur's own height and boundary.
struct RuleRows : SiteRows {
  const Rule& kernel;

  void update_window(SiteLattice& dst, std::int64_t dst_y,
                     const SiteLattice& cur, std::int64_t src_y,
                     std::int64_t sem_y, std::int64_t t) const {
    for (std::int64_t x = 0; x < cur.extent().width; ++x) {
      dst.at({x, dst_y}) =
          kernel.apply(cur.window_at({x, src_y}), SiteContext{x, sem_y, t});
    }
  }
  void update(SiteLattice& next, const SiteLattice& cur, std::int64_t t,
              std::int64_t y0, std::int64_t y1) const {
    for (std::int64_t y = y0; y < y1; ++y) update_window(next, y, cur, y, y, t);
  }
};

obs::MetricsRegistry::Id reference_sites_id() {
  static const obs::MetricsRegistry::Id id =
      obs::counter_id("reference.sites");
  return id;
}

}  // namespace

void plane_gas_run(PlaneLattice& lat, const PlaneKernel& kernel,
                   std::int64_t generations, std::int64_t t0,
                   unsigned threads, std::int64_t band_grain_words,
                   PlaneRunHooks* hooks) {
  run_schedule(PlaneRows{kernel}, lat, generations, t0, threads, {},
               band_grain_words, hooks);
}

void bitplane_gas_run(SiteLattice& lat, const PlaneKernel& kernel,
                      std::int64_t generations, std::int64_t t0,
                      unsigned threads, std::int64_t band_grain_words,
                      PlaneRunHooks* hooks) {
  const auto run = [&](PlaneLattice& planes) {
    plane_gas_run(planes, kernel, generations, t0, threads, band_grain_words,
                  hooks);
  };
  packed_run<PlaneLattice>(lat, lat.extent(), lat.boundary(), run);
}

bool temporal_tiling_feasible(const TemporalTiling& tiling, Extent extent,
                              Boundary boundary) {
  return extent.width > 0 && tiling_feasible(tiling, extent.height, boundary);
}

void plane_gas_run_tiled(PlaneLattice& lat, const PlaneKernel& kernel,
                         std::int64_t generations, std::int64_t t0,
                         unsigned threads, const TemporalTiling& tiling,
                         PlaneRunHooks* hooks) {
  run_schedule(PlaneRows{kernel}, lat, generations, t0, threads, tiling, 0,
               hooks);
}

void bitplane_gas_run_tiled(SiteLattice& lat, const PlaneKernel& kernel,
                            std::int64_t generations, std::int64_t t0,
                            unsigned threads, const TemporalTiling& tiling,
                            PlaneRunHooks* hooks) {
  const auto run = [&](PlaneLattice& planes) {
    plane_gas_run_tiled(planes, kernel, generations, t0, threads, tiling,
                        hooks);
  };
  packed_run<PlaneLattice>(lat, lat.extent(), lat.boundary(), run);
}

void fused_gas_run(SiteLattice& lat, const CollisionLut& lut,
                   std::int64_t generations, std::int64_t t0,
                   unsigned threads) {
  fused_gas_run_tiled(lat, lut, generations, t0, threads, {});
}

// One band per thread (grain 1): a byte row costs far more than a
// plane word, so no grain floor applies.
void fused_gas_run_tiled(SiteLattice& lat, const CollisionLut& lut,
                         std::int64_t generations, std::int64_t t0,
                         unsigned threads, const TemporalTiling& tiling) {
  const obs::TraceSpan span("reference.fused_run");
  run_schedule(ByteRows{{}, lut}, lat, generations, t0, threads, tiling, 1,
               nullptr);
  obs::count(reference_sites_id(), lat.extent().area() * generations);
}

void reference_run_parallel(SiteLattice& lat, const Rule& rule,
                            std::int64_t generations, unsigned threads,
                            std::int64_t t0) {
  run_schedule(RuleRows{{}, rule}, lat, generations, t0, threads, {}, 1,
               nullptr);
  obs::count(reference_sites_id(), lat.extent().area() * generations);
}

}  // namespace lattice::lgca
