#include "lattice/lgca3d/plane_kernel3.hpp"

#include "lattice/common/error.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/lgca/scheduler.hpp"

namespace lattice::lgca3d {

namespace {

constexpr int kObstaclePlane = 7;

}  // namespace

const PlaneKernel3& PlaneKernel3::get() {
  static const PlaneKernel3 kernel;
  return kernel;
}

void PlaneKernel3::update_plane_window(PlaneLattice3& next, std::int64_t dst_z,
                                       const PlaneLattice3& cur,
                                       std::int64_t src_z, std::int64_t sem_z,
                                       std::int64_t t) const {
  LATTICE_ASSERT(next.words_per_row() == cur.words_per_row(),
                 "update_plane_window: row widths differ");
  const Extent3 e = cur.extent3();
  LATTICE_ASSERT(dst_z >= 0 && dst_z < next.extent3().nz && src_z >= 0 &&
                     src_z < e.nz,
                 "update_plane_window out of range");
  const std::int64_t words = cur.words_per_row();
  if (words == 0) return;
  const bool periodic = cur.boundary3() == Boundary3::Periodic;
  const lgca::PlaneSpanOps& ops =
      lgca::plane_span_ops(lgca::plane_simd_active());

  // The z taps resolve against cur's *own* depth and boundary, so a
  // Null-boundary scratch slab whose storage range is clamped to the
  // real volume edge reads the same zero planes the golden updater
  // would (scratch_base keeps the clamp aligned with the edge). -1
  // marks a zero plane: cur.zero_row(), which is a whole z-plane.
  std::int64_t zm = src_z - 1;
  std::int64_t zp = src_z + 1;
  if (zm < 0) zm = periodic ? e.nz - 1 : -1;
  if (zp >= e.nz) zp = periodic ? 0 : -1;

  // Rows [y0, y0 + rows) of this z-plane as one span. Every tap is a
  // whole-row read except the ±x shifts; row y's ±y taps are rows
  // y ∓ 1 of the same z-plane, its ±z taps row y of the planes before
  // and after.
  lgca::SpanRun run{};
  run.stride = cur.inner().row_stride();
  run.words = words;
  run.tail_mask = cur.tail_mask();
  run.periodic = periodic;
  run.z = sem_z;
  run.t = t;
  const auto span = [&](std::int64_t y0, std::int64_t rows) {
    const std::int64_t ym = y0 - 1;
    const std::int64_t yp = y0 + 1;
    run.src[0] = cur.row(0, src_z, y0);
    run.src[1] = cur.row(1, src_z, y0);
    run.src[2] = ym >= 0   ? cur.row(2, src_z, ym)
                 : periodic ? cur.row(2, src_z, e.ny - 1)
                            : cur.zero_row();
    run.src[3] = yp < e.ny  ? cur.row(3, src_z, yp)
                 : periodic ? cur.row(3, src_z, 0)
                            : cur.zero_row();
    run.src[4] = zm >= 0 ? cur.row(4, zm, y0) : cur.zero_row();
    run.src[5] = zp >= 0 ? cur.row(5, zp, y0) : cur.zero_row();
    run.obst = cur.row(kObstaclePlane, src_z, y0);
    for (int p = 0; p < kChannels; ++p) run.out[p] = next.row(p, dst_z, y0);
    run.rows = rows;
    run.k1 = words;
    run.y = y0;
    ops.cubic(run);
  };
  // A compact z-plane is runs: its interior rows as one, and its first
  // and last row (whose ±y taps wrap or read zero) as one-row runs. A
  // Null z-edge plane's missing neighbour is the zero plane. Every row
  // of a wide plane is a row span.
  if (!lgca::PlaneLattice::guarded(e.nx)) {
    span(0, 1);
    if (e.ny > 2) span(1, e.ny - 2);
    if (e.ny > 1) span(e.ny - 1, 1);
    return;
  }
  for (std::int64_t y = 0; y < e.ny; ++y) span(y, 1);
}

void PlaneKernel3::update_planes(PlaneLattice3& next, const PlaneLattice3& cur,
                                 std::int64_t t, std::int64_t z0,
                                 std::int64_t z1) const {
  LATTICE_ASSERT(next.extent3() == cur.extent3() &&
                     next.boundary3() == cur.boundary3(),
                 "update_planes: source and destination lattices differ");
  LATTICE_ASSERT(z0 >= 0 && z1 <= cur.extent3().nz,
                 "update_planes out of range");
  if (cur.words_per_row() == 0 || z0 >= z1) return;
  for (std::int64_t z = z0; z < z1; ++z) {
    update_plane_window(next, z, cur, z, z, t);
  }
  // Leave the produced planes halo-ready for the next generation,
  // band-locally and cache-hot, as the 2-D update_rows does (compact
  // rows have no halo, and the fill leaves them alone).
  next.prepare_shift_halo(halo_planes(), z0, z1);
}

namespace {

/// z-planes of a volume: a unit is the ny rows of one z-plane in the
/// flat lattice (row r = z*ny + y).
struct PlaneSlabs {
  using Lattice = PlaneLattice3;
  static constexpr bool kPlanes = true;
  const PlaneKernel3& kernel = PlaneKernel3::get();

  static std::int64_t sites(const PlaneLattice3& l) {
    return l.extent3().volume();
  }
  static std::int64_t units(const PlaneLattice3& l) { return l.extent3().nz; }
  static std::int64_t rows_per_unit(const PlaneLattice3& l) {
    return l.extent3().ny;
  }
  static bool periodic(const PlaneLattice3& l) {
    return l.boundary3() == Boundary3::Periodic;
  }
  static auto& flat(auto& l) { return l.inner(); }
  static PlaneLattice3 scratch(const PlaneLattice3& l, std::int64_t nz) {
    return lgca::detail::take_spare<PlaneLattice3>(
        Extent3{l.extent3().nx, l.extent3().ny, nz}, l.boundary3());
  }
  void update(PlaneLattice3& next, const PlaneLattice3& cur, std::int64_t t,
              std::int64_t z0, std::int64_t z1) const {
    kernel.update_planes(next, cur, t, z0, z1);
  }
  void update_window(PlaneLattice3& dst, std::int64_t dst_z,
                     const PlaneLattice3& cur, std::int64_t src_z,
                     std::int64_t sem_z, std::int64_t t) const {
    kernel.update_plane_window(dst, dst_z, cur, src_z, sem_z, t);
  }
};

}  // namespace

void plane_gas_run3(PlaneLattice3& lat, std::int64_t generations,
                    std::int64_t t0, unsigned threads,
                    std::int64_t band_grain_words,
                    lgca::PlaneRunHooks* hooks) {
  lgca::run_schedule(PlaneSlabs{}, lat, generations, t0, threads, {},
                     band_grain_words, hooks);
}

bool temporal_tiling_feasible3(const lgca::TemporalTiling& tiling,
                               Extent3 extent, Boundary3 boundary) {
  return extent.nx > 0 && extent.ny > 0 &&
         lgca::tiling_feasible(tiling, extent.nz, to_boundary2(boundary));
}

void plane_gas_run_tiled3(PlaneLattice3& lat, std::int64_t generations,
                          std::int64_t t0, unsigned threads,
                          const lgca::TemporalTiling& tiling,
                          lgca::PlaneRunHooks* hooks) {
  lgca::run_schedule(PlaneSlabs{}, lat, generations, t0, threads, tiling, 0,
                     hooks);
}

void bitplane_gas_run3(Lattice3& lat, std::int64_t generations,
                       std::int64_t t0, unsigned threads,
                       std::int64_t band_grain_words,
                       lgca::PlaneRunHooks* hooks) {
  const auto run = [&](PlaneLattice3& planes) {
    plane_gas_run3(planes, generations, t0, threads, band_grain_words, hooks);
  };
  lgca::packed_run<PlaneLattice3>(lat, lat.extent(), lat.boundary(), run);
}

void bitplane_gas_run_tiled3(Lattice3& lat, std::int64_t generations,
                             std::int64_t t0, unsigned threads,
                             const lgca::TemporalTiling& tiling,
                             lgca::PlaneRunHooks* hooks) {
  const auto run = [&](PlaneLattice3& planes) {
    plane_gas_run_tiled3(planes, generations, t0, threads, tiling, hooks);
  };
  lgca::packed_run<PlaneLattice3>(lat, lat.extent(), lat.boundary(), run);
}

void bitplane_gas_run3(lgca::SiteLattice& lat, Extent3 extent,
                       std::int64_t generations, std::int64_t t0,
                       unsigned threads, std::int64_t band_grain_words,
                       lgca::PlaneRunHooks* hooks) {
  LATTICE_REQUIRE(lat.extent() == flat_extent(extent),
                  "bitplane_gas_run3: flattened extent mismatch");
  const auto run = [&](PlaneLattice3& planes) {
    plane_gas_run3(planes, generations, t0, threads, band_grain_words, hooks);
  };
  // The engine's flat {nx, ny*nz} byte view packs straight into planes.
  lgca::packed_run<PlaneLattice3>(lat, extent, to_boundary3(lat.boundary()),
                                  run);
}

void bitplane_gas_run_tiled3(lgca::SiteLattice& lat, Extent3 extent,
                             std::int64_t generations, std::int64_t t0,
                             unsigned threads,
                             const lgca::TemporalTiling& tiling,
                             lgca::PlaneRunHooks* hooks) {
  LATTICE_REQUIRE(lat.extent() == flat_extent(extent),
                  "bitplane_gas_run_tiled3: flattened extent mismatch");
  const auto run = [&](PlaneLattice3& planes) {
    plane_gas_run_tiled3(planes, generations, t0, threads, tiling, hooks);
  };
  lgca::packed_run<PlaneLattice3>(lat, extent, to_boundary3(lat.boundary()),
                                  run);
}

}  // namespace lattice::lgca3d
