#include "lattice/lgca3d/plane_kernel3.hpp"

#include "lattice/common/error.hpp"
#include "lattice/lgca/scheduler.hpp"

namespace lattice::lgca3d {

namespace {

constexpr int kObstaclePlane = 7;

// One row of the cubic-gas update: gather (funnel shift on the ±x
// planes, whole-row reads for everything else), then collision as
// boolean algebra over the (mass, momentum) class structure of
// Gas3Model's table, then obstacle bounce:
//
//   With the per-axis summaries  U2 = both channels,  Ur = exactly one,
//   U0 = neither  (U in {X, Y, Z}), the six size-2 classes — a single
//   mover on axis u riding with a head-on pair on exactly one other
//   axis — are detected by
//     ex = Xr & ((Y2 & Z0) | (Y0 & Z2))     (and cyclically ey, ez),
//   and each is its own inverse (a 2-element class cycles to its other
//   member under either chirality), so the fix is a chirality-free XOR
//   toggling both channels of both *other* axes: the present pair
//   vanishes and the absent one appears.
//
//   The two 3-element classes — {3, 12, 48} (one full pair) and
//   {15, 51, 60} (two full pairs) — are exactly the non-empty,
//   non-full states whose axes each carry a pair or nothing:
//     ev = pure & ~none & ~full2,  pure = (X2|X0)&(Y2|Y0)&(Z2|Z0).
//   Variant 0 turns one pair x → y → z and two pairs xy → xz → yz.
//   Read as pair masks those are opposite rotations: the new x pair
//   comes from z in the first and from y in the second. So with m4 =
//   majority(X2, Y2, Z2) marking the two-pair sites and C the
//   chirality word, ub = ev & (C ^ m4) takes the "from y" rotation and
//   ua = ev & ~ub the "from z" one:
//     nx = ua&Z2 | ub&Y2,  ny = ua&X2 | ub&Z2,  nz = ua&Y2 | ub&X2,
//   each written to both channels of its axis. C is one call to
//   Gas3Model::chirality_word per word, as in the 2-D FHP span, and
//   only its ev bits are read (ev is 7.7% of sites at the 0.3 fill).
//
//   Every other moving state is a singleton class: identity. The two
//   detectors are disjoint (ev needs every axis in {0, 2}; the swaps
//   need one axis in state r), so clearing the ev sites and OR-ing in
//   the rotated pairs leaves the swaps untouched.
void gas3_span(const std::uint64_t* const src[kChannels],
               const std::uint64_t* obst,
               std::uint64_t* const out[kChannels], std::int64_t words,
               std::uint64_t tail, std::int64_t y, std::int64_t sem_z,
               std::int64_t t) {
  const std::int64_t last = words - 1;
  for (std::int64_t k = 0; k < words; ++k) {
    const std::uint64_t m = k == last ? tail : ~std::uint64_t{0};
    // Gather: channel d arrives from the site at -e_d, so +x shifts
    // left through the guard word and -x shifts right.
    const std::uint64_t a0 = (src[0][k] << 1) | (src[0][k - 1] >> 63);
    const std::uint64_t a1 = (src[1][k] >> 1) | (src[1][k + 1] << 63);
    const std::uint64_t a2 = src[2][k];
    const std::uint64_t a3 = src[3][k];
    const std::uint64_t a4 = src[4][k];
    const std::uint64_t a5 = src[5][k];
    const std::uint64_t o = obst[k];

    const std::uint64_t x2 = a0 & a1, xr = a0 ^ a1, x0 = ~(a0 | a1);
    const std::uint64_t y2 = a2 & a3, yr = a2 ^ a3, y0 = ~(a2 | a3);
    const std::uint64_t z2 = a4 & a5, zr = a4 ^ a5, z0 = ~(a4 | a5);

    const std::uint64_t ex = xr & ((y2 & z0) | (y0 & z2));
    const std::uint64_t ey = yr & ((x2 & z0) | (x0 & z2));
    const std::uint64_t ez = zr & ((x2 & y0) | (x0 & y2));

    const std::uint64_t none = x0 & y0 & z0;
    const std::uint64_t full2 = x2 & y2 & z2;
    const std::uint64_t pure = (x2 | x0) & (y2 | y0) & (z2 | z0);
    const std::uint64_t ev = pure & ~none & ~full2 & ~o & m;
    const std::uint64_t C = Gas3Model::chirality_word(k, y, sem_z, t);
    const std::uint64_t m4 = (x2 & y2) | (z2 & (x2 | y2));
    const std::uint64_t ub = ev & (C ^ m4);
    const std::uint64_t ua = ev & ~ub;
    const std::uint64_t nx = (ua & z2) | (ub & y2);
    const std::uint64_t ny = (ua & x2) | (ub & z2);
    const std::uint64_t nz = (ua & y2) | (ub & x2);

    const std::uint64_t b0 = ((a0 ^ (ey | ez)) & ~ev) | nx;
    const std::uint64_t b1 = ((a1 ^ (ey | ez)) & ~ev) | nx;
    const std::uint64_t b2 = ((a2 ^ (ex | ez)) & ~ev) | ny;
    const std::uint64_t b3 = ((a3 ^ (ex | ez)) & ~ev) | ny;
    const std::uint64_t b4 = ((a4 ^ (ex | ey)) & ~ev) | nz;
    const std::uint64_t b5 = ((a5 ^ (ex | ey)) & ~ev) | nz;

    // Obstacle bounce-back: each channel takes its opposite's gathered
    // bit (the table's reflect), overriding any collision algebra.
    out[0][k] = ((b0 & ~o) | (a1 & o)) & m;
    out[1][k] = ((b1 & ~o) | (a0 & o)) & m;
    out[2][k] = ((b2 & ~o) | (a3 & o)) & m;
    out[3][k] = ((b3 & ~o) | (a2 & o)) & m;
    out[4][k] = ((b4 & ~o) | (a5 & o)) & m;
    out[5][k] = ((b5 & ~o) | (a4 & o)) & m;
  }
}

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

  // The z taps resolve against cur's *own* depth and boundary, so a
  // Null-boundary scratch slab whose storage range is clamped to the
  // real volume edge reads the same zero planes the golden updater
  // would (scratch_base keeps the clamp aligned with the edge).
  std::int64_t zm = src_z - 1;
  std::int64_t zp = src_z + 1;
  bool zm_zero = false;
  bool zp_zero = false;
  if (zm < 0) {
    if (periodic) {
      zm = e.nz - 1;
    } else {
      zm_zero = true;
    }
  }
  if (zp >= e.nz) {
    if (periodic) {
      zp = 0;
    } else {
      zp_zero = true;
    }
  }

  for (std::int64_t y = 0; y < e.ny; ++y) {
    const std::int64_t ym = y - 1;
    const std::int64_t yp = y + 1;
    const std::uint64_t* src[kChannels];
    src[0] = cur.row(0, src_z, y);
    src[1] = cur.row(1, src_z, y);
    src[2] = ym < 0 ? (periodic ? cur.row(2, src_z, e.ny - 1)
                                : cur.zero_row())
                    : cur.row(2, src_z, ym);
    src[3] = yp >= e.ny
                 ? (periodic ? cur.row(3, src_z, 0) : cur.zero_row())
                 : cur.row(3, src_z, yp);
    src[4] = zm_zero ? cur.zero_row() : cur.row(4, zm, y);
    src[5] = zp_zero ? cur.zero_row() : cur.row(5, zp, y);
    const std::uint64_t* obst = cur.row(kObstaclePlane, src_z, y);
    std::uint64_t* out[kChannels];
    for (int p = 0; p < kChannels; ++p) out[p] = next.row(p, dst_z, y);
    gas3_span(src, obst, out, words, cur.tail_mask(), y, sem_z, t);
  }
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
  // band-locally and cache-hot, as the 2-D update_rows does.
  next.prepare_shift_halo(halo_planes(), z0, z1);
}

namespace {

/// z-planes of a volume: a unit is the ny rows of one z-plane in the
/// flat lattice (row r = z*ny + y).
struct PlaneSlabs {
  using Lattice = PlaneLattice3;
  static constexpr bool kPlanes = true;
  const PlaneKernel3& kernel = PlaneKernel3::get();

  static std::int64_t units(const PlaneLattice3& l) { return l.extent3().nz; }
  static std::int64_t rows_per_unit(const PlaneLattice3& l) {
    return l.extent3().ny;
  }
  static bool periodic(const PlaneLattice3& l) {
    return l.boundary3() == Boundary3::Periodic;
  }
  static auto& flat(auto& l) { return l.inner(); }
  static PlaneLattice3 scratch(const PlaneLattice3& l, std::int64_t nz) {
    return PlaneLattice3({l.extent3().nx, l.extent3().ny, nz}, l.boundary3());
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

/// The engine's flat {nx, ny*nz} byte view, packed straight into planes.
PlaneLattice3 pack_flat(const lgca::SiteLattice& lat, Extent3 extent) {
  PlaneLattice3 planes(extent, to_boundary3(lat.boundary()));
  planes.pack(lat);
  return planes;
}

}  // namespace

void plane_gas_run3(PlaneLattice3& lat, std::int64_t generations,
                    std::int64_t t0, unsigned threads,
                    std::int64_t band_grain_words,
                    lgca::PlaneRunHooks* hooks) {
  if (!lgca::runnable(threads, generations, lat.extent3().volume())) return;
  lgca::run_banded(PlaneSlabs{}, lat, generations, t0, threads,
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
  if (!lgca::runnable(threads, generations, lat.extent3().volume())) return;
  if (generations < 2 ||
      !temporal_tiling_feasible3(tiling, lat.extent3(), lat.boundary3())) {
    plane_gas_run3(lat, generations, t0, threads, 0, hooks);
    return;
  }
  lgca::run_tiled(PlaneSlabs{}, lat, generations, t0, threads, tiling, hooks);
}

void bitplane_gas_run3(Lattice3& lat, std::int64_t generations,
                       std::int64_t t0, unsigned threads,
                       std::int64_t band_grain_words,
                       lgca::PlaneRunHooks* hooks) {
  const auto pack = [&] { return PlaneLattice3(lat); };
  lgca::packed_run(lat, pack, [&](PlaneLattice3& planes) {
    plane_gas_run3(planes, generations, t0, threads, band_grain_words, hooks);
  });
}

void bitplane_gas_run_tiled3(Lattice3& lat, std::int64_t generations,
                             std::int64_t t0, unsigned threads,
                             const lgca::TemporalTiling& tiling,
                             lgca::PlaneRunHooks* hooks) {
  const auto pack = [&] { return PlaneLattice3(lat); };
  lgca::packed_run(lat, pack, [&](PlaneLattice3& planes) {
    plane_gas_run_tiled3(planes, generations, t0, threads, tiling, hooks);
  });
}

void bitplane_gas_run3(lgca::SiteLattice& lat, Extent3 extent,
                       std::int64_t generations, std::int64_t t0,
                       unsigned threads, std::int64_t band_grain_words,
                       lgca::PlaneRunHooks* hooks) {
  LATTICE_REQUIRE(lat.extent() == flat_extent(extent),
                  "bitplane_gas_run3: flattened extent mismatch");
  const auto pack = [&] { return pack_flat(lat, extent); };
  lgca::packed_run(lat, pack, [&](PlaneLattice3& planes) {
    plane_gas_run3(planes, generations, t0, threads, band_grain_words, hooks);
  });
}

void bitplane_gas_run_tiled3(lgca::SiteLattice& lat, Extent3 extent,
                             std::int64_t generations, std::int64_t t0,
                             unsigned threads,
                             const lgca::TemporalTiling& tiling,
                             lgca::PlaneRunHooks* hooks) {
  LATTICE_REQUIRE(lat.extent() == flat_extent(extent),
                  "bitplane_gas_run_tiled3: flattened extent mismatch");
  const auto pack = [&] { return pack_flat(lat, extent); };
  lgca::packed_run(lat, pack, [&](PlaneLattice3& planes) {
    plane_gas_run_tiled3(planes, generations, t0, threads, tiling, hooks);
  });
}

}  // namespace lattice::lgca3d
