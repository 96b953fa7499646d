// Bit-plane (multi-spin coded) representation of the 3-D lattice.
//
// The x axis keeps the exact word layout of the 2-D PlaneLattice (64
// sites per uint64_t, the same row strides — dense below 8 payload
// words, so a 192-wide row is its 3 words, and guard-padded above),
// because the x-shift structure of propagation is identical in every
// dimension. The y and z axes need no halo storage at all: their taps
// are whole-row reads, resolved per row against the boundary (zero
// under Null, wrapped under Periodic) exactly like the 2-D kernel
// resolves its dy taps.
//
// Concretely a PlaneLattice3 of extent {nx, ny, nz} *is* a 2-D
// PlaneLattice of extent {nx, ny*nz} whose row r = z*ny + y — the same
// row-major flattening the engine uses for 3-D byte state, so packing
// and halo machinery (prepare_shift_halo, guard semantics, payload
// equality) are reused verbatim rather than reimplemented. The 3-D
// structure lives entirely in the kernel's row addressing
// (plane_kernel3.hpp). With compact rows a z-plane of one bit-plane is
// ny dense rows, one word range, so the kernel runs its interior rows
// as a single run of the 2-D span family, and the zero row a Null
// volume's edge reads is a whole zero z-plane.

#pragma once

#include <cstdint>
#include <vector>

#include "lattice/lgca/plane_lattice.hpp"
#include "lattice/lgca3d/lattice3.hpp"

namespace lattice::lgca3d {

/// The 2-D boundary mode with the same x-wrap semantics (y/z wraps are
/// the kernel's job, not the container's).
constexpr lgca::Boundary to_boundary2(Boundary3 b) noexcept {
  return b == Boundary3::Periodic ? lgca::Boundary::Periodic
                                  : lgca::Boundary::Null;
}
constexpr Boundary3 to_boundary3(lgca::Boundary b) noexcept {
  return b == lgca::Boundary::Periodic ? Boundary3::Periodic
                                       : Boundary3::Null;
}

/// The row-major 2-D flattening ({nx, ny*nz}; row r = z*ny + y) shared
/// by PlaneLattice3 and the engine's 3-D byte state.
constexpr Extent flat_extent(Extent3 e) noexcept {
  return {e.nx, e.ny * e.nz};
}

class PlaneLattice3 {
 public:
  static constexpr int kPlanes = lgca::PlaneLattice::kPlanes;

  PlaneLattice3() = default;
  PlaneLattice3(Extent3 extent, Boundary3 boundary);
  /// Pack a 3-D byte lattice (extent and boundary are taken from it).
  explicit PlaneLattice3(const Lattice3& sites);

  Extent3 extent3() const noexcept { return extent_; }
  Boundary3 boundary3() const noexcept { return boundary_; }
  std::int64_t words_per_row() const noexcept {
    return inner_.words_per_row();
  }
  std::uint64_t tail_mask() const noexcept { return inner_.tail_mask(); }

  /// The flattened 2-D lattice ({nx, ny*nz}; row r = z*ny + y). The
  /// fault guard and the run hooks operate on this view, which is what
  /// keys every fault draw by global row — identical across SIMD
  /// levels and identical between 2-D and 3-D executors.
  lgca::PlaneLattice& inner() noexcept { return inner_; }
  const lgca::PlaneLattice& inner() const noexcept { return inner_; }

  /// Payload word 0 of `plane` on row (y, z); a wide row's guard words
  /// at -1 and words_per_row() as in the 2-D layout.
  std::uint64_t* row(int plane, std::int64_t z, std::int64_t y) noexcept {
    return inner_.row(plane, z * extent_.ny + y);
  }
  const std::uint64_t* row(int plane, std::int64_t z,
                           std::int64_t y) const noexcept {
    return inner_.row(plane, z * extent_.ny + y);
  }
  /// An all-zero z-plane, ny rows at the row stride with
  /// PlaneLattice::kRowPad zero words on either side: what the plane
  /// past a Null volume's z edge, and the row past its y edge, read
  /// as. A run over a z-edge plane's rows reads it row for row.
  const std::uint64_t* zero_row() const noexcept {
    return zeros_.data() + lgca::PlaneLattice::kRowPad;
  }

  /// Fill the x shift halo of the named planes for z-planes [z0, z1)
  /// (a no-op on compact rows, which have none).
  void prepare_shift_halo(std::uint32_t plane_mask, std::int64_t z0,
                          std::int64_t z1) {
    inner_.prepare_shift_halo(plane_mask, z0 * extent_.ny, z1 * extent_.ny);
  }

  void pack(const Lattice3& sites);
  void unpack(Lattice3& sites) const;
  Lattice3 to_sites3() const;

  /// Pack/unpack the engine's flattened byte view ({nx, ny*nz}).
  void pack(const lgca::SiteLattice& sites) { inner_.pack(sites); }
  void unpack(lgca::SiteLattice& sites) const { inner_.unpack(sites); }

  /// Payload-only equality, as in the 2-D lattice.
  friend bool operator==(const PlaneLattice3& a, const PlaneLattice3& b) {
    return a.extent_ == b.extent_ && a.boundary_ == b.boundary_ &&
           a.inner_ == b.inner_;
  }

 private:
  Extent3 extent_{};
  Boundary3 boundary_ = Boundary3::Null;
  lgca::PlaneLattice inner_;
  std::vector<std::uint64_t> zeros_;
};

}  // namespace lattice::lgca3d
