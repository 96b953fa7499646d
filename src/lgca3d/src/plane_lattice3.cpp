#include "lattice/lgca3d/plane_lattice3.hpp"

#include <cstring>

namespace lattice::lgca3d {

PlaneLattice3::PlaneLattice3(Extent3 extent, Boundary3 boundary)
    : extent_(extent), boundary_(boundary) {
  validate_extent3(extent);
  inner_ = lgca::PlaneLattice(flat_extent(extent), to_boundary2(boundary));
  zeros_.assign(static_cast<std::size_t>(extent.ny * inner_.row_stride() +
                                         2 * lgca::PlaneLattice::kRowPad),
                0);
}

PlaneLattice3::PlaneLattice3(const Lattice3& sites)
    : PlaneLattice3(sites.extent(), sites.boundary()) {
  pack(sites);
}

void PlaneLattice3::pack(const Lattice3& sites) {
  LATTICE_REQUIRE(sites.extent() == extent_ &&
                      sites.boundary() == boundary_,
                  "PlaneLattice3::pack: lattice shape differs");
  // The raster layouts are byte-identical, so the 2-D transpose does
  // all the work once the sites are viewed as {nx, ny*nz} rows.
  lgca::SiteLattice flat(flat_extent(extent_), to_boundary2(boundary_));
  std::memcpy(flat.grid().data(), sites.data(), sites.site_count());
  inner_.pack(flat);
}

void PlaneLattice3::unpack(Lattice3& sites) const {
  LATTICE_REQUIRE(sites.extent() == extent_ &&
                      sites.boundary() == boundary_,
                  "PlaneLattice3::unpack: lattice shape differs");
  lgca::SiteLattice flat(flat_extent(extent_), to_boundary2(boundary_));
  inner_.unpack(flat);
  std::memcpy(sites.data(), flat.grid().data(), sites.site_count());
}

Lattice3 PlaneLattice3::to_sites3() const {
  Lattice3 out(extent_, boundary_);
  unpack(out);
  return out;
}

}  // namespace lattice::lgca3d
