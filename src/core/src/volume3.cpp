#include "volume3.hpp"

#include <cstring>

#include "lattice/common/error.hpp"
#include "lattice/lgca/reference.hpp"

namespace lattice::core::detail {

lgca3d::Extent3 extent3_of(const LatticeEngine::Config& config) {
  return {config.extent.width, config.extent.height, config.depth};
}

void golden_run(lgca::SiteLattice& state, const LatticeEngine::Config& config,
                const lgca::Rule& rule, std::int64_t generations,
                std::int64_t t0) {
  if (!backend_is_3d(config.backend)) {
    lgca::reference_run(state, rule, generations, t0);
    return;
  }
  const lgca3d::Extent3 extent = extent3_of(config);
  LATTICE_REQUIRE(state.extent() == lgca3d::flat_extent(extent),
                  "flat state does not match the 3-D extent");
  lgca3d::Lattice3 volume(extent, lgca3d::to_boundary3(config.boundary));
  static_assert(sizeof(lgca::Site) == sizeof(lgca3d::Site),
                "the flat view assumes identical site encodings");
  std::memcpy(volume.data(), state.grid().data(), state.site_count());
  lgca3d::reference_run(volume, generations, t0);
  std::memcpy(state.grid().data(), volume.data(), state.site_count());
}

}  // namespace lattice::core::detail
