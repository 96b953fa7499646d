#include "lattice/lgca/reference.hpp"

#include "lattice/obs/metrics.hpp"

namespace lattice::lgca {

namespace {

obs::MetricsRegistry::Id reference_sites_id() {
  static const obs::MetricsRegistry::Id id =
      obs::counter_id("reference.sites");
  return id;
}

}  // namespace

SiteLattice reference_next(const SiteLattice& lat, const Rule& rule,
                           std::int64_t t) {
  const Extent e = lat.extent();
  SiteLattice out(e, lat.boundary());
  for (std::int64_t y = 0; y < e.height; ++y) {
    for (std::int64_t x = 0; x < e.width; ++x) {
      const Coord c{x, y};
      out.at(c) = rule.apply(lat.window_at(c), SiteContext{x, y, t});
    }
  }
  return out;
}

void reference_step(SiteLattice& lat, const Rule& rule, std::int64_t t) {
  lat = reference_next(lat, rule, t);
}

void reference_run(SiteLattice& lat, const Rule& rule,
                   std::int64_t generations, std::int64_t t0) {
  for (std::int64_t g = 0; g < generations; ++g) {
    reference_step(lat, rule, t0 + g);
  }
  obs::count(reference_sites_id(), lat.extent().area() * generations);
}

}  // namespace lattice::lgca
