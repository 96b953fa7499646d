#include "lattice/lgca/observables.hpp"

#include <cmath>

namespace lattice::lgca {

namespace {

/// Physical position of an array coordinate: odd hex rows sit half a
/// cell to the right.
void physical_pos(Topology t, Coord c, double& x, double& y) {
  x = static_cast<double>(c.x);
  y = static_cast<double>(c.y);
  if (t == Topology::Hex6 && (c.y & 1) != 0) x += 0.5;
}

}  // namespace

Invariants measure_invariants(const SiteLattice& lat, const GasModel& model) {
  Invariants inv;
  const Extent e = lat.extent();
  for (std::int64_t y = 0; y < e.height; ++y) {
    for (std::int64_t x = 0; x < e.width; ++x) {
      const Site s = lat.at({x, y});
      inv.mass += model.mass(s);
      const Momentum m = model.momentum(s);
      inv.px += m.px;
      inv.py += m.py;
      if (is_obstacle(s)) ++inv.obstacles;
    }
  }
  return inv;
}

Grid<FlowCell> coarse_grain(const SiteLattice& lat, const GasModel& model,
                            std::int64_t cell) {
  LATTICE_REQUIRE(cell > 0, "coarse_grain cell size must be positive");
  const Extent e = lat.extent();
  const Extent ce{(e.width + cell - 1) / cell, (e.height + cell - 1) / cell};
  Grid<FlowCell> out(ce);
  Grid<std::int64_t> sites(ce, 0);
  Grid<std::int64_t> mass(ce, 0);
  Grid<std::int64_t> px(ce, 0);
  Grid<std::int64_t> py(ce, 0);

  for (std::int64_t y = 0; y < e.height; ++y) {
    for (std::int64_t x = 0; x < e.width; ++x) {
      const Coord cc{x / cell, y / cell};
      const Site s = lat.at({x, y});
      sites.at(cc) += 1;
      mass.at(cc) += model.mass(s);
      const Momentum m = model.momentum(s);
      px.at(cc) += m.px;
      py.at(cc) += m.py;
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    FlowCell& fc = out[i];
    fc.density = sites[i] > 0
                     ? static_cast<double>(mass[i]) / static_cast<double>(sites[i])
                     : 0.0;
    if (mass[i] > 0) {
      fc.ux = static_cast<double>(px[i]) / static_cast<double>(mass[i]);
      fc.uy = static_cast<double>(py[i]) / static_cast<double>(mass[i]);
    }
  }
  return out;
}

SpreadStats measure_spread(const SiteLattice& lat, const GasModel& model,
                           double cx, double cy) {
  SpreadStats st;
  double sum_r2 = 0;
  double sum_r4 = 0;
  double sum_cubic = 0;  // Σ n·(x⁴ − 6x²y² + y⁴) = Σ n·r⁴·cos 4θ
  const Extent e = lat.extent();
  for (std::int64_t y = 0; y < e.height; ++y) {
    for (std::int64_t x = 0; x < e.width; ++x) {
      const Site s = lat.at({x, y});
      const int n = model.mass(s);
      if (n == 0) continue;
      double px = 0;
      double py = 0;
      physical_pos(model.topology(), {x, y}, px, py);
      // Hex rows are √3/2 apart in physical space.
      if (model.topology() == Topology::Hex6) py *= 0.8660254037844386;
      const double dx = px - cx;
      const double dy = py - cy;
      const double x2 = dx * dx;
      const double y2 = dy * dy;
      const double r2 = x2 + y2;
      sum_r2 += n * r2;
      sum_r4 += n * r2 * r2;
      sum_cubic += n * (x2 * x2 - 6.0 * x2 * y2 + y2 * y2);
      st.particles += n;
    }
  }
  if (st.particles > 0) {
    st.mean_r2 = sum_r2 / static_cast<double>(st.particles);
    if (sum_r4 > 0) st.anisotropy = std::abs(sum_cubic) / sum_r4;
  }
  return st;
}

std::vector<double> momentum_profile_x(const SiteLattice& lat,
                                       const GasModel& model) {
  const Extent e = lat.extent();
  std::vector<double> profile(static_cast<std::size_t>(e.height), 0.0);
  for (std::int64_t y = 0; y < e.height; ++y) {
    // Per-site px is a small integer, so an integer row sum is exact
    // and converts once.
    const Site* row = lat.grid().data() + linear_index(e, {0, y});
    std::int64_t px = 0;
    for (std::int64_t x = 0; x < e.width; ++x) {
      px += model.momentum(row[x]).px;
    }
    profile[static_cast<std::size_t>(y)] = static_cast<double>(px);
  }
  return profile;
}

double sine_mode_amplitude(const std::vector<double>& profile) {
  const auto h = static_cast<double>(profile.size());
  if (profile.empty()) return 0.0;
  double amp = 0;
  for (std::size_t y = 0; y < profile.size(); ++y) {
    amp += profile[y] *
           std::sin(2.0 * 3.141592653589793 * static_cast<double>(y) / h);
  }
  return 2.0 * amp / h;
}

}  // namespace lattice::lgca
