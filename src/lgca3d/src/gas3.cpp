#include "lattice/lgca3d/gas3.hpp"

#include <bit>
#include <map>
#include <tuple>
#include <vector>

namespace lattice::lgca3d {

const Gas3Model& Gas3Model::get() {
  static const Gas3Model model;
  return model;
}

int Gas3Model::mass(Site s) const noexcept {
  return std::popcount(static_cast<unsigned>(s & kMovingMask));
}

Vec3 Gas3Model::momentum(Site s) const noexcept {
  Vec3 p;
  for (int d = 0; d < kChannels; ++d) {
    if ((s & channel_bit(d)) != 0) p = p + velocity_of(d);
  }
  return p;
}

Site Gas3Model::reflect(Site s) const noexcept {
  Site out = static_cast<Site>(s & ~kMovingMask);
  for (int d = 0; d < kChannels; ++d) {
    if ((s & channel_bit(d)) != 0) out |= channel_bit(opposite_dir(d));
  }
  return out;
}

Gas3Model::Gas3Model() {
  // Saturated class construction, as in FHP-III: cyclically permute
  // each (mass, momentum) equivalence class of the 2^6 moving states.
  std::map<std::tuple<int, std::int64_t, std::int64_t, std::int64_t>,
           std::vector<Site>>
      classes;
  for (unsigned in = 0; in < 64; ++in) {
    const Site s = static_cast<Site>(in);
    const Vec3 p = momentum(s);
    classes[{mass(s), p.x, p.y, p.z}].push_back(s);
  }
  std::array<Site, 64> forward{};
  std::array<Site, 64> backward{};
  for (const auto& [key, members] : classes) {
    (void)key;
    const std::size_t n = members.size();
    for (std::size_t i = 0; i < n; ++i) {
      forward[members[i]] = members[(i + 1) % n];
      backward[members[i]] = members[(i + n - 1) % n];
    }
  }
  for (int variant = 0; variant < 2; ++variant) {
    auto& tab = table_[static_cast<std::size_t>(variant)];
    for (unsigned in = 0; in < 256; ++in) {
      const Site s = static_cast<Site>(in);
      if (is_obstacle(s)) {
        tab[in] = reflect(s);
        continue;
      }
      const Site moving = static_cast<Site>(s & kMovingMask);
      const Site extra = static_cast<Site>(s & ~kMovingMask);
      tab[in] = static_cast<Site>(
          (variant == 0 ? forward[moving] : backward[moving]) | extra);
    }
  }
}

}  // namespace lattice::lgca3d
