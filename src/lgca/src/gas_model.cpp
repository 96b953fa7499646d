#include "lattice/lgca/gas_model.hpp"

#include <map>
#include <tuple>
#include <vector>

#include "lattice/common/error.hpp"

namespace lattice::lgca {

namespace {

/// Mask of all moving-channel bits for a topology.
constexpr Site moving_mask(Topology t) noexcept {
  return t == Topology::Square4 ? Site{0x0f} : Site{0x3f};
}

/// Rotate every moving particle in `moving` by `steps` direction
/// increments; non-channel bits must be stripped by the caller.
Site rotate_state(Topology t, Site moving, int steps) noexcept {
  Site out = 0;
  for (int d = 0; d < channel_count(t); ++d) {
    if (has_channel(moving, d)) {
      out |= channel_bit(rotate_dir(t, d, steps));
    }
  }
  return out;
}

}  // namespace

std::string_view gas_kind_name(GasKind k) noexcept {
  switch (k) {
    case GasKind::HPP:
      return "HPP";
    case GasKind::FHP_I:
      return "FHP-I";
    case GasKind::FHP_II:
      return "FHP-II";
    case GasKind::FHP_III:
      return "FHP-III";
  }
  return "?";
}

const GasModel& GasModel::get(GasKind kind) {
  static const GasModel hpp{GasKind::HPP};
  static const GasModel fhp1{GasKind::FHP_I};
  static const GasModel fhp2{GasKind::FHP_II};
  static const GasModel fhp3{GasKind::FHP_III};
  switch (kind) {
    case GasKind::HPP:
      return hpp;
    case GasKind::FHP_I:
      return fhp1;
    case GasKind::FHP_II:
      return fhp2;
    case GasKind::FHP_III:
      return fhp3;
  }
  LATTICE_ASSERT(false, "unknown GasKind");
  return fhp2;  // unreachable
}

GasModel::GasModel(GasKind kind)
    : kind_(kind),
      topology_(kind == GasKind::HPP ? Topology::Square4 : Topology::Hex6),
      has_rest_(kind == GasKind::FHP_II || kind == GasKind::FHP_III) {
  // Before the collision tables: the FHP-III class build reads momentum().
  for (unsigned s = 0; s < 256; ++s) {
    Momentum m;
    for (int d = 0; d < channels(); ++d) {
      if (has_channel(static_cast<Site>(s), d)) {
        m = m + momentum_of(topology_, d);
      }
    }
    momentum_[s] = m;
  }
  if (kind == GasKind::FHP_III) {
    build_saturated_table();
  } else {
    build_table();
  }
}

Site GasModel::reflect(Site s) const noexcept {
  Site out = static_cast<Site>(s & ~moving_mask(topology_));
  for (int d = 0; d < channels(); ++d) {
    if (has_channel(s, d)) {
      out |= channel_bit(opposite_dir(topology_, d));
    }
  }
  return out;
}

void GasModel::build_table() {
  const Site mmask = moving_mask(topology_);
  const int n = channels();

  for (int variant = 0; variant < 2; ++variant) {
    // ±60° (hex) or ±90° (square) rotation for this chirality variant.
    const int rot = variant == 0 ? +1 : -1;
    auto& tab = table_[static_cast<std::size_t>(variant)];

    for (unsigned in = 0; in < 256; ++in) {
      const Site s = static_cast<Site>(in);

      // Obstacle sites bounce every incoming particle straight back and
      // keep the obstacle flag. (Rest particles, if any, stay put.)
      if (is_obstacle(s)) {
        tab[in] = reflect(s);
        continue;
      }

      // Bits above the model's particle bits pass through unchanged so
      // the table is total over all 256 byte values.
      const Site moving = static_cast<Site>(s & mmask);
      const Site rest = static_cast<Site>(s & kRestBit);
      const Site extra = static_cast<Site>(s & ~(mmask | kRestBit));
      Site out_moving = moving;
      Site out_rest = rest;

      if (kind_ == GasKind::HPP) {
        // Single head-on exchange: {E,W} ↔ {N,S}, only when the site
        // holds exactly that pair.
        const Site ew = static_cast<Site>(channel_bit(0) | channel_bit(2));
        const Site ns = static_cast<Site>(channel_bit(1) | channel_bit(3));
        if (moving == ew) out_moving = ns;
        else if (moving == ns) out_moving = ew;
      } else {
        // --- FHP rules (hex) ---
        bool matched = false;

        // Head-on two-body: {i, i+3} rotates ±60°; a rest particle (in
        // FHP-II) may sit by as a spectator.
        for (int i = 0; i < 3 && !matched; ++i) {
          const Site pair =
              static_cast<Site>(channel_bit(i) | channel_bit(i + 3));
          if (moving == pair) {
            out_moving = rotate_state(topology_, pair, rot);
            matched = true;
          }
        }

        // Symmetric three-body: {i, i+2, i+4} rotates 60° (self-inverse
        // as a pair of states; chirality-independent).
        if (!matched) {
          const Site tri0 = static_cast<Site>(channel_bit(0) |
                                              channel_bit(2) | channel_bit(4));
          const Site tri1 = static_cast<Site>(channel_bit(1) |
                                              channel_bit(3) | channel_bit(5));
          // In FHP-II a rest particle blocks the triple collision (it
          // would otherwise collide by the annihilation rule first); in
          // FHP-I bit 6 is inert and ignored.
          const bool rest_clear = !has_rest_ || rest == 0;
          if (moving == tri0 && rest_clear) {
            out_moving = tri1;
            matched = true;
          } else if (moving == tri1 && rest_clear) {
            out_moving = tri0;
            matched = true;
          }
        }

        if (!matched && kind_ == GasKind::FHP_II) {
          // Rest annihilation: rest + p_j → p_{j-1} + p_{j+1}.
          if (rest != 0 && std::popcount(static_cast<unsigned>(moving)) == 1) {
            int j = std::countr_zero(static_cast<unsigned>(moving));
            out_moving = static_cast<Site>(
                channel_bit(rotate_dir(topology_, j, -1)) |
                channel_bit(rotate_dir(topology_, j, +1)));
            out_rest = 0;
            matched = true;
          }
          // Rest creation: p_j + p_{j+2} → rest + p_{j+1}.
          if (!matched && rest == 0 &&
              std::popcount(static_cast<unsigned>(moving)) == 2) {
            for (int j = 0; j < n; ++j) {
              const Site two = static_cast<Site>(
                  channel_bit(j) | channel_bit(rotate_dir(topology_, j, 2)));
              if (moving == two) {
                out_moving = channel_bit(rotate_dir(topology_, j, 1));
                out_rest = kRestBit;
                matched = true;
                break;
              }
            }
          }
        }
      }

      // FHP-I has no rest particle: bit 6 passes through as inert.
      tab[in] = static_cast<Site>(out_moving | out_rest | extra);
    }
  }
}

void GasModel::build_saturated_table() {
  // FHP-III: group the 2^7 particle states into (mass, momentum)
  // equivalence classes and cyclically permute each class — variant 0
  // forward, variant 1 backward. Conservation and bijectivity hold by
  // construction, and every state with a class-mate collides.
  const Site mmask = moving_mask(topology_);
  const Site particle_mask = static_cast<Site>(mmask | kRestBit);

  // Key classes by (mass, px, py) packed into one integer.
  std::map<std::tuple<int, int, int>, std::vector<Site>> classes;
  for (unsigned in = 0; in < 128; ++in) {
    const Site s = static_cast<Site>(in);
    if ((s & ~particle_mask) != 0) continue;
    const Momentum m = momentum(s);
    classes[{mass(s), m.px, m.py}].push_back(s);
  }

  std::array<Site, 128> forward{};
  std::array<Site, 128> backward{};
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
      const Site particles = static_cast<Site>(s & particle_mask);
      const Site extra = static_cast<Site>(s & ~particle_mask);
      const Site out =
          variant == 0 ? forward[particles] : backward[particles];
      tab[in] = static_cast<Site>(out | extra);
    }
  }
}

}  // namespace lattice::lgca
