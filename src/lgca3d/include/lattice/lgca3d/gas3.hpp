// Three-dimensional lattice gas on the cubic lattice.
//
// The paper notes (§2) that 3-D gases were "just now being formulated"
// (d'Humières–Lallemand–Frisch); its own analysis needs only the
// *dimension* of the lattice (window storage grows from Θ(L) to Θ(L²),
// the pebbling bound weakens from S^(1/2) to S^(1/3)). We therefore
// build the minimal 3-D substrate that exercises those code paths: six
// unit velocities (±x, ±y, ±z), one bit each, with a collision-
// saturated table built from (mass, momentum) equivalence classes —
// exactly conserving, bijective (semi-detailed balance), and maximally
// collisional. Like HPP in 2-D it is not isotropic enough for real
// hydrodynamics (that needs FCHC's 24 velocities), which we document
// rather than paper over; the architecture and I/O results depend only
// on d. Bit 7 marks obstacles (bounce-back), bit 6 is unused.

#pragma once

#include <array>
#include <cstdint>

#include "lattice/common/error.hpp"
#include "lattice/lgca/gas_model.hpp"

namespace lattice::lgca3d {

using Site = std::uint8_t;

inline constexpr int kChannels = 6;  // +x, -x, +y, -y, +z, -z
inline constexpr Site kObstacleBit = Site{1u << 7};
inline constexpr Site kMovingMask = Site{0x3f};

constexpr Site channel_bit(int dir) noexcept {
  return static_cast<Site>(1u << dir);
}
constexpr int opposite_dir(int dir) noexcept { return dir ^ 1; }
constexpr bool is_obstacle(Site s) noexcept {
  return (s & kObstacleBit) != 0;
}

/// Integer 3-D coordinate / momentum vector.
struct Vec3 {
  std::int64_t x = 0;
  std::int64_t y = 0;
  std::int64_t z = 0;
  friend constexpr bool operator==(Vec3, Vec3) = default;
  constexpr Vec3 operator+(Vec3 o) const noexcept {
    return {x + o.x, y + o.y, z + o.z};
  }
  constexpr Vec3 operator-() const noexcept { return {-x, -y, -z}; }
};

/// Unit velocity of channel `dir`.
constexpr Vec3 velocity_of(int dir) noexcept {
  constexpr std::array<Vec3, kChannels> v = {{{1, 0, 0},
                                              {-1, 0, 0},
                                              {0, 1, 0},
                                              {0, -1, 0},
                                              {0, 0, 1},
                                              {0, 0, -1}}};
  return v[static_cast<std::size_t>(dir)];
}

/// The tabulated 3-D gas model (singleton).
class Gas3Model {
 public:
  static const Gas3Model& get();

  /// Post-collision state; two chirality variants (mutually inverse).
  Site collide(Site in, int variant) const noexcept {
    return table_[static_cast<std::size_t>(variant & 1)][in];
  }

  int mass(Site s) const noexcept;
  Vec3 momentum(Site s) const noexcept;
  Site reflect(Site s) const noexcept;

  /// Chirality of the 64 sites x = 64·w .. 64·w + 63 of row (y, z) at
  /// time t: the 2-D gases' word hash (lgca::GasModel::chirality_word)
  /// with a z term, so the two agree at z = 0.
  static std::uint64_t chirality_word(std::int64_t w, std::int64_t y,
                                      std::int64_t z, std::int64_t t) noexcept {
    return lgca::detail::chirality_mix(w, y, z, t);
  }

  /// Deterministic chirality for one site update: bit x & 63 of its
  /// word's hash.
  static int chirality(std::int64_t x, std::int64_t y, std::int64_t z,
                       std::int64_t t) noexcept {
    return static_cast<int>((chirality_word(x >> 6, y, z, t) >> (x & 63)) &
                            1);
  }

 private:
  Gas3Model();
  std::array<std::array<Site, 256>, 2> table_{};
};

}  // namespace lattice::lgca3d
