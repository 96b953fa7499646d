// Lattice-gas collision models.
//
// Three classic models are provided, all built as exhaustive 256-entry
// lookup tables so that a site update is one table read — exactly the
// kind of "simple at each lattice point" computation the paper's PEs
// implement in silicon.
//
//   HPP    (Hardy–Pomeau–de Pazzis 1973): square lattice, 4 channels.
//          Single rule: head-on pair {E,W} ↔ {N,S}. Deterministic.
//   FHP-I  (Frisch–Hasslacher–Pomeau 1986): hex lattice, 6 channels.
//          Head-on pairs rotate ±60° (chirality chosen pseudo-randomly)
//          and symmetric triples rotate 60°.
//   FHP-II FHP-I plus a rest particle (bit 6) with rest-spectator
//          head-on collisions and rest creation/annihilation
//          (p_{j} + p_{j+2} ↔ rest + p_{j+1}).
//   FHP-III collision-saturated 7-bit model: the 128 particle states
//          are grouped into (mass, momentum) equivalence classes and
//          each class is cyclically permuted, so *every* state whose
//          class has more than one member collides. This is the
//          maximally collisional gas in the spirit of Frisch et al.'s
//          FHP-III (lowest viscosity); the cyclic construction makes
//          the table a bijection, which is the semi-detailed-balance
//          property equilibrium statistics rest on.
//
// Every rule conserves particle count and (integer) momentum; sites with
// the obstacle bit set reflect all incoming particles (bounce-back).
// Tables come in two chirality variants; callers select per (site, time)
// with a deterministic hash so that pipelined replays of the same
// evolution agree bit-for-bit with the golden reference. The hash is
// defined a 64-site word at a time (chirality_word), the unit of the
// bit-plane kernels; the per-site form reads one bit of it.

#pragma once

#include <array>
#include <string_view>

#include "lattice/lgca/geometry.hpp"
#include "lattice/lgca/site.hpp"

namespace lattice::lgca {

enum class GasKind { HPP, FHP_I, FHP_II, FHP_III };

std::string_view gas_kind_name(GasKind k) noexcept;

namespace detail {
/// The chirality hash's coordinate multipliers: word index w, row y,
/// plane z and generation t, each its own odd constant.
inline constexpr std::uint64_t kChiralW = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kChiralY = 0xc2b2ae3d27d4eb4fULL;
inline constexpr std::uint64_t kChiralZ = 0xd6e8feb86659fd93ULL;
inline constexpr std::uint64_t kChiralT = 0x165667b19e3779f9ULL;

/// splitmix64's finalizer, lane-wise over a word type V: std::uint64_t
/// here, and the span's vector word in plane_span.inc, which hashes
/// every lane of a vector at once. Always inlined, so no TU emits an
/// out-of-line copy built with its ISA flags.
template <class V>
[[gnu::always_inline]] constexpr V chirality_finish(V h) noexcept {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// The chirality hash, written once for the 2-D gases (at z = 0) and
/// the cubic gas (lgca3d::Gas3Model): a 64-site word's coordinates,
/// each times its own odd constant, through splitmix64's finalizer.
/// Every output bit depends on every input bit, so all 64 bits of the
/// word are usable draws (a single multiply would leave the low output
/// bits a function of the low input bits alone). The products are taken
/// mod 2^64, so a span may add them up from parts (k·A + l·A for lane
/// l of word k) and hash the same input.
constexpr std::uint64_t chirality_mix(std::int64_t w, std::int64_t y,
                                      std::int64_t z,
                                      std::int64_t t) noexcept {
  return chirality_finish(static_cast<std::uint64_t>(w) * kChiralW ^
                          static_cast<std::uint64_t>(y) * kChiralY ^
                          static_cast<std::uint64_t>(z) * kChiralZ ^
                          static_cast<std::uint64_t>(t) * kChiralT);
}
}  // namespace detail

/// A fully tabulated lattice-gas model.
class GasModel {
 public:
  /// Access the (immutable, lazily built) singleton for a model kind.
  static const GasModel& get(GasKind kind);

  GasKind kind() const noexcept { return kind_; }
  Topology topology() const noexcept { return topology_; }
  int channels() const noexcept { return channel_count(topology_); }
  bool has_rest_particle() const noexcept { return has_rest_; }

  /// Post-collision state for input `in`, chirality variant 0 or 1.
  Site collide(Site in, int variant) const noexcept {
    return table_[static_cast<std::size_t>(variant & 1)][in];
  }

  /// Chirality of the 64 sites x = 64·w .. 64·w + 63 of row y at time
  /// t, site x in bit x & 63: one mix per word, so a bit-plane span
  /// gets a whole word's variants from one call. A pure function of
  /// (w, y, t), so any replay (pipelined or not) agrees.
  static std::uint64_t chirality_word(std::int64_t w, std::int64_t y,
                                      std::int64_t t) noexcept {
    return detail::chirality_mix(w, y, 0, t);
  }

  /// Deterministic chirality variant for one site update: bit x & 63
  /// of its word's hash (x >> 6 floors, so negative x is covered).
  static int chirality(std::int64_t x, std::int64_t y,
                       std::int64_t t) noexcept {
    return static_cast<int>((chirality_word(x >> 6, y, t) >> (x & 63)) & 1);
  }

  /// Particle count of a site state (excludes obstacle bit).
  int mass(Site s) const noexcept { return particle_count(s); }

  /// Integer momentum of a site state (rest particle carries none):
  /// one read of a table the constructor builds from the channels.
  Momentum momentum(Site s) const noexcept { return momentum_[s]; }

  /// Reflect every moving particle into its opposite channel.
  Site reflect(Site s) const noexcept;

 private:
  explicit GasModel(GasKind kind);
  void build_table();
  void build_saturated_table();

  GasKind kind_;
  Topology topology_;
  bool has_rest_;
  std::array<std::array<Site, 256>, 2> table_{};
  std::array<Momentum, 256> momentum_{};
};

}  // namespace lattice::lgca
