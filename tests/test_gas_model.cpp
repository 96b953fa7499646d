#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <tuple>

#include "lattice/lgca/gas_model.hpp"

namespace lattice::lgca {
namespace {

class GasModelTest : public ::testing::TestWithParam<GasKind> {
 protected:
  const GasModel& model() const { return GasModel::get(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(AllModels, GasModelTest,
                         ::testing::Values(GasKind::HPP, GasKind::FHP_I,
                                           GasKind::FHP_II, GasKind::FHP_III),
                         [](const auto& info) {
                           switch (info.param) {
                             case GasKind::HPP: return "HPP";
                             case GasKind::FHP_I: return "FHP_I";
                             case GasKind::FHP_II: return "FHP_II";
                             case GasKind::FHP_III: return "FHP_III";
                           }
                           return "unknown";
                         });

// The central physical requirement (§2): collisions conserve particle
// number and momentum. Checked exhaustively over all 256 byte states
// and both chirality variants.
TEST_P(GasModelTest, MassConservedExhaustively) {
  const GasModel& m = model();
  for (unsigned in = 0; in < 256; ++in) {
    const Site s = static_cast<Site>(in);
    for (int v = 0; v < 2; ++v) {
      EXPECT_EQ(m.mass(m.collide(s, v)), m.mass(s))
          << "state " << in << " variant " << v;
    }
  }
}

TEST_P(GasModelTest, MomentumConservedForFreeSites) {
  const GasModel& m = model();
  for (unsigned in = 0; in < 256; ++in) {
    const Site s = static_cast<Site>(in);
    if (is_obstacle(s)) continue;
    for (int v = 0; v < 2; ++v) {
      EXPECT_EQ(m.momentum(m.collide(s, v)), m.momentum(s))
          << "state " << in << " variant " << v;
    }
  }
}

// momentum() reads a table the constructor builds; it must equal the
// sum of the occupied channels' momenta for every byte state (rest,
// obstacle and spare bits carry none).
TEST_P(GasModelTest, MomentumTableIsTheChannelSum) {
  const GasModel& m = model();
  for (unsigned in = 0; in < 256; ++in) {
    const Site s = static_cast<Site>(in);
    Momentum want;
    for (int d = 0; d < m.channels(); ++d) {
      if (has_channel(s, d)) want = want + momentum_of(m.topology(), d);
    }
    EXPECT_EQ(m.momentum(s), want) << "state " << in;
  }
}

TEST_P(GasModelTest, ObstacleSitesReverseMomentum) {
  const GasModel& m = model();
  for (unsigned in = 0; in < 256; ++in) {
    const Site s = static_cast<Site>(in);
    if (!is_obstacle(s)) continue;
    for (int v = 0; v < 2; ++v) {
      const Site out = m.collide(s, v);
      EXPECT_TRUE(is_obstacle(out)) << "obstacle flag lost, state " << in;
      EXPECT_EQ(m.momentum(out), -m.momentum(s)) << "state " << in;
      EXPECT_EQ(m.mass(out), m.mass(s)) << "state " << in;
    }
  }
}

TEST_P(GasModelTest, EmptyAndFullStatesAreFixedPoints) {
  const GasModel& m = model();
  Site full = 0;
  for (int d = 0; d < m.channels(); ++d) full |= channel_bit(d);
  for (int v = 0; v < 2; ++v) {
    EXPECT_EQ(m.collide(Site{0}, v), Site{0});
    EXPECT_EQ(m.collide(full, v), full);
  }
}

TEST_P(GasModelTest, SingleParticlePassesThrough) {
  // A lone particle cannot collide with anything.
  const GasModel& m = model();
  for (int d = 0; d < m.channels(); ++d) {
    for (int v = 0; v < 2; ++v) {
      EXPECT_EQ(m.collide(channel_bit(d), v), channel_bit(d));
    }
  }
}

TEST_P(GasModelTest, ReflectIsInvolution) {
  const GasModel& m = model();
  for (unsigned in = 0; in < 256; ++in) {
    const Site s = static_cast<Site>(in);
    EXPECT_EQ(m.reflect(m.reflect(s)), s);
  }
}

TEST(HppModel, HeadOnPairsExchangeAxes) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  const Site ew = static_cast<Site>(channel_bit(0) | channel_bit(2));
  const Site ns = static_cast<Site>(channel_bit(1) | channel_bit(3));
  for (int v = 0; v < 2; ++v) {
    EXPECT_EQ(m.collide(ew, v), ns);
    EXPECT_EQ(m.collide(ns, v), ew);
  }
}

TEST(HppModel, NonHeadOnPairsPassThrough) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  const Site en = static_cast<Site>(channel_bit(0) | channel_bit(1));
  EXPECT_EQ(m.collide(en, 0), en);
  const Site three =
      static_cast<Site>(channel_bit(0) | channel_bit(1) | channel_bit(2));
  EXPECT_EQ(m.collide(three, 0), three);
}

TEST(FhpModel, HeadOnPairRotatesByChirality) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  const Site pair03 = static_cast<Site>(channel_bit(0) | channel_bit(3));
  const Site pair14 = static_cast<Site>(channel_bit(1) | channel_bit(4));
  const Site pair25 = static_cast<Site>(channel_bit(2) | channel_bit(5));
  EXPECT_EQ(m.collide(pair03, 0), pair14);  // +60°
  EXPECT_EQ(m.collide(pair03, 1), pair25);  // -60°
  EXPECT_NE(m.collide(pair03, 0), m.collide(pair03, 1));
}

TEST(FhpModel, TripleCollisionSwapsSublattices) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  const Site tri0 =
      static_cast<Site>(channel_bit(0) | channel_bit(2) | channel_bit(4));
  const Site tri1 =
      static_cast<Site>(channel_bit(1) | channel_bit(3) | channel_bit(5));
  for (int v = 0; v < 2; ++v) {
    EXPECT_EQ(m.collide(tri0, v), tri1);
    EXPECT_EQ(m.collide(tri1, v), tri0);
  }
}

TEST(FhpModel, FhpOneIgnoresRestBit) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  EXPECT_FALSE(m.has_rest_particle());
  // Rest bit is inert: passes through every collision unchanged.
  const Site pair_rest =
      static_cast<Site>(channel_bit(0) | channel_bit(3) | kRestBit);
  const Site out = m.collide(pair_rest, 0);
  EXPECT_TRUE(has_rest(out));
}

TEST(FhpTwoModel, RestAnnihilationAndCreationAreInverse) {
  const GasModel& m = GasModel::get(GasKind::FHP_II);
  ASSERT_TRUE(m.has_rest_particle());
  for (int j = 0; j < 6; ++j) {
    const Site rest_plus = static_cast<Site>(kRestBit | channel_bit(j));
    const Site out = m.collide(rest_plus, 0);
    // rest + p_j → p_{j-1} + p_{j+1}
    const Site expect = static_cast<Site>(
        channel_bit(rotate_dir(Topology::Hex6, j, -1)) |
        channel_bit(rotate_dir(Topology::Hex6, j, +1)));
    EXPECT_EQ(out, expect) << "j=" << j;
    // and back again
    EXPECT_EQ(m.collide(out, 0), rest_plus) << "j=" << j;
  }
}

TEST(FhpTwoModel, HeadOnWithRestSpectatorStillRotates) {
  const GasModel& m = GasModel::get(GasKind::FHP_II);
  const Site in = static_cast<Site>(channel_bit(0) | channel_bit(3) | kRestBit);
  const Site out0 = m.collide(in, 0);
  EXPECT_TRUE(has_rest(out0));
  EXPECT_EQ(static_cast<Site>(out0 & ~kRestBit),
            static_cast<Site>(channel_bit(1) | channel_bit(4)));
}

TEST(FhpTwoModel, CollisionCountExceedsFhpOne) {
  // FHP-II is strictly "more collisional" than FHP-I: more states change
  // under collision (this drives its lower viscosity).
  const GasModel& m1 = GasModel::get(GasKind::FHP_I);
  const GasModel& m2 = GasModel::get(GasKind::FHP_II);
  int changed1 = 0;
  int changed2 = 0;
  for (unsigned in = 0; in < 128; ++in) {  // particle states only
    const Site s = static_cast<Site>(in);
    changed1 += (m1.collide(s, 0) != s);
    changed2 += (m2.collide(s, 0) != s);
  }
  EXPECT_GT(changed2, changed1);
}

TEST_P(GasModelTest, CollisionIsABijectionOnFreeStates) {
  // Semi-detailed balance: the collision map must permute the particle
  // states (uniform measure preserved) — required for the Fermi-Dirac
  // equilibria of lattice gases. Holds for every model and variant.
  const GasModel& m = model();
  for (int v = 0; v < 2; ++v) {
    std::array<int, 256> hits{};
    for (unsigned in = 0; in < 128; ++in) {  // particle states, no obstacle
      ++hits[m.collide(static_cast<Site>(in), v)];
    }
    for (unsigned out = 0; out < 128; ++out) {
      EXPECT_EQ(hits[out], 1) << "state " << out << " variant " << v;
    }
  }
}

TEST_P(GasModelTest, ChiralityVariantsAreMutualInverses) {
  // collide(·,1) must invert collide(·,0) on every non-obstacle state:
  // this is what makes the evolution exactly reversible (gas_unstep).
  const GasModel& m = model();
  for (unsigned in = 0; in < 128; ++in) {
    const Site s = static_cast<Site>(in);
    EXPECT_EQ(m.collide(m.collide(s, 0), 1), s) << "state " << in;
    EXPECT_EQ(m.collide(m.collide(s, 1), 0), s) << "state " << in;
  }
}

TEST(FhpThreeModel, StateUnchangedIffItsClassIsASingleton) {
  // Collision-saturated: a state passes through unchanged exactly when
  // no other state shares its (mass, momentum) class.
  const GasModel& m = GasModel::get(GasKind::FHP_III);
  std::map<std::tuple<int, int, int>, int> class_size;
  for (unsigned in = 0; in < 128; ++in) {
    const Site s = static_cast<Site>(in);
    const Momentum p = m.momentum(s);
    ++class_size[{m.mass(s), p.px, p.py}];
  }
  for (unsigned in = 0; in < 128; ++in) {
    const Site s = static_cast<Site>(in);
    const Momentum p = m.momentum(s);
    const bool singleton = class_size[{m.mass(s), p.px, p.py}] == 1;
    for (int v = 0; v < 2; ++v) {
      EXPECT_EQ(m.collide(s, v) == s, singleton)
          << "state " << in << " variant " << v;
    }
  }
}

TEST(FhpThreeModel, StrictlyMoreCollisionalThanFhpTwo) {
  const GasModel& m2 = GasModel::get(GasKind::FHP_II);
  const GasModel& m3 = GasModel::get(GasKind::FHP_III);
  int changed2 = 0;
  int changed3 = 0;
  for (unsigned in = 0; in < 128; ++in) {
    const Site s = static_cast<Site>(in);
    changed2 += (m2.collide(s, 0) != s);
    changed3 += (m3.collide(s, 0) != s);
  }
  EXPECT_GT(changed3, changed2);
}

TEST(FhpThreeModel, HeadOnPairsCycleLikeFhpOne) {
  // The class construction reproduces the classic head-on rotation.
  const GasModel& m = GasModel::get(GasKind::FHP_III);
  const Site pair03 = static_cast<Site>(channel_bit(0) | channel_bit(3));
  const Site pair14 = static_cast<Site>(channel_bit(1) | channel_bit(4));
  const Site pair25 = static_cast<Site>(channel_bit(2) | channel_bit(5));
  EXPECT_EQ(m.collide(pair03, 0), pair14);
  EXPECT_EQ(m.collide(pair14, 0), pair25);
  EXPECT_EQ(m.collide(pair25, 0), pair03);
  EXPECT_EQ(m.collide(pair03, 1), pair25);
}

TEST(FhpThreeModel, VariantsAreMutualInverses) {
  const GasModel& m = GasModel::get(GasKind::FHP_III);
  for (unsigned in = 0; in < 128; ++in) {
    const Site s = static_cast<Site>(in);
    EXPECT_EQ(m.collide(m.collide(s, 0), 1), s) << "state " << in;
  }
}

namespace {
/// Rotate every moving particle of `s` by `steps` direction increments.
Site rotate_site(const GasModel& m, Site s, int steps) {
  Site out = static_cast<Site>(s & ~((1u << m.channels()) - 1));
  for (int d = 0; d < m.channels(); ++d) {
    if (has_channel(s, d)) {
      out |= channel_bit(rotate_dir(m.topology(), d, steps));
    }
  }
  return out;
}
}  // namespace

TEST_P(GasModelTest, CollisionCommutesWithLatticeRotation) {
  // The lattice's point symmetry (90° square / 60° hex) must be a
  // symmetry of the dynamics: rotate-then-collide = collide-then-rotate
  // (with the same chirality variant). FHP-III's class-cycling breaks
  // exact equivariance of the *choice* within a class, so it is tested
  // only up to class membership below.
  const GasModel& m = model();
  if (m.kind() == GasKind::FHP_III) GTEST_SKIP();
  for (unsigned in = 0; in < 128; ++in) {
    const Site s = static_cast<Site>(in);
    for (int v = 0; v < 2; ++v) {
      EXPECT_EQ(m.collide(rotate_site(m, s, 1), v),
                rotate_site(m, m.collide(s, v), 1))
          << "state " << in << " variant " << v;
    }
  }
}

TEST(FhpThreeModel, RotationPreservesCollisionClasses) {
  // Weaker equivariance for the saturated model: rotating the input
  // rotates the output's (mass, momentum) class — physics is still
  // rotation-invariant even though the representative choice is not.
  const GasModel& m = GasModel::get(GasKind::FHP_III);
  for (unsigned in = 0; in < 128; ++in) {
    const Site s = static_cast<Site>(in);
    const Site a = m.collide(rotate_site(m, s, 1), 0);
    const Site b = rotate_site(m, m.collide(s, 0), 1);
    EXPECT_EQ(m.mass(a), m.mass(b));
    EXPECT_EQ(m.momentum(a), m.momentum(b));
  }
}

TEST(Chirality, IsDeterministicAndBalanced) {
  int ones = 0;
  constexpr int n = 4096;
  for (int i = 0; i < n; ++i) {
    const int c = GasModel::chirality(i % 64, i / 64, i % 7);
    EXPECT_EQ(c, GasModel::chirality(i % 64, i / 64, i % 7));
    ones += c;
  }
  EXPECT_GT(ones, n / 3);
  EXPECT_LT(ones, 2 * n / 3);
}

// ---- the chirality hash, a 64-site word at a time ----
//
// Kernels read chirality as one word per (w, y, t) and per-site callers
// read one bit of it, so every bit position is a draw of its own. The
// grid is fixed (no seeds): 16 words × 64 rows × 64 generations = 2^16
// triples. A rate over n draws has standard error 0.5 / sqrt(n), so
// every bound below sits at least 6σ out.

// Calls f(w, y, t) on every triple of the grid.
template <class F>
void for_each_triple(F f) {
  for (std::int64_t w = -8; w < 8; ++w) {
    for (std::int64_t y = 0; y < 64; ++y) {
      for (std::int64_t t = 0; t < 64; ++t) f(w, y, t);
    }
  }
}

// Rate at which bit j of chirality_word(w, y, t) equals bit j of
// neighbour(w, y, t), over the bits in `mask` and the whole grid.
template <class Neighbour>
double agreement(Neighbour neighbour, std::uint64_t mask) {
  std::int64_t differ = 0;
  std::int64_t pairs = 0;
  for_each_triple([&](std::int64_t w, std::int64_t y, std::int64_t t) {
    differ += std::popcount(
        (GasModel::chirality_word(w, y, t) ^ neighbour(w, y, t)) & mask);
    pairs += std::popcount(mask);
  });
  EXPECT_GE(pairs, std::int64_t{1} << 16);
  return 1.0 - static_cast<double>(differ) / static_cast<double>(pairs);
}

TEST(ChiralityWord, SiteIsOneBitOfItsWord) {
  for (std::int64_t x = -200; x <= 300; ++x) {
    const std::int64_t bit = ((x % 64) + 64) % 64;  // x mod 64, floored
    for (const std::int64_t y : {-7, 0, 3, 64}) {
      for (const std::int64_t t : {0, 1, 5, 1000}) {
        const std::uint64_t word =
            GasModel::chirality_word((x - bit) / 64, y, t);
        ASSERT_EQ(GasModel::chirality(x, y, t),
                  static_cast<int>((word >> bit) & 1))
            << "x " << x << " y " << y << " t " << t;
      }
    }
  }
}

TEST(ChiralityWord, EveryBitPositionIsBalanced) {
  std::array<std::int64_t, 64> ones{};
  std::int64_t words = 0;
  for_each_triple([&](std::int64_t w, std::int64_t y, std::int64_t t) {
    const std::uint64_t c = GasModel::chirality_word(w, y, t);
    for (int j = 0; j < 64; ++j) {
      ones[j] += static_cast<std::int64_t>((c >> j) & 1);
    }
    ++words;
  });
  ASSERT_GE(words, 4096);
  for (int j = 0; j < 64; ++j) {
    const double frac = static_cast<double>(ones[j]) / words;
    EXPECT_GE(frac, 0.45) << "bit " << j;
    EXPECT_LE(frac, 0.55) << "bit " << j;
  }
}

TEST(ChiralityWord, NeighbouringDrawsAreIndependent) {
  using W = std::int64_t;
  const std::uint64_t all = ~std::uint64_t{0};
  const struct {
    const char* neighbour;
    double rate;
  } cases[] = {
      // x and x + 1 inside a word: bits 0..62 against bits 1..63.
      {"x + 1, same word",
       agreement([](W w, W y, W t) {
         return GasModel::chirality_word(w, y, t) >> 1;
       }, all >> 1)},
      // x = 64w + 63 against 64w + 64: bit 63 against the next word's
      // bit 0.
      {"x + 1, next word",
       agreement([](W w, W y, W t) {
         return GasModel::chirality_word(w + 1, y, t) << 63;
       }, std::uint64_t{1} << 63)},
      {"y + 1", agreement([](W w, W y, W t) {
         return GasModel::chirality_word(w, y + 1, t);
       }, all)},
      {"t + 1", agreement([](W w, W y, W t) {
         return GasModel::chirality_word(w, y, t + 1);
       }, all)},
  };
  for (const auto& c : cases) {
    EXPECT_GE(c.rate, 0.47) << c.neighbour;
    EXPECT_LE(c.rate, 0.53) << c.neighbour;
  }
}

TEST(GasKindName, AllNamed) {
  EXPECT_EQ(gas_kind_name(GasKind::HPP), "HPP");
  EXPECT_EQ(gas_kind_name(GasKind::FHP_I), "FHP-I");
  EXPECT_EQ(gas_kind_name(GasKind::FHP_II), "FHP-II");
}

}  // namespace
}  // namespace lattice::lgca
