// 3-D gas substrate: exhaustive table properties, streaming dynamics,
// conservation, and pipeline-vs-golden equivalence — the d = 3 legs of
// the paper's dimensionality claims.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <tuple>

#include "lattice/common/rng.hpp"
#include "lattice/lgca/gas_model.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/lgca3d/pipeline3.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"

namespace lattice::lgca3d {
namespace {

TEST(Gas3Model, MassConservedExhaustively) {
  const Gas3Model& m = Gas3Model::get();
  for (unsigned in = 0; in < 256; ++in) {
    const Site s = static_cast<Site>(in);
    for (int v = 0; v < 2; ++v) {
      EXPECT_EQ(m.mass(m.collide(s, v)), m.mass(s)) << "state " << in;
    }
  }
}

TEST(Gas3Model, MomentumConservedForFreeSites) {
  const Gas3Model& m = Gas3Model::get();
  for (unsigned in = 0; in < 256; ++in) {
    const Site s = static_cast<Site>(in);
    if (is_obstacle(s)) continue;
    for (int v = 0; v < 2; ++v) {
      EXPECT_EQ(m.momentum(m.collide(s, v)), m.momentum(s)) << "state " << in;
    }
  }
}

TEST(Gas3Model, ObstaclesReverseMomentum) {
  const Gas3Model& m = Gas3Model::get();
  for (unsigned in = 128; in < 256; ++in) {
    const Site s = static_cast<Site>(in);
    const Site out = m.collide(s, 0);
    EXPECT_TRUE(is_obstacle(out));
    EXPECT_EQ(m.momentum(out), -m.momentum(s));
  }
}

TEST(Gas3Model, CollisionIsABijection) {
  const Gas3Model& m = Gas3Model::get();
  for (int v = 0; v < 2; ++v) {
    std::array<int, 64> hits{};
    for (unsigned in = 0; in < 64; ++in) {
      ++hits[m.collide(static_cast<Site>(in), v) & kMovingMask];
    }
    for (int out = 0; out < 64; ++out) EXPECT_EQ(hits[out], 1);
  }
}

TEST(Gas3Model, VariantsAreMutualInverses) {
  const Gas3Model& m = Gas3Model::get();
  for (unsigned in = 0; in < 64; ++in) {
    const Site s = static_cast<Site>(in);
    EXPECT_EQ(m.collide(m.collide(s, 0), 1), s);
  }
}

TEST(Gas3Model, HeadOnPairsCycleThroughAxes) {
  const Gas3Model& m = Gas3Model::get();
  const Site xx = static_cast<Site>(channel_bit(0) | channel_bit(1));
  const Site yy = static_cast<Site>(channel_bit(2) | channel_bit(3));
  const Site zz = static_cast<Site>(channel_bit(4) | channel_bit(5));
  // The mass-2, momentum-0 class = {xx, yy, zz}; forward cycles it.
  const Site a = m.collide(xx, 0);
  EXPECT_TRUE(a == yy || a == zz);
  EXPECT_NE(m.collide(xx, 0), xx);
  EXPECT_EQ(m.collide(m.collide(m.collide(xx, 0), 0), 0), xx);  // 3-cycle
}

TEST(Gas3Model, SingleParticlesPassThrough) {
  const Gas3Model& m = Gas3Model::get();
  for (int d = 0; d < kChannels; ++d) {
    EXPECT_EQ(m.collide(channel_bit(d), 0), channel_bit(d));
  }
}

TEST(Gas3Model, ChiralityAtZZeroIsThe2dHash) {
  // The cubic hash only adds a z term to the 2-D gases' hash, per site
  // and per 64-site word (x doubles as a word index below).
  for (std::int64_t x = -5; x < 300; x += 7) {
    for (std::int64_t y = -3; y < 140; y += 11) {
      for (const std::int64_t t : {0, 1, 2, 17, 12345}) {
        ASSERT_EQ(Gas3Model::chirality(x, y, 0, t),
                  lgca::GasModel::chirality(x, y, t))
            << "x " << x << " y " << y << " t " << t;
        ASSERT_EQ(Gas3Model::chirality_word(x, y, 0, t),
                  lgca::GasModel::chirality_word(x, y, t))
            << "w " << x << " y " << y << " t " << t;
      }
    }
  }
}

TEST(Gas3Model, ChiralitySiteIsOneBitOfItsWord) {
  for (std::int64_t x = -200; x <= 300; ++x) {
    const std::int64_t bit = ((x % 64) + 64) % 64;  // x mod 64, floored
    for (const std::int64_t z : {-2, 1, 9}) {
      const std::uint64_t word =
          Gas3Model::chirality_word((x - bit) / 64, 3, z, 7);
      ASSERT_EQ(Gas3Model::chirality(x, 3, z, 7),
                static_cast<int>((word >> bit) & 1))
          << "x " << x << " z " << z;
    }
  }
}

TEST(Gas3Model, ChiralityOfAdjacentZIsIndependent) {
  // Bit j at z against bit j at z + 1 over 8 × 16 × 16 × 32 words, 64
  // pairs each: 2^22 pairs, so the bounds sit far beyond sampling noise.
  std::int64_t differ = 0;
  std::int64_t pairs = 0;
  for (std::int64_t w = -4; w < 4; ++w) {
    for (std::int64_t y = 0; y < 16; ++y) {
      for (std::int64_t z = 0; z < 16; ++z) {
        for (std::int64_t t = 0; t < 32; ++t) {
          differ += std::popcount(Gas3Model::chirality_word(w, y, z, t) ^
                                  Gas3Model::chirality_word(w, y, z + 1, t));
          pairs += 64;
        }
      }
    }
  }
  const double agree =
      1.0 - static_cast<double>(differ) / static_cast<double>(pairs);
  EXPECT_GE(agree, 0.47);
  EXPECT_LE(agree, 0.53);
}

TEST(Gas3Model, OppositeDirectionsPairUp) {
  for (int d = 0; d < kChannels; ++d) {
    EXPECT_EQ(opposite_dir(opposite_dir(d)), d);
    const Vec3 v = velocity_of(d);
    EXPECT_EQ(velocity_of(opposite_dir(d)), -v);
  }
}

// ---- dynamics ----

class Advection3Test : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(AllDirections, Advection3Test,
                         ::testing::Range(0, kChannels));

TEST_P(Advection3Test, LoneParticleAdvects) {
  const int dir = GetParam();
  Lattice3 lat({9, 9, 9}, Boundary3::Periodic);
  Vec3 pos{4, 4, 4};
  lat.at(pos) = channel_bit(dir);
  for (int t = 0; t < 4; ++t) {
    reference_step(lat, t);
    const Vec3 v = velocity_of(dir);
    pos = {(pos.x + v.x + 9) % 9, (pos.y + v.y + 9) % 9,
           (pos.z + v.z + 9) % 9};
    EXPECT_EQ(lat.at(pos), channel_bit(dir)) << "t=" << t;
    EXPECT_EQ(measure_invariants(lat).mass, 1);
  }
}

TEST(Lattice3, ConservationOverManyGenerations) {
  Lattice3 lat({12, 10, 8}, Boundary3::Periodic);
  fill_random(lat, 0.3, 99);
  const Invariants3 before = measure_invariants(lat);
  ASSERT_GT(before.mass, 0);
  reference_run(lat, 30);
  const Invariants3 after = measure_invariants(lat);
  EXPECT_EQ(after.mass, before.mass);
  EXPECT_EQ(after.momentum, before.momentum);
}

TEST(Lattice3, EvolutionIsExactlyReversible) {
  Lattice3 lat({10, 8, 6}, Boundary3::Periodic);
  fill_random(lat, 0.35, 77);
  const Lattice3 original = lat;
  reference_run(lat, 10);
  EXPECT_FALSE(lat == original);
  for (std::int64_t t = 10; t-- > 0;) reference_unstep(lat, t);
  EXPECT_TRUE(lat == original);
}

TEST(Lattice3, UnstepRequiresPeriodic) {
  Lattice3 lat({4, 4, 4}, Boundary3::Null);
  EXPECT_THROW(reference_unstep(lat, 0), Error);
}

TEST(Lattice3, SaturatedGasEquilibratesChannelOccupations) {
  // Ergodicity sanity: start with particles only on the x axis (an
  // excess of +x movers so net momentum is nonzero); head-on collisions
  // must scatter population into the transverse channels, which then
  // equalize (the uniform equilibrium semi-detailed balance implies).
  Lattice3 lat({12, 12, 12}, Boundary3::Periodic);
  Pcg32 rng(5);
  for (std::size_t i = 0; i < lat.site_count(); ++i) {
    Site s = 0;
    if (rng.next_bool(0.6)) s |= channel_bit(0);
    if (rng.next_bool(0.3)) s |= channel_bit(1);
    lat[i] = s;
  }
  reference_run(lat, 60);
  std::array<std::int64_t, kChannels> occ{};
  for (std::size_t i = 0; i < lat.site_count(); ++i) {
    for (int d = 0; d < kChannels; ++d) {
      if ((lat[i] & channel_bit(d)) != 0) ++occ[static_cast<std::size_t>(d)];
    }
  }
  const std::int64_t total = measure_invariants(lat).mass;
  // Note: total x-momentum is conserved, so channel 0 keeps an excess
  // over channel 1; but the transverse channels (2..5) must equalize
  // with each other and absorb a substantial share.
  const double mean_transverse =
      static_cast<double>(occ[2] + occ[3] + occ[4] + occ[5]) / 4.0;
  for (int d = 2; d < 6; ++d) {
    EXPECT_NEAR(static_cast<double>(occ[static_cast<std::size_t>(d)]),
                mean_transverse, 0.15 * mean_transverse + 20);
  }
  EXPECT_GT(mean_transverse, static_cast<double>(total) / 20.0);
  EXPECT_GT(occ[0], occ[1]);  // conserved +x momentum shows up here
}

TEST(Lattice3, BounceBackOffObstaclePlane) {
  Lattice3 lat({7, 3, 3}, Boundary3::Null);
  lat.at({3, 1, 1}) = kObstacleBit;
  lat.at({1, 1, 1}) = channel_bit(0);  // +x bound
  reference_step(lat, 0);
  EXPECT_EQ(lat.at({2, 1, 1}), channel_bit(0));
  reference_step(lat, 1);
  EXPECT_EQ(lat.at({3, 1, 1}),
            static_cast<Site>(kObstacleBit | channel_bit(1)));
  reference_step(lat, 2);
  EXPECT_EQ(lat.at({2, 1, 1}), channel_bit(1));  // reflected to -x
}

TEST(Lattice3, NullBoundaryDrains) {
  Lattice3 lat({4, 4, 4}, Boundary3::Null);
  lat.at({3, 2, 2}) = channel_bit(0);
  reference_step(lat, 0);
  EXPECT_EQ(measure_invariants(lat).mass, 0);
}

TEST(Lattice3, PeriodicWrapsAllAxes) {
  Lattice3 lat({4, 4, 4}, Boundary3::Periodic);
  lat.at({0, 0, 0}) = 5;
  EXPECT_EQ(lat.get({4, 4, 4}), 5);
  EXPECT_EQ(lat.get({-4, -4, -4}), 5);
}

TEST(Lattice3, RejectsEmptyExtent) {
  EXPECT_THROW(Lattice3({0, 4, 4}, Boundary3::Null), Error);
}

TEST(Extent3Validation, RejectsNonPositiveSides) {
  EXPECT_THROW(validate_extent3({0, 4, 4}), Error);
  EXPECT_THROW(validate_extent3({4, 0, 4}), Error);
  EXPECT_THROW(validate_extent3({4, 4, 0}), Error);
  EXPECT_THROW(validate_extent3({-1, 4, 4}), Error);
  EXPECT_THROW(validate_extent3({4, -7, 4}), Error);
  EXPECT_THROW(validate_extent3({4, 4, -64}), Error);
  EXPECT_NO_THROW(validate_extent3({1, 1, 1}));
}

TEST(Extent3Validation, RejectsSidesPastTheBound) {
  const std::int64_t over = kMaxSide3 + 1;
  EXPECT_THROW(validate_extent3({over, 1, 1}), Error);
  EXPECT_THROW(validate_extent3({1, over, 1}), Error);
  EXPECT_THROW(validate_extent3({1, 1, over}), Error);
  EXPECT_NO_THROW(validate_extent3({kMaxSide3, 1, 1}));
}

TEST(Extent3Validation, RejectsOverflowShapedVolumes) {
  // Each side individually legal; nx·ny·nz overflows int64 twice over.
  // The divide-form checks must reject without wrapping.
  const std::int64_t s = std::int64_t{1} << 24;
  EXPECT_THROW(validate_extent3({s, s, s}), Error);
  // Volume past kMaxSites3 but nowhere near int64 overflow.
  const std::int64_t big = std::int64_t{1} << 15;
  EXPECT_THROW(validate_extent3({big, big, big}), Error);
  // Exactly at the volume bound: 2^14 · 2^14 · 2^14 = 2^42.
  const std::int64_t edge = std::int64_t{1} << 14;
  EXPECT_NO_THROW(validate_extent3({edge, edge, edge}));
}

TEST(Extent3Validation, Lattice3ConstructorAppliesTheSameGate) {
  EXPECT_THROW(Lattice3({4, -1, 4}, Boundary3::Null), Error);
  const std::int64_t big = std::int64_t{1} << 15;
  EXPECT_THROW(Lattice3({big, big, big}, Boundary3::Periodic), Error);
}

// ---- pipeline equivalence ----

struct Pipe3Case {
  Extent3 e;
  int depth;
};

class Pipeline3Test : public ::testing::TestWithParam<Pipe3Case> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, Pipeline3Test,
    ::testing::Values(Pipe3Case{{6, 6, 6}, 1}, Pipe3Case{{6, 6, 6}, 3},
                      Pipe3Case{{8, 5, 4}, 2}, Pipe3Case{{4, 7, 6}, 2},
                      Pipe3Case{{10, 4, 3}, 4}),
    [](const auto& info) {
      const Pipe3Case& c = info.param;
      return "x" + std::to_string(c.e.nx) + "y" + std::to_string(c.e.ny) +
             "z" + std::to_string(c.e.nz) + "d" + std::to_string(c.depth);
    });

TEST_P(Pipeline3Test, MatchesGoldenReference) {
  const Pipe3Case c = GetParam();
  Lattice3 in(c.e, Boundary3::Null);
  fill_random(in, 0.35, 17);

  Pipeline3 pipe(c.e, c.depth);
  const Lattice3 got = pipe.run(in);

  Lattice3 want = in;
  reference_run(want, c.depth);
  EXPECT_TRUE(got == want);
}

TEST(Pipeline3, BufferIsTwoPlanesPerStage) {
  const Extent3 e{8, 6, 5};
  Lattice3 in(e, Boundary3::Null);
  fill_random(in, 0.3, 3);
  Pipeline3 pipe(e, 2);
  (void)pipe.run(in);
  // Each stage holds ~two full planes — Θ(nx·ny), the §6.4 blow-up.
  EXPECT_GE(pipe.stats().buffer_sites, 2 * (2 * 8 * 6));
  EXPECT_LE(pipe.stats().buffer_sites, 2 * (2 * 8 * 6 + 3 * 8 + 10));
  EXPECT_EQ(pipe.stats().site_updates, e.volume() * 2);
}

TEST(Pipeline3, WindowSitesFormula) {
  EXPECT_EQ(Pipeline3::window_sites({16, 16, 16}), 2 * 256 + 16 + 3);
}

TEST(Pipeline3, RejectsPeriodicInput) {
  Lattice3 in({4, 4, 4}, Boundary3::Periodic);
  Pipeline3 pipe({4, 4, 4}, 1);
  EXPECT_THROW((void)pipe.run(in), Error);
}

TEST(PlaneKernel3, EveryLevelMatchesTheGoldenUpdater) {
  // The cubic gas's flat runs and row spans at every compiled and
  // supported SIMD level against the golden updater: widths around
  // the word and vector-block edges up to the widest compact row (448)
  // and the first wide one (449); y extents with no interior row (1,
  // 2), a one-row interior (3), a short run (5) and one long enough for
  // a second chunk (19); depths whose z-edge planes are row spans under
  // Null (all of them at nz <= 2); both boundaries, obstacles, an odd
  // t0 and one past 2^32, whose hash input needs all 64 bits of its t
  // term; and three z-slab bands at grain 1 for the deeper volumes.
  for (const Boundary3 b : {Boundary3::Null, Boundary3::Periodic}) {
    for (const std::int64_t nx : {1, 63, 64, 65, 192, 448, 449}) {
      for (const std::int64_t ny : {1, 2, 3, 5, 19}) {
        for (const std::int64_t nz : {1, 2, 3}) {
          Lattice3 start({nx, ny, nz}, b);
          fill_random(start, 0.3, static_cast<std::uint64_t>(nx * 31 + ny));
          start.at({nx / 2, ny / 2, nz / 2}) = lgca::kObstacleBit;
          start.at({0, ny - 1, 0}) = lgca::kObstacleBit;
          for (const std::int64_t t0 :
               {std::int64_t{5}, (std::int64_t{1} << 40) + 7}) {
            Lattice3 want = start;
            reference_run(want, 3, t0);
            for (const lgca::SimdLevel level :
                 {lgca::SimdLevel::Scalar, lgca::SimdLevel::Avx2,
                  lgca::SimdLevel::Avx512}) {
              if (!lgca::simd_supported(level)) continue;
              const lgca::ScopedSimdLevel pin(level);
              Lattice3 got = start;
              bitplane_gas_run3(got, 3, t0, nz == 3 ? 3 : 1, 1);
              ASSERT_TRUE(got == want)
                  << nx << "x" << ny << "x" << nz << " t0 " << t0 << " level "
                  << lgca::to_string(level)
                  << (b == Boundary3::Null ? " null" : " periodic");
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lattice::lgca3d
