// PlaneKernel and Backend::BitPlane — the multi-spin coded update
// against the semantic oracle. Collision equality is exhaustive (all
// 256 site states through the full pack→shift→collide→unpack pipeline,
// several times so both chirality draws occur); lattice equality runs
// 100+ generations over both boundary modes, awkward extents, thread
// counts, and the engine front door, including four-way agreement with
// the WSA and SPA architecture simulators.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lattice/core/engine.hpp"
#include "lattice/lgca/ca_rules.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/plane_kernel.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/lgca/reference.hpp"

namespace lattice::lgca {
namespace {

const char* kind_name(GasKind k) {
  switch (k) {
    case GasKind::HPP: return "HPP";
    case GasKind::FHP_I: return "FHP_I";
    case GasKind::FHP_II: return "FHP_II";
    case GasKind::FHP_III: return "FHP_III";
  }
  return "unknown";
}

/// One bit-plane generation of `lat` at time t, via the full
/// pack → prime → halo → update → unpack pipeline (the same calls
/// plane_gas_run makes once per run and once per generation).
SiteLattice plane_next(const SiteLattice& lat, const PlaneKernel& kernel,
                       std::int64_t t, std::int64_t tile_words = 0) {
  PlaneLattice cur(lat);
  PlaneLattice next(lat.extent(), lat.boundary());
  kernel.prime_static_planes(cur, next);
  cur.prepare_shift_halo(kernel.halo_planes(), 0, lat.extent().height);
  kernel.update_rows(next, cur, t, 0, lat.extent().height, tile_words);
  return next.to_sites();
}

class BitPlaneGasTest : public ::testing::TestWithParam<GasKind> {};

INSTANTIATE_TEST_SUITE_P(Gases, BitPlaneGasTest,
                         ::testing::Values(GasKind::HPP, GasKind::FHP_I,
                                           GasKind::FHP_II),
                         [](const auto& info) {
                           return std::string(kind_name(info.param));
                         });

TEST_P(BitPlaneGasTest, ExhaustiveSiteStatesThroughFullKernel) {
  // A uniform periodic lattice makes every gathered state equal the
  // uniform value, so sweeping all 256 values exercises the complete
  // boolean-algebra collision, including rest and obstacle planes.
  // Several times t so both chirality variants fire at pair states.
  const GasRule rule(GetParam());
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  const Extent e{6, 4};
  for (int s = 0; s < 256; ++s) {
    SiteLattice lat(e, Boundary::Periodic);
    for (std::size_t i = 0; i < lat.site_count(); ++i)
      lat[i] = static_cast<Site>(s);
    for (std::int64_t t = 0; t < 4; ++t) {
      const SiteLattice want = reference_next(lat, rule, t);
      const SiteLattice got = plane_next(lat, kernel, t);
      ASSERT_TRUE(got == want)
          << kind_name(GetParam()) << " state " << s << " t " << t;
    }
  }
}

TEST_P(BitPlaneGasTest, SingleStepsMatchReferenceOnAwkwardExtents) {
  // Widths crossing every word-boundary regime: sub-word, exactly one
  // word, word + 1, and a multi-word row with a partial tail.
  const GasRule rule(GetParam());
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  for (const Boundary b : {Boundary::Null, Boundary::Periodic}) {
    for (const Extent e : {Extent{1, 1}, Extent{33, 5}, Extent{64, 4},
                           Extent{65, 7}, Extent{130, 9}}) {
      SiteLattice lat(e, b);
      fill_random(lat, rule.model(), 0.35, 77, 0.25);
      if (e.width > 8) add_obstacle_disk(lat, e.width / 2, e.height / 2, 2);
      for (std::int64_t t = 0; t < 6; ++t) {
        const SiteLattice want = reference_next(lat, rule, t);
        const SiteLattice got = plane_next(lat, kernel, t);
        ASSERT_TRUE(got == want) << kind_name(GetParam()) << " " << e.width
                                 << "x" << e.height << " t " << t;
        lat = want;
      }
    }
  }
}

TEST_P(BitPlaneGasTest, HundredGenerationsBitIdentical128x128) {
  // The acceptance bar: >= 100 generations on 128x128, both boundary
  // modes, bit-identical to the golden reference.
  const GasRule rule(GetParam());
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  for (const Boundary b : {Boundary::Null, Boundary::Periodic}) {
    SiteLattice ref({128, 128}, b);
    add_obstacle_disk(ref, 64, 64, 9);
    fill_flow(ref, rule.model(), 0.3, 0.1, 2024);
    SiteLattice planes = ref;
    reference_run(ref, rule, 100);
    bitplane_gas_run(planes, kernel, 100);
    EXPECT_TRUE(planes == ref)
        << kind_name(GetParam())
        << (b == Boundary::Null ? " null" : " periodic");
  }
}

TEST_P(BitPlaneGasTest, NonzeroTimeOriginMatchesReference) {
  const GasRule rule(GetParam());
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  SiteLattice ref({65, 17}, Boundary::Periodic);
  fill_random(ref, rule.model(), 0.4, 5, 0.1);
  SiteLattice planes = ref;
  reference_run(ref, rule, 20, /*t0=*/13);
  bitplane_gas_run(planes, kernel, 20, /*t0=*/13);
  EXPECT_TRUE(planes == ref) << kind_name(GetParam());
}

TEST_P(BitPlaneGasTest, TileSeamsAreInvisible) {
  // A pathological one-word tile maximizes tile seams; output must not
  // depend on the tile size.
  const GasRule rule(GetParam());
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  SiteLattice lat({300, 11}, Boundary::Periodic);
  fill_random(lat, rule.model(), 0.3, 9, 0.2);
  const SiteLattice whole = plane_next(lat, kernel, 2);
  const SiteLattice tiled = plane_next(lat, kernel, 2, /*tile_words=*/1);
  EXPECT_TRUE(whole == tiled) << kind_name(GetParam());
}

TEST(PlaneKernel, RejectsGasesWithoutBooleanForm) {
  EXPECT_TRUE(PlaneKernel::supports(GasKind::HPP));
  EXPECT_TRUE(PlaneKernel::supports(GasKind::FHP_I));
  EXPECT_TRUE(PlaneKernel::supports(GasKind::FHP_II));
  EXPECT_FALSE(PlaneKernel::supports(GasKind::FHP_III));
  EXPECT_THROW(PlaneKernel::get(GasKind::FHP_III), Error);
}

TEST(PlaneKernel, TryGetDetectsSupportedGasRulesOnly) {
  const GasRule fhp2(GasKind::FHP_II);
  EXPECT_EQ(PlaneKernel::try_get(fhp2), &PlaneKernel::get(GasKind::FHP_II));
  const GasRule fhp3(GasKind::FHP_III);
  EXPECT_EQ(PlaneKernel::try_get(fhp3), nullptr);
  const LifeRule life;
  EXPECT_EQ(PlaneKernel::try_get(life), nullptr);
}

TEST(PlaneKernel, ZeroGenerationsAndEmptyLatticeAreNoOps) {
  const PlaneKernel& kernel = PlaneKernel::get(GasKind::HPP);
  const GasRule rule(GasKind::HPP);
  SiteLattice lat({17, 3}, Boundary::Null);
  fill_random(lat, rule.model(), 0.4, 3);
  const SiteLattice before = lat;
  bitplane_gas_run(lat, kernel, 0);
  EXPECT_TRUE(lat == before);
}

// Named to match the CI thread-sanitizer filter (see ci.yml): these are
// the runs where the banded fan-out must be race-free.
class BitPlaneParallelTest : public ::testing::TestWithParam<unsigned> {};

INSTANTIATE_TEST_SUITE_P(Workers, BitPlaneParallelTest,
                         ::testing::Values(1u, 2u, 7u, 64u));

TEST_P(BitPlaneParallelTest, AnyWorkerCountIsBitIdenticalToSerial) {
  // band_grain_words = 1 forces the planner to actually split a
  // lattice this small (the default grain floor would collapse it to
  // one inline band, which is the production behavior but not the
  // banded code path this test exists to race-check).
  const unsigned threads = GetParam();
  const GasRule rule(GasKind::FHP_II);
  const PlaneKernel& kernel = PlaneKernel::get(GasKind::FHP_II);
  for (const Boundary b : {Boundary::Null, Boundary::Periodic}) {
    SiteLattice serial({130, 17}, b);
    add_obstacle_disk(serial, 65, 8, 4);
    fill_random(serial, rule.model(), 0.3, 21, 0.15);
    SiteLattice banded = serial;
    bitplane_gas_run(serial, kernel, 15, /*t0=*/1, /*threads=*/1);
    bitplane_gas_run(banded, kernel, 15, /*t0=*/1, threads,
                     /*band_grain_words=*/1);
    EXPECT_TRUE(serial == banded) << "threads " << threads;
  }
}

TEST(BitPlaneParallel, DefaultGrainCollapsesSmallLatticesToOneBand) {
  // Production behavior on sub-megasite lattices: the grain floor means
  // every thread count runs the same inline single-band loop, so the
  // result is trivially identical and no rendezvous is paid.
  const GasRule rule(GasKind::FHP_I);
  const PlaneKernel& kernel = PlaneKernel::get(GasKind::FHP_I);
  SiteLattice one({256, 64}, Boundary::Periodic);
  fill_random(one, rule.model(), 0.3, 5, 0.1);
  SiteLattice eight = one;
  bitplane_gas_run(one, kernel, 12, 0, 1);
  bitplane_gas_run(eight, kernel, 12, 0, 8);
  EXPECT_TRUE(one == eight);
}

TEST(BitPlaneParallel, SameSeedOneVsEightThreadsIsDeterministic) {
  // Multi-thread determinism end to end: build two lattices from the
  // same seed, advance one serially and one on 8 forced bands for many
  // generations, and require the full state to match bit for bit —
  // no accumulation of band-edge or scheduling nondeterminism.
  const GasRule rule(GasKind::FHP_II);
  const PlaneKernel& kernel = PlaneKernel::get(GasKind::FHP_II);
  SiteLattice serial({320, 96}, Boundary::Periodic);
  fill_random(serial, rule.model(), 0.32, 4242, 0.12);
  add_obstacle_disk(serial, 160, 48, 11);
  SiteLattice banded({320, 96}, Boundary::Periodic);
  fill_random(banded, rule.model(), 0.32, 4242, 0.12);
  add_obstacle_disk(banded, 160, 48, 11);
  ASSERT_TRUE(serial == banded);  // same seed ⇒ same start
  bitplane_gas_run(serial, kernel, 50, 0, 1);
  bitplane_gas_run(banded, kernel, 50, 0, 8, /*band_grain_words=*/16);
  EXPECT_TRUE(serial == banded);
}

// ---- SIMD dispatch layer -------------------------------------------
//
// The vector spans only engage on rows wider than one vector of words
// (the scalar span owns the masked tail and any sub-vector remainder),
// so every lattice below is at least 640 sites wide: 10 words — wide
// enough for full AVX-512 blocks plus an overlapping final block and a
// scalar tail.

std::vector<SimdLevel> supported_vector_levels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level : {SimdLevel::Avx2, SimdLevel::Avx512}) {
    if (simd_supported(level)) levels.push_back(level);
  }
  return levels;
}

TEST(PlaneSimd, ScalarAlwaysPresentAndActiveLevelSupported) {
  EXPECT_TRUE(simd_compiled(SimdLevel::Scalar));
  EXPECT_TRUE(simd_supported(SimdLevel::Scalar));
  EXPECT_TRUE(simd_supported(plane_simd_active()));
  const PlaneSpanOps& scalar = plane_span_ops(SimdLevel::Scalar);
  EXPECT_STREQ(scalar.name, "scalar64");
  EXPECT_EQ(scalar.width_bits, 64);
}

TEST(PlaneSimd, UnsupportedLevelActivationThrows) {
  for (const SimdLevel level : {SimdLevel::Avx2, SimdLevel::Avx512}) {
    if (!simd_supported(level)) {
      EXPECT_THROW(plane_simd_set_active(level), Error);
    }
  }
}

TEST(PlaneSimd, ScopedLevelRestoresPrevious) {
  const SimdLevel before = plane_simd_active();
  {
    const ScopedSimdLevel pin(SimdLevel::Scalar);
    EXPECT_EQ(plane_simd_active(), SimdLevel::Scalar);
  }
  EXPECT_EQ(plane_simd_active(), before);
}

TEST_P(BitPlaneGasTest, ExhaustiveSiteStatesAgreeAcrossSimdLevels) {
  // All 256 uniform site states on a lattice wide enough that the
  // vector path owns most of each row, each compiled+supported vector
  // level against the pinned scalar kernel, several times t so both
  // chirality variants fire. Skips (rather than silently passing) on
  // hosts where no vector level runs.
  const std::vector<SimdLevel> levels = supported_vector_levels();
  if (levels.empty()) {
    GTEST_SKIP() << "no vector SIMD level compiled+supported on this host";
  }
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  const Extent e{640, 2};
  for (int s = 0; s < 256; ++s) {
    SiteLattice lat(e, Boundary::Periodic);
    for (std::size_t i = 0; i < lat.site_count(); ++i)
      lat[i] = static_cast<Site>(s);
    for (std::int64_t t = 0; t < 3; ++t) {
      SiteLattice scalar_out;
      {
        const ScopedSimdLevel pin(SimdLevel::Scalar);
        scalar_out = plane_next(lat, kernel, t);
      }
      for (const SimdLevel level : levels) {
        const ScopedSimdLevel pin(level);
        const SiteLattice got = plane_next(lat, kernel, t);
        ASSERT_TRUE(got == scalar_out)
            << kind_name(GetParam()) << " state " << s << " t " << t
            << " level " << to_string(level);
      }
    }
  }
}

TEST_P(BitPlaneGasTest, VectorWidthsWithAwkwardTailsAgreeWithScalar) {
  // Widths straddling every vector-block boundary regime: not a
  // multiple of 256 or 512, one bit past a block, one bit short, and a
  // masked tail in the overlapping-final-block window. Both boundary
  // modes, multi-generation so halo errors compound visibly. Column
  // tiles hand the vector spans ranges that start past word 0 and end
  // short of the last word, so the overlapping final block must stay
  // inside its tile (or give the tile to the scalar span).
  const GasRule rule(GetParam());
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  const std::vector<SimdLevel> levels = supported_vector_levels();
  if (levels.empty()) {
    GTEST_SKIP() << "no vector SIMD level compiled+supported on this host";
  }
  for (const Boundary b : {Boundary::Null, Boundary::Periodic}) {
    for (const std::int64_t width :
         {std::int64_t{511}, std::int64_t{513}, std::int64_t{575},
          std::int64_t{640}, std::int64_t{1000}, std::int64_t{1025}}) {
      SiteLattice lat({width, 5}, b);
      fill_random(lat, rule.model(), 0.35, width * 7 + 1, 0.2);
      add_obstacle_disk(lat, width / 2, 2, 2);
      for (std::int64_t t = 0; t < 4; ++t) {
        SiteLattice scalar_out;
        {
          const ScopedSimdLevel pin(SimdLevel::Scalar);
          scalar_out = plane_next(lat, kernel, t);
        }
        for (const SimdLevel level : levels) {
          const ScopedSimdLevel pin(level);
          for (const std::int64_t tile_words : {0, 1, 3, 5, 9, 12}) {
            const SiteLattice got = plane_next(lat, kernel, t, tile_words);
            ASSERT_TRUE(got == scalar_out)
                << kind_name(GetParam()) << " width " << width << " t " << t
                << " level " << to_string(level) << " tile " << tile_words
                << (b == Boundary::Null ? " null" : " periodic");
          }
        }
        lat = scalar_out;
      }
    }
  }
}

TEST_P(BitPlaneGasTest, EveryWidthAgreesWithScalarAtEachLevel) {
  // Every width 1–511 through the compact rows' runs (fewer than 8
  // payload words, up to width 448) and the row spans that take over
  // at 449, every level (scalar included) against the scalar golden
  // updater over three generations, so a width-dependent wrap fault
  // that every level shares still fails. The interior run of 19 rows
  // is 17 rows long, so its last chunk of 16 rows holds a single row,
  // and where that row is shorter than a W-word the chunk restarts 8
  // (AVX-512) or 4 (AVX2) rows earlier; that of 20 rows is 18 long,
  // and where its last two rows are shorter than a W-word they restart
  // on row 0's parity. Four threads at grain 1 split the 19 rows into
  // bands that start on either parity (rows 4, 9 and 14); odd widths
  // start at an odd t0.
  const GasRule rule(GetParam());
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  std::vector<SimdLevel> levels = supported_vector_levels();
  levels.insert(levels.begin(), SimdLevel::Scalar);
  for (std::int64_t width = 1; width <= 511; ++width) {
    const Boundary b = width % 3 == 0 ? Boundary::Null : Boundary::Periodic;
    const std::int64_t t0 = width;
    for (const std::int64_t height : {19, 20}) {
      const unsigned threads = height == 19 && width % 2 == 1 ? 4 : 1;
      SiteLattice start({width, height}, b);
      fill_random(start, rule.model(), 0.35,
                  static_cast<std::uint64_t>(width * 64 + height), 0.2);
      start.at({width / 2, 9}) = kObstacleBit;
      SiteLattice want = start;
      reference_run(want, rule, 3, t0);
      for (const SimdLevel level : levels) {
        const ScopedSimdLevel pin(level);
        SiteLattice got = start;
        bitplane_gas_run(got, kernel, 3, t0, threads, 1);
        ASSERT_TRUE(got == want)
            << kind_name(GetParam()) << " " << width << "x" << height
            << " level " << to_string(level)
            << (b == Boundary::Null ? " null" : " periodic");
      }
    }
  }
}

TEST_P(BitPlaneGasTest, FlatRunsMatchReferenceAtEachLevel) {
  // The run's edge cases against the golden updater at every level:
  // heights with no interior row (1, 2), a one-row run (3), short runs
  // (4, 5) and a 64-row run (62 rows, several chunks); widths at one
  // word, around each word-aligned compact width (where the wrap
  // switches between a tail-bit shift and a whole-word one, and 64
  // rotates), 7 words (the widest compact row) and 8; both boundaries
  // with an obstacle; even and odd t0, and a t0 past 2^32, whose hash
  // input needs all 64 bits of its t term; one thread and three at band
  // grain 1.
  const GasRule rule(GetParam());
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  for (const Boundary b : {Boundary::Null, Boundary::Periodic}) {
    for (const std::int64_t height : {1, 2, 3, 4, 5, 64}) {
      for (const std::int64_t width :
           {1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 384, 448, 449}) {
        for (const std::int64_t t0 :
             {std::int64_t{0}, std::int64_t{7}, (std::int64_t{1} << 40) + 7}) {
          SiteLattice start({width, height}, b);
          fill_random(start, rule.model(), 0.35,
                      static_cast<std::uint64_t>(width * 131 + height), 0.2);
          start.at({width / 2, height / 2}) = kObstacleBit;
          SiteLattice want = start;
          reference_run(want, rule, 4, t0);
          for (const SimdLevel level :
               {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512}) {
            if (!simd_supported(level)) continue;
            const ScopedSimdLevel pin(level);
            for (const unsigned threads : {1u, 3u}) {
              SiteLattice got = start;
              bitplane_gas_run(got, kernel, 4, t0, threads, 1);
              ASSERT_TRUE(got == want)
                  << kind_name(GetParam()) << " " << width << "x" << height
                  << " t0 " << t0 << " threads " << threads << " level "
                  << to_string(level)
                  << (b == Boundary::Null ? " null" : " periodic");
            }
          }
        }
      }
    }
  }
}

TEST_P(BitPlaneGasTest, MultiGenerationRunsMatchReferenceAtEachLevel) {
  // End-to-end (pack → N generations → unpack) against the semantic
  // oracle at every supported level, vector-engaging width.
  const GasRule rule(GetParam());
  const PlaneKernel& kernel = PlaneKernel::get(GetParam());
  SiteLattice ref({640, 24}, Boundary::Null);
  add_obstacle_disk(ref, 320, 12, 6);
  fill_flow(ref, rule.model(), 0.3, 0.1, 808);
  const SiteLattice start = ref;
  reference_run(ref, rule, 25);
  for (const SimdLevel level :
       {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512}) {
    if (!simd_supported(level)) continue;
    const ScopedSimdLevel pin(level);
    SiteLattice lat = start;
    bitplane_gas_run(lat, kernel, 25);
    EXPECT_TRUE(lat == ref)
        << kind_name(GetParam()) << " level " << to_string(level);
  }
}

}  // namespace
}  // namespace lattice::lgca

namespace lattice::core {
namespace {

using lgca::Boundary;
using lgca::GasKind;
using lgca::SiteLattice;

const char* kind_name_of(GasKind gas) {
  return gas == GasKind::HPP ? "HPP" : "FHP";
}

LatticeEngine::Config bitplane_config(GasKind gas, Boundary b,
                                      unsigned threads = 1) {
  LatticeEngine::Config cfg;
  cfg.extent = {128, 128};
  cfg.gas = gas;
  cfg.boundary = b;
  cfg.backend = Backend::BitPlane;
  cfg.threads = threads;
  return cfg;
}

TEST(EngineBitPlane, MatchesReferenceBackendOverHistory) {
  for (const GasKind gas : {GasKind::HPP, GasKind::FHP_II}) {
    for (const Boundary b : {Boundary::Null, Boundary::Periodic}) {
      LatticeEngine::Config ref_cfg = bitplane_config(gas, b);
      ref_cfg.backend = Backend::Reference;
      LatticeEngine ref(ref_cfg);
      LatticeEngine bits(bitplane_config(gas, b));
      lgca::add_obstacle_disk(ref.state(), 40, 64, 6);
      lgca::fill_flow(ref.state(), ref.gas_model(), 0.3, 0.1, 99);
      bits.state() = ref.state();
      const EngineCheckpoint start = bits.checkpoint();
      // Split advances so generation_ threads through as t0 correctly.
      ref.advance(60);
      ref.advance(47);
      bits.advance(60);
      bits.advance(47);
      EXPECT_TRUE(ref.state() == bits.state());
      EXPECT_EQ(bits.generation(), 107);
      EXPECT_TRUE(bits.verify_against_reference(start));
    }
  }
}

TEST(EngineBitPlane, FourBackendsAgreeBitForBit) {
  // BitPlane == Reference == Wsa == Spa on the same history: the
  // boolean-algebra kernel, the byte LUT, and both architecture
  // simulators are all views of one update semantics.
  for (const GasKind gas : {GasKind::HPP, GasKind::FHP_II}) {
    SiteLattice final_state[4];
    int i = 0;
    for (const Backend backend : {Backend::BitPlane, Backend::Reference,
                                  Backend::Wsa, Backend::Spa}) {
      LatticeEngine::Config cfg = bitplane_config(gas, Boundary::Null);
      cfg.backend = backend;
      cfg.pipeline_depth = 4;
      cfg.wsa_width = 2;
      LatticeEngine engine(cfg);
      lgca::add_obstacle_disk(engine.state(), 64, 64, 10);
      lgca::fill_flow(engine.state(), engine.gas_model(), 0.28, 0.08, 7);
      engine.advance(12);
      final_state[i++] = engine.state();
    }
    EXPECT_TRUE(final_state[0] == final_state[1]) << kind_name_of(gas);
    EXPECT_TRUE(final_state[0] == final_state[2]) << kind_name_of(gas);
    EXPECT_TRUE(final_state[0] == final_state[3]) << kind_name_of(gas);
  }
}

TEST(EngineBitPlane, CheckpointRestoreReplaysExactly) {
  LatticeEngine engine(bitplane_config(GasKind::FHP_II, Boundary::Periodic));
  lgca::fill_random(engine.state(), engine.gas_model(), 0.35, 17, 0.1);
  engine.advance(25);
  const EngineCheckpoint ckpt = engine.checkpoint();
  engine.advance(30);
  const SiteLattice first = engine.state();
  engine.restore(ckpt);
  EXPECT_EQ(engine.generation(), 25);
  engine.advance(30);
  EXPECT_TRUE(engine.state() == first);
}

TEST(EngineBitPlane, ThreadsComposeWithEngine) {
  LatticeEngine serial(bitplane_config(GasKind::FHP_I, Boundary::Null));
  LatticeEngine banded(bitplane_config(GasKind::FHP_I, Boundary::Null, 8));
  lgca::fill_flow(serial.state(), serial.gas_model(), 0.3, 0.1, 3);
  banded.state() = serial.state();
  serial.advance(40);
  banded.advance(40);
  EXPECT_TRUE(serial.state() == banded.state());
}

TEST(EngineBitPlane, ReportCountsSoftwareWorkOnly) {
  LatticeEngine engine(bitplane_config(GasKind::HPP, Boundary::Null));
  lgca::fill_random(engine.state(), engine.gas_model(), 0.4, 11);
  engine.advance(10);
  const PerformanceReport r = engine.report();
  EXPECT_EQ(r.backend, Backend::BitPlane);
  EXPECT_EQ(r.generations, 10);
  EXPECT_EQ(r.site_updates, 128 * 128 * 10);
  EXPECT_EQ(r.ticks, 0);                      // no simulated datapath
  EXPECT_EQ(r.bandwidth_bits_per_tick, 0.0);  // no modeled bandwidth
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.measured_rate, 0.0);
}

TEST(EngineBitPlane, RejectsUnsupportedConfigurations) {
  // FHP-III has no boolean-form kernel.
  LatticeEngine::Config cfg = bitplane_config(GasKind::FHP_III,
                                              Boundary::Null);
  EXPECT_THROW(LatticeEngine{cfg}, Error);
  // Custom rules have no boolean form either.
  const lgca::LifeRule life;
  cfg = bitplane_config(GasKind::HPP, Boundary::Null);
  cfg.custom_rule = &life;
  EXPECT_THROW(LatticeEngine{cfg}, Error);
  // Fault injection lives in the hardware simulators' buffers.
  cfg = bitplane_config(GasKind::HPP, Boundary::Null);
  cfg.fault.buffer_flip_rate = 1e-3;
  EXPECT_THROW(LatticeEngine{cfg}, Error);
}

}  // namespace
}  // namespace lattice::core
