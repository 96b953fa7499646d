// Thread-parallel SPA: the row-chunk wavefront over worker lanes must
// be bit-identical to the serial golden reference for every thread
// count, slice width, depth, and kernel choice — and its analytic
// counters must equal the cycle-exact walk's counters exactly.

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "lattice/arch/spa.hpp"
#include "lattice/common/rng.hpp"
#include "lattice/lgca/ca_rules.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/reference.hpp"

namespace lattice::arch {
namespace {

using lgca::Boundary;
using lgca::GasKind;
using lgca::GasModel;
using lgca::GasRule;
using lgca::SiteLattice;

SiteLattice random_gas(Extent e, GasKind kind, std::uint64_t seed) {
  SiteLattice lat(e, Boundary::Null);
  lgca::fill_random(lat, GasModel::get(kind), 0.35, seed, 0.2);
  return lat;
}

SiteLattice golden(const SiteLattice& in, const lgca::Rule& rule, int gens,
                   std::int64_t t0 = 0) {
  SiteLattice lat = in;
  lgca::reference_run(lat, rule, gens, t0);
  return lat;
}

// gtest prints a parameter that has no printer as its raw bytes into
// the ctest name, so the struct has no padding bytes: their stale stack
// contents would rename a case from one test listing to the next.
struct ParCase {
  std::int64_t slice;  // W (must divide 63)
  std::int32_t depth;
  std::uint32_t threads;
  std::int64_t fast;  // the fused gas kernel (a bool, stored as a word)
};
static_assert(std::has_unique_object_representations_v<ParCase>,
              "ParCase must have no padding bytes");

class ParallelSpaTest : public ::testing::TestWithParam<ParCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSpaTest,
    ::testing::Values(ParCase{7, 1, 2, false}, ParCase{7, 3, 2, true},
                      ParCase{7, 4, 7, true}, ParCase{9, 2, 2, true},
                      ParCase{9, 5, 7, false}, ParCase{21, 3, 2, true},
                      ParCase{21, 2, 7, true}, ParCase{63, 3, 2, true},
                      ParCase{63, 2, 7, false}),
    [](const auto& info) {
      const ParCase& c = info.param;
      return "s" + std::to_string(c.slice) + "d" + std::to_string(c.depth) +
             "t" + std::to_string(c.threads) + (c.fast ? "fast" : "generic");
    });

TEST_P(ParallelSpaTest, MatchesGoldenOnOddExtent) {
  const ParCase c = GetParam();
  const GasRule rule(GasKind::FHP_II);
  const SiteLattice in = random_gas({63, 17}, GasKind::FHP_II, 29);
  SpaMachine spa({63, 17}, rule, c.slice, c.depth, /*t0=*/0, c.threads,
                 c.fast);
  EXPECT_TRUE(spa.run(in) == golden(in, rule, c.depth));
}

TEST_P(ParallelSpaTest, StatsMatchCycleExactWalk) {
  // The parallel path's closed-form counters must equal what the serial
  // tick walk actually counts — they describe the same machine.
  const ParCase c = GetParam();
  const GasRule rule(GasKind::FHP_II);
  const SiteLattice in = random_gas({63, 17}, GasKind::FHP_II, 29);
  SpaMachine serial({63, 17}, rule, c.slice, c.depth);
  SpaMachine parallel({63, 17}, rule, c.slice, c.depth, /*t0=*/0, c.threads,
                      c.fast);
  const SiteLattice a = serial.run(in);
  const SiteLattice b = parallel.run(in);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(parallel.stats().ticks, serial.stats().ticks);
  EXPECT_EQ(parallel.stats().site_updates, serial.stats().site_updates);
  EXPECT_EQ(parallel.stats().mem_sites_read, serial.stats().mem_sites_read);
  EXPECT_EQ(parallel.stats().mem_sites_written,
            serial.stats().mem_sites_written);
  EXPECT_EQ(parallel.stats().boundary_fetches,
            serial.stats().boundary_fetches);
  EXPECT_EQ(parallel.stats().buffer_sites, serial.stats().buffer_sites);
}

TEST(ParallelSpa, FastKernelAloneKeepsCycleExactCountersExact) {
  // fast_kernel without threads stays on the cycle-exact walk; its
  // counters must be untouched by the kernel swap.
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({24, 10}, GasKind::FHP_I, 5);
  SpaMachine generic({24, 10}, rule, 6, 2);
  SpaMachine fused({24, 10}, rule, 6, 2, /*t0=*/0, /*threads=*/1,
                   /*fast_kernel=*/true);
  const SiteLattice a = generic.run(in);
  const SiteLattice b = fused.run(in);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(fused.stats().ticks, generic.stats().ticks);
  EXPECT_EQ(fused.stats().boundary_fetches, generic.stats().boundary_fetches);
  EXPECT_EQ(fused.stats().site_updates, generic.stats().site_updates);
}

TEST(ParallelSpa, GenericRuleRunsTheWavefrontToo) {
  // Non-gas rules can't use the LUT but still get thread parallelism.
  const lgca::LifeRule rule;
  SiteLattice in({63, 17}, Boundary::Null);
  Pcg32 rng(3);
  for (std::size_t i = 0; i < in.site_count(); ++i)
    in[i] = static_cast<lgca::Site>(rng.next() & 1);
  SpaMachine spa({63, 17}, rule, 9, 3, /*t0=*/0, /*threads=*/4,
                 /*fast_kernel=*/true);  // fast_kernel ignored: not a gas
  EXPECT_TRUE(spa.run(in) == golden(in, rule, 3));
}

TEST(ParallelSpa, NonzeroTimeOriginKeepsChiralityPhase) {
  const GasRule rule(GasKind::FHP_III);
  const SiteLattice in = random_gas({21, 13}, GasKind::FHP_III, 11);
  SpaMachine spa({21, 13}, rule, 7, 2, /*t0=*/31, /*threads=*/3,
                 /*fast_kernel=*/true);
  EXPECT_TRUE(spa.run(in) == golden(in, rule, 2, /*t0=*/31));
}

TEST(ParallelSpa, ObstaclesSurviveTheWavefront) {
  const GasRule rule(GasKind::HPP);
  SiteLattice in({24, 12}, Boundary::Null);
  lgca::add_obstacle_disk(in, 12, 6, 3);
  lgca::fill_random(in, GasModel::get(GasKind::HPP), 0.3, 8);
  SpaMachine spa({24, 12}, rule, 6, 3, /*t0=*/0, /*threads=*/4,
                 /*fast_kernel=*/true);
  EXPECT_TRUE(spa.run(in) == golden(in, rule, 3));
}

TEST(ParallelSpa, MoreThreadsThanSlicesClamps) {
  const GasRule rule(GasKind::FHP_II);
  const SiteLattice in = random_gas({16, 8}, GasKind::FHP_II, 21);
  SpaMachine spa({16, 8}, rule, 8, 2, /*t0=*/0, /*threads=*/64,
                 /*fast_kernel=*/true);  // only 2 slices
  EXPECT_TRUE(spa.run(in) == golden(in, rule, 2));
}

}  // namespace
}  // namespace lattice::arch
