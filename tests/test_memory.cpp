// Banked-memory model: when does the paper's "full bandwidth"
// assumption (§6, footnote 2) actually hold?

#include <gtest/gtest.h>

#include "lattice/arch/memory.hpp"

namespace lattice::arch {
namespace {

MemoryResult run(const MemoryConfig& cfg,
                 const std::vector<std::vector<std::int64_t>>& sched) {
  BankedMemory mem(cfg);
  return mem.service(sched);
}

TEST(BankedMemory, RasterStreamWithEnoughBanksHasNoStalls) {
  // banks ≥ busy·P: perfect interleave.
  const auto sched = wsa_address_schedule({64, 16}, /*batch=*/1);
  const auto r = run({.banks = 4, .bank_busy_ticks = 4}, sched);
  EXPECT_EQ(r.stalls, 0);
  EXPECT_EQ(r.ticks, static_cast<std::int64_t>(sched.size()));
  EXPECT_EQ(r.requests, 64 * 16);
}

TEST(BankedMemory, TooFewBanksThrottleByTheBusyRatio) {
  // One bank, busy 4: every access serializes 4 ticks.
  const auto sched = wsa_address_schedule({32, 8}, 1);
  const auto r = run({.banks = 1, .bank_busy_ticks = 4}, sched);
  EXPECT_NEAR(r.bandwidth_fraction(static_cast<std::int64_t>(sched.size())),
              0.25, 0.01);
}

TEST(BankedMemory, WideRasterNeedsProportionallyMoreBanks) {
  const auto sched = wsa_address_schedule({64, 16}, /*batch=*/4);
  const auto enough = run({.banks = 16, .bank_busy_ticks = 4}, sched);
  EXPECT_EQ(enough.stalls, 0);
  const auto short_of = run({.banks = 8, .bank_busy_ticks = 4}, sched);
  EXPECT_GT(short_of.stalls, 0);
}

TEST(BankedMemory, SpaPatternCollapsesWhenSliceWidthSharesBankFactor) {
  // W = 8 slices against 8 banks: every staggered stream lands on the
  // same bank each tick — the row-staggered pattern breaks the naive
  // interleave completely.
  const Extent e{64, 16};
  const auto sched = spa_address_schedule(e, 8);
  const auto bad = run({.banks = 8, .bank_busy_ticks = 4}, sched);
  EXPECT_LT(bad.bandwidth_fraction(static_cast<std::int64_t>(sched.size())),
            0.20);
}

TEST(BankedMemory, CoprimeBankCountRestoresSpaBandwidth) {
  const Extent e{64, 16};
  const auto sched = spa_address_schedule(e, 8);
  // 13 banks, gcd(13, 8) = 1: slices spread across banks.
  const auto good = run({.banks = 13, .bank_busy_ticks = 1}, sched);
  EXPECT_GT(good.bandwidth_fraction(static_cast<std::int64_t>(sched.size())),
            0.85);
  const auto bad = run({.banks = 16, .bank_busy_ticks = 1}, sched);
  EXPECT_GT(good.bandwidth_fraction(static_cast<std::int64_t>(sched.size())),
            bad.bandwidth_fraction(static_cast<std::int64_t>(sched.size())));
}

TEST(BankedMemory, SpaScheduleCoversEveryAddressOnce) {
  const Extent e{24, 6};
  const auto sched = spa_address_schedule(e, 8);
  std::vector<int> seen(static_cast<std::size_t>(e.area()), 0);
  std::int64_t total = 0;
  for (const auto& tick : sched) {
    for (const std::int64_t a : tick) {
      ASSERT_GE(a, 0);
      ASSERT_LT(a, e.area());
      ++seen[static_cast<std::size_t>(a)];
      ++total;
    }
  }
  EXPECT_EQ(total, e.area());
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(BankedMemory, SpaSteadyStateServesOneRequestPerSlicePerTick) {
  const Extent e{32, 8};
  const auto sched = spa_address_schedule(e, 8);
  // Middle ticks carry all 4 slices.
  bool saw_full = false;
  for (const auto& tick : sched) {
    if (tick.size() == 4) saw_full = true;
    EXPECT_LE(tick.size(), 4u);
  }
  EXPECT_TRUE(saw_full);
}

TEST(BankedMemory, RejectsBadConfiguration) {
  EXPECT_THROW(BankedMemory({.banks = 0, .bank_busy_ticks = 1}), Error);
  EXPECT_THROW(BankedMemory({.banks = 4, .bank_busy_ticks = 0}), Error);
  EXPECT_THROW(spa_address_schedule({10, 4}, 3), Error);
  EXPECT_THROW(wsa_address_schedule({10, 4}, 0), Error);
  BankedMemory mem({.banks = 2, .bank_busy_ticks = 1});
  EXPECT_THROW(mem.service({{-1}}), Error);
}

TEST(BankedMemory, EmptyScheduleIsFree) {
  BankedMemory mem({.banks = 2, .bank_busy_ticks = 2});
  const auto r = mem.service({});
  EXPECT_EQ(r.ticks, 0);
  EXPECT_EQ(r.requests, 0);
}

// WSA-E's external line FIFOs take a head write and a tail read per
// tick. Dual-bank, single-tick parts (the engine's default) keep up;
// a single bank busy for two ticks stalls the machine. Both a window
// bounded by area + lead and one at the 1024-tick floor.
TEST(LineBufferStallRate, DefaultPartsKeepUpAndSlowPartsStall) {
  const MemoryConfig line_parts{.banks = 2, .bank_busy_ticks = 1};
  const MemoryConfig slow_parts{.banks = 1, .bank_busy_ticks = 2};
  for (const Extent e : {Extent{8, 12}, Extent{64, 20}}) {
    const std::int64_t lead = 3 * (e.width + 1);  // three width-1 stages
    EXPECT_EQ(line_buffer_stall_rate(e, lead, line_parts), 0.0);
    EXPECT_GT(line_buffer_stall_rate(e, lead, slow_parts), 0.0);
  }
}

}  // namespace
}  // namespace lattice::arch
