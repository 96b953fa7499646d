// A steady advance() allocates no plane storage.
//
// Every plane lattice a bit-plane run needs (the packed planes, the
// double buffer, a tiled lane's two strips) comes from the running
// thread's spares and goes back to them when the run ends, so only a
// thread's first run at a shape allocates. Plane storage is the one
// user of common::AlignedAllocator, whose aligned operator new this
// binary replaces to count, across threads, every block of 4 KiB or
// more. After one warm advance(), the next must count none: a
// structural pin, not a timing gate.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "lattice/core/engine.hpp"
#include "lattice/core/tile_plan.hpp"
#include "lattice/lgca/init.hpp"

namespace {

constexpr std::size_t kLargeBlock = 4096;
std::atomic<std::int64_t> g_large_aligned{0};

}  // namespace

void* operator new(std::size_t n, std::align_val_t align) {
  if (n >= kLargeBlock) {
    g_large_aligned.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a nonzero multiple of the alignment.
  const std::size_t bytes = (n + a - 1) / a * a;
  void* p = std::aligned_alloc(a, bytes == 0 ? a : bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }

void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lattice::core {
namespace {

/// Large aligned blocks allocated by the second of two advance(gens)
/// calls on `engine`.
std::int64_t steady_large_blocks(LatticeEngine& engine, std::int64_t gens) {
  engine.advance(gens);
  const std::int64_t before = g_large_aligned.load();
  engine.advance(gens);
  return g_large_aligned.load() - before;
}

TEST(SteadyAlloc, TiledBitPlaneEngineAllocatesNoPlanes) {
  // Two lanes over a tiled plan: the caller's packed planes, double
  // buffer and strips, and a pool worker's strips.
  LatticeEngine::Config cfg;
  cfg.extent = {512, 1024};
  cfg.gas = lgca::GasKind::FHP_II;
  cfg.boundary = lgca::Boundary::Periodic;
  cfg.backend = Backend::BitPlane;
  cfg.threads = 2;
  cfg.tile_generations = 3;
  const std::int64_t row = plane_row_bytes(cfg.extent);
  const TilePlan plan = plan_temporal_tiles(cfg.extent, cfg.boundary, row, 3);
  ASSERT_EQ(plan.depth, 3);
  ASSERT_GE(plan.tiles, 2);
  LatticeEngine engine(cfg);
  lgca::fill_flow(engine.state(), engine.gas_model(), 0.3, 0.1, 5);
  EXPECT_EQ(steady_large_blocks(engine, 6), 0);
}

TEST(SteadyAlloc, BitPlane3EngineAllocatesNoPlanes) {
  LatticeEngine::Config cfg;
  cfg.extent = {48, 48};
  cfg.depth = 48;
  cfg.boundary = lgca::Boundary::Periodic;
  cfg.backend = Backend::BitPlane3;
  cfg.threads = 2;
  LatticeEngine engine(cfg);
  EXPECT_EQ(steady_large_blocks(engine, 4), 0);
}

TEST(SteadyAlloc, SmallBitPlaneEngineAllocatesNoPlanes) {
  // A served session's shape: a 64² lattice's planes are 4 KiB.
  LatticeEngine::Config cfg;
  cfg.extent = {64, 64};
  cfg.gas = lgca::GasKind::FHP_II;
  cfg.boundary = lgca::Boundary::Periodic;
  cfg.backend = Backend::BitPlane;
  LatticeEngine engine(cfg);
  lgca::fill_random(engine.state(), engine.gas_model(), 0.3, 9, 0.1);
  EXPECT_EQ(steady_large_blocks(engine, 8), 0);
}

}  // namespace
}  // namespace lattice::core
