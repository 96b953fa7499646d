// ThreadPool: persistent workers behind one dispatch shape, barrier-
// capable lanes (exactly n concurrent executors). Lanes must all run,
// survive exceptions, and be reusable back-to-back; Lockstep must end
// every lane at the phase where one of them threw.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "lattice/common/error.hpp"
#include "lattice/common/thread_pool.hpp"

namespace lattice::common {
namespace {

TEST(ThreadPool, ZeroWorkersRunsInline) {
  // Lanes degenerate to the caller alone.
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  EXPECT_EQ(pool.max_lanes(), 1u);
  int ran = 0;
  const std::thread::id caller = std::this_thread::get_id();
  pool.run_lanes(1, [&](unsigned lane) {
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
  EXPECT_THROW(pool.run_lanes(2, [](unsigned) {}), Error);
}

TEST(ThreadPool, LanesRunTrulyConcurrently) {
  // Every lane must pass the same barrier: if the pool serialized them,
  // this would deadlock (and the test would time out).
  ThreadPool pool(3);
  ASSERT_EQ(pool.max_lanes(), 4u);
  std::barrier<> sync(4);
  std::atomic<int> ran{0};
  std::atomic<unsigned> lane_mask{0};
  pool.run_lanes(4, [&](unsigned lane) {
    sync.arrive_and_wait();
    ran.fetch_add(1);
    lane_mask.fetch_or(1u << lane);
    sync.arrive_and_wait();
  });
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(lane_mask.load(), 0b1111u);
}

TEST(ThreadPool, RejectsMoreLanesThanCanRunConcurrently) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_lanes(4, [](unsigned) {}), Error);
}

TEST(ThreadPool, LaneExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_lanes(3,
                              [](unsigned lane) {
                                if (lane == 2) {
                                  throw std::runtime_error("lane boom");
                                }
                              }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  // Back-to-back jobs, some of them failing: every lane of every job
  // runs, and a failed job leaves the pool usable.
  ThreadPool pool(3);
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    const auto job = [&](unsigned lane) {
      total.fetch_add(1, std::memory_order_relaxed);
      if (round % 5 == 0 && lane == 1) throw std::runtime_error("round");
    };
    if (round % 5 == 0) {
      EXPECT_THROW(pool.run_lanes(4, job), std::runtime_error);
    } else {
      pool.run_lanes(4, job);
    }
  }
  EXPECT_EQ(total.load(), 50 * 4);
}

TEST(Lockstep, AThrowEndsEveryLaneAtTheSamePhase) {
  // Lane 2 throws in phase 3 of 100. Every lane must leave at that
  // phase boundary (none waits at phase 4's barrier), the other lanes
  // by step() returning false, and run_lanes must rethrow the throw.
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    Lockstep sync(4);
    std::atomic<int> phases_run[4] = {};
    EXPECT_THROW(
        pool.run_lanes(4,
                       [&](unsigned lane) {
                         for (int phase = 0; phase < 100; ++phase) {
                           const bool go_on = sync.step([&] {
                             phases_run[lane].fetch_add(1);
                             if (lane == 2 && phase == 3) {
                               throw std::runtime_error("phase 3");
                             }
                           });
                           if (!go_on) return;
                         }
                       }),
        std::runtime_error);
    for (const auto& n : phases_run) EXPECT_EQ(n.load(), 4);
  }
  // One lane: no barrier, the throw leaves at once.
  EXPECT_TRUE(SoloStep::step([] {}));
  EXPECT_THROW(SoloStep::step([] { throw std::runtime_error("solo"); }),
               std::runtime_error);
}

TEST(ThreadPool, SharedPoolSupportsEightLanes) {
  // The SPA bench runs 8 wavefront lanes on the shared pool; the pool
  // guarantees that many regardless of the host's core count.
  EXPECT_GE(ThreadPool::shared().max_lanes(), 8u);
  std::atomic<int> ran{0};
  ThreadPool::shared().run_lanes(8, [&](unsigned) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace lattice::common
