// Persistent worker-thread pool.
//
// The simulators run every parallel sweep as lanes and must not pay a
// thread-spawn per lattice generation: run_lanes runs exactly `lanes`
// bodies *concurrently*, one per executor (lane 0 on the caller). Each
// lane owns a static share of the lattice for the whole run, and lanes
// meet at a barrier between phases (a generation or a tile block of the
// band/tile runner, a wavefront step of the thread-parallel SPA) — the
// reason lanes can never be folded onto fewer threads. Lockstep below
// is that barrier, and it is what lets a lane fail without stranding
// the others.
//
// Workers are spawned once and parked on a condition variable between
// jobs. An exception thrown by a lane is captured and the first one is
// rethrown on the submitting thread; the pool stays usable.
// Submissions are serialized: the pool runs one job at a time (nested
// submission from inside a lane would deadlock — don't).

#pragma once

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lattice::common {

class ThreadPool {
 public:
  /// Spawn `workers` persistent worker threads (0 is legal: only one
  /// lane can then run, inline on the caller).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Pool threads, excluding the caller.
  unsigned workers() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Maximum concurrent lanes run_lanes can honor (workers + caller).
  unsigned max_lanes() const noexcept { return workers() + 1; }

  /// Execute job(0) .. job(lanes-1) concurrently, each lane pinned to
  /// its own executor, so lanes may barrier-synchronize among
  /// themselves. Requires lanes <= max_lanes(). lanes == 1 runs inline.
  void run_lanes(unsigned lanes, const std::function<void(unsigned)>& job);

  /// Process-wide pool shared by the engine and the parallel updaters.
  /// Sized max(hardware_concurrency, 8) - 1 so that an 8-lane SPA run is
  /// honored even on small machines (lanes block on barriers, so
  /// oversubscription is benign).
  static ThreadPool& shared();

 private:
  void worker_loop(unsigned index);

  std::vector<std::thread> threads_;

  std::mutex submit_mu_;  // one job at a time

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  unsigned active_ = 0;  // workers still inside the current epoch

  // Current job (valid while active_ > 0).
  const std::function<void(unsigned)>* job_ = nullptr;
  unsigned lanes_ = 0;
  std::exception_ptr error_;
};

/// The phase barrier of lanes that step in lockstep. Every lane runs
/// each phase's work through step(), which then waits for the other
/// lanes. A throw must not strand the lanes that did not throw at the
/// next barrier, so step() keeps it until every lane has arrived, and
/// the barrier's completion step decides, once per phase, whether any
/// lane has failed. All lanes read that one decision: they all leave at
/// the same phase boundary, the failed lanes by rethrowing, and
/// run_lanes hands the first exception to its caller.
class Lockstep {
 public:
  explicit Lockstep(unsigned lanes)
      : barrier_(static_cast<std::ptrdiff_t>(lanes), Decide{this}) {}

  /// Run this lane's share of one phase, then wait for every lane.
  /// Returns false when the run ends at this boundary.
  template <class Work>
  bool step(const Work& work) {
    std::exception_ptr error;
    try {
      work();
    } catch (...) {
      error = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
    barrier_.arrive_and_wait();
    if (error) std::rethrow_exception(error);
    return !stop_;
  }

 private:
  struct Decide {
    Lockstep* self;
    void operator()() noexcept {
      self->stop_ = self->failed_.load(std::memory_order_relaxed);
    }
  };

  std::atomic<bool> failed_{false};
  bool stop_ = false;  // written only by the completion step
  std::barrier<Decide> barrier_;
};

/// Lockstep for a run that has one lane: no barrier, and a throw
/// leaves at once.
struct SoloStep {
  template <class Work>
  static bool step(const Work& work) {
    work();
    return true;
  }
};

}  // namespace lattice::common
