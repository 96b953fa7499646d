#include "lattice/common/thread_pool.hpp"

#include <algorithm>
#include <cstdio>

#include "lattice/common/error.hpp"
#include "lattice/obs/metrics.hpp"

namespace lattice::common {

namespace {

// Pool instrumentation (docs/OBSERVABILITY.md): job counts and
// latency histograms. Per-worker busy time lets a profile compute each
// worker's busy fraction; all pools in the process share one
// namespace, like the registry itself.
struct PoolObs {
  obs::MetricsRegistry::Id jobs;        // lane sets dispatched
  obs::MetricsRegistry::Id job_ns;      // histogram: whole-job latency
  obs::MetricsRegistry::Id lane_ns;     // histogram: single-lane latency
  obs::MetricsRegistry::Id caller_busy; // caller-thread busy ns

  static const PoolObs& get() {
    static const PoolObs ids = {
        obs::counter_id("pool.jobs"),
        obs::histogram_id("pool.job_ns"),
        obs::histogram_id("pool.lane_ns"),
        obs::counter_id("pool.caller.busy_ns"),
    };
    return ids;
  }
};

/// Busy-time counter for worker `index`; workers past 31 share one
/// overflow counter so the namespace stays bounded.
obs::MetricsRegistry::Id worker_busy_id(unsigned index) {
  if (index >= 32) return obs::counter_id("pool.worker.32plus.busy_ns");
  char name[40];
  std::snprintf(name, sizeof(name), "pool.worker.%u.busy_ns", index);
  return obs::counter_id(name);
}

}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop(unsigned index) {
  obs::MetricsRegistry::Id busy_id = obs::MetricsRegistry::kInvalidId;
  if constexpr (obs::kEnabled) busy_id = worker_busy_id(index);
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    const auto* job = job_;
    const unsigned lanes = lanes_;
    lk.unlock();

    std::exception_ptr err;
    if (index + 1 < lanes) {
      const std::int64_t lane_t0 = obs::kEnabled ? obs::now_ns() : 0;
      try {
        (*job)(index + 1);
      } catch (...) {
        err = std::current_exception();
      }
      if constexpr (obs::kEnabled) {
        const std::int64_t lane_dt = obs::now_ns() - lane_t0;
        obs::record(PoolObs::get().lane_ns, lane_dt);
        obs::count(busy_id, lane_dt);
      }
    }

    lk.lock();
    if (err && !error_) error_ = err;
    if (--active_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::run_lanes(unsigned lanes,
                           const std::function<void(unsigned)>& job) {
  LATTICE_REQUIRE(lanes >= 1, "need at least one lane");
  LATTICE_REQUIRE(lanes <= max_lanes(),
                  "more lanes than the pool can run concurrently");
  if (lanes == 1) {
    job(0);
    return;
  }
  std::lock_guard<std::mutex> submit(submit_mu_);
  const std::int64_t job_t0 = obs::kEnabled ? obs::now_ns() : 0;
  if constexpr (obs::kEnabled) obs::count(PoolObs::get().jobs, 1);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &job;
    lanes_ = lanes;
    error_ = nullptr;
    active_ = workers();
    ++epoch_;
  }
  cv_work_.notify_all();

  // The caller is lane 0.
  std::exception_ptr err;
  try {
    job(0);
  } catch (...) {
    err = std::current_exception();
  }
  if constexpr (obs::kEnabled) {
    obs::record(PoolObs::get().lane_ns, obs::now_ns() - job_t0);
  }

  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return active_ == 0; });
  job_ = nullptr;
  if (err && !error_) error_ = err;
  const std::exception_ptr first = error_;
  error_ = nullptr;
  lk.unlock();
  if constexpr (obs::kEnabled) {
    const std::int64_t job_dt = obs::now_ns() - job_t0;
    obs::record(PoolObs::get().job_ns, job_dt);
    obs::count(PoolObs::get().caller_busy, job_dt);
  }
  if (first) std::rethrow_exception(first);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(
      std::max(std::thread::hardware_concurrency(), 8u) - 1);
  return pool;
}

}  // namespace lattice::common
