// The observability layer's own contract: counters merge exactly
// across threads, histogram buckets land on the documented power-of-two
// boundaries, the disabled paths allocate nothing, the trace export is
// well-formed Chrome Trace JSON (checked through a real parser), and
// the engine's MetricsReport phases account for its wall-clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lattice/common/thread_pool.hpp"
#include "lattice/core/engine.hpp"
#include "lattice/core/metrics_report.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca3d/lattice3.hpp"
#include "lattice/obs/json.hpp"
#include "lattice/obs/metrics.hpp"
#include "lattice/obs/trace.hpp"

namespace {

using namespace lattice;

// ---- allocation counting (for the zero-allocation contracts) ----

std::atomic<std::int64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

// ---- a minimal JSON parser (validates, no DOM) ----
//
// Enough of RFC 8259 to round-trip what JsonWriter and trace_to_json
// emit: objects, arrays, strings with escapes, numbers, literals.
// parse() returns false on any syntax error; object keys seen anywhere
// are collected so tests can assert on the document's vocabulary.
class MiniJsonParser {
 public:
  bool parse(const std::string& text) {
    s_ = text.c_str();
    ok_ = true;
    skip_ws();
    value();
    skip_ws();
    return ok_ && *s_ == '\0';
  }

  const std::vector<std::string>& keys() const { return keys_; }

 private:
  void fail() { ok_ = false; }
  void skip_ws() {
    while (*s_ == ' ' || *s_ == '\t' || *s_ == '\n' || *s_ == '\r') ++s_;
  }
  bool consume(char c) {
    if (*s_ != c) return false;
    ++s_;
    return true;
  }

  void value() {
    if (!ok_) return;
    switch (*s_) {
      case '{': object(); return;
      case '[': array(); return;
      case '"': string_lit(nullptr); return;
      case 't': literal("true"); return;
      case 'f': literal("false"); return;
      case 'n': literal("null"); return;
      default: number(); return;
    }
  }

  void object() {
    consume('{');
    skip_ws();
    if (consume('}')) return;
    while (ok_) {
      skip_ws();
      std::string key;
      string_lit(&key);
      if (ok_) keys_.push_back(key);
      skip_ws();
      if (!consume(':')) return fail();
      skip_ws();
      value();
      skip_ws();
      if (consume('}')) return;
      if (!consume(',')) return fail();
    }
  }

  void array() {
    consume('[');
    skip_ws();
    if (consume(']')) return;
    while (ok_) {
      skip_ws();
      value();
      skip_ws();
      if (consume(']')) return;
      if (!consume(',')) return fail();
    }
  }

  void string_lit(std::string* out) {
    if (!consume('"')) return fail();
    while (*s_ != '"') {
      if (*s_ == '\0') return fail();
      if (*s_ == '\\') {
        ++s_;
        if (*s_ == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++s_;
            if (std::isxdigit(static_cast<unsigned char>(*s_)) == 0) {
              return fail();
            }
          }
        } else if (*s_ == '\0') {
          return fail();
        }
      } else if (out != nullptr) {
        out->push_back(*s_);
      }
      ++s_;
    }
    ++s_;
  }

  void literal(const char* word) {
    for (; *word != '\0'; ++word) {
      if (!consume(*word)) return fail();
    }
  }

  void number() {
    const char* start = s_;
    consume('-');
    while (std::isdigit(static_cast<unsigned char>(*s_)) != 0) ++s_;
    if (consume('.')) {
      while (std::isdigit(static_cast<unsigned char>(*s_)) != 0) ++s_;
    }
    if (*s_ == 'e' || *s_ == 'E') {
      ++s_;
      if (*s_ == '+' || *s_ == '-') ++s_;
      while (std::isdigit(static_cast<unsigned char>(*s_)) != 0) ++s_;
    }
    if (s_ == start) fail();
  }

  const char* s_ = "";
  bool ok_ = true;
  std::vector<std::string> keys_;
};

// ---- registry: counters ----

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry reg;
  const auto a = reg.counter("test.counter");
  const auto b = reg.counter("test.counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.counter("test.other"));
}

TEST(MetricsRegistry, CountersMergeExactlyAcrossThreads) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry reg;
  const auto id = reg.counter("test.parallel");
  constexpr int kThreads = 8;
  constexpr std::int64_t kAddsPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, id] {
      for (std::int64_t i = 0; i < kAddsPerThread; ++i) reg.add(id, 1);
    });
  }
  for (std::thread& w : workers) w.join();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("test.parallel"), kThreads * kAddsPerThread);
}

TEST(MetricsRegistry, SnapshotWhileThreadsAreCountingIsSane) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry reg;
  const auto id = reg.counter("test.live");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    reg.add(id, 1);  // at least one add even if stop wins the race
    while (!stop.load(std::memory_order_relaxed)) reg.add(id, 1);
  });
  std::int64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const std::int64_t v = reg.snapshot().counter_or("test.live");
    EXPECT_GE(v, last);  // monotonic under concurrent adds
    last = v;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(reg.snapshot().counter_or("test.live"), 0);
}

TEST(MetricsRegistry, GaugesSetAndAdd) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry reg;
  const auto id = reg.gauge("test.gauge");
  reg.gauge_set(id, 42);
  EXPECT_EQ(reg.snapshot().gauge_or("test.gauge"), 42);
  reg.gauge_add(id, -40);
  EXPECT_EQ(reg.snapshot().gauge_or("test.gauge"), 2);
  reg.gauge_set(id, 0);
  EXPECT_EQ(reg.snapshot().gauge_or("test.gauge"), 0);
}

TEST(MetricsRegistry, ResetClearsValuesButKeepsRegistrations) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry reg;
  const auto c = reg.counter("test.c");
  const auto h = reg.histogram("test.h");
  reg.add(c, 7);
  reg.record(h, 100);
  reg.reset();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("test.c", -1), 0);
  const obs::HistogramStats* hs = snap.find_histogram("test.h");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 0);
  EXPECT_EQ(reg.counter("test.c"), c);  // same id after reset
}

TEST(MetricsRegistry, ExhaustedCapacityReturnsInvalidAndMutationIsNoop) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::Id last = 0;
  for (int i = 0; i <= obs::MetricsRegistry::kMaxGauges; ++i) {
    last = reg.gauge("test.g" + std::to_string(i));
  }
  EXPECT_EQ(last, obs::MetricsRegistry::kInvalidId);
  reg.gauge_set(last, 5);  // must not crash or write anywhere
}

// ---- histograms ----

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry reg;
  const auto id = reg.histogram("test.buckets");
  // Bucket 0 holds v <= 0; bucket b holds [2^(b-1), 2^b).
  reg.record(id, -5);
  reg.record(id, 0);
  reg.record(id, 1);    // bucket 1: [1, 2)
  reg.record(id, 2);    // bucket 2: [2, 4)
  reg.record(id, 3);    // bucket 2
  reg.record(id, 4);    // bucket 3: [4, 8)
  reg.record(id, 7);    // bucket 3
  reg.record(id, 8);    // bucket 4: [8, 16)
  reg.record(id, 1023);  // bucket 10: [512, 1024)
  reg.record(id, 1024);  // bucket 11: [1024, 2048)
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramStats* h = snap.find_histogram("test.buckets");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 10);
  EXPECT_EQ(h->min, -5);
  EXPECT_EQ(h->max, 1024);
  EXPECT_EQ(h->buckets[0], 2);
  EXPECT_EQ(h->buckets[1], 1);
  EXPECT_EQ(h->buckets[2], 2);
  EXPECT_EQ(h->buckets[3], 2);
  EXPECT_EQ(h->buckets[4], 1);
  EXPECT_EQ(h->buckets[10], 1);
  EXPECT_EQ(h->buckets[11], 1);
  EXPECT_EQ(obs::HistogramStats::bucket_floor(0), 0);
  EXPECT_EQ(obs::HistogramStats::bucket_floor(1), 1);
  EXPECT_EQ(obs::HistogramStats::bucket_floor(11), 1024);
}

TEST(Histogram, SumMeanAndQuantiles) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry reg;
  const auto id = reg.histogram("test.quant");
  std::int64_t sum = 0;
  for (std::int64_t v = 1; v <= 100; ++v) {
    reg.record(id, v);
    sum += v;
  }
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramStats* h = snap.find_histogram("test.quant");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 100);
  EXPECT_EQ(h->sum, sum);
  EXPECT_DOUBLE_EQ(h->mean(), static_cast<double>(sum) / 100.0);
  // The quantile estimate is an exclusive bucket ceiling: always at or
  // above the true value, within one power of two.
  EXPECT_GE(h->quantile_ceiling(0.5), 50);
  EXPECT_LE(h->quantile_ceiling(0.5), 128);
  EXPECT_GE(h->quantile_ceiling(0.99), 99);
  EXPECT_GE(h->quantile_ceiling(1.0), 100);  // never below the true max
  EXPECT_LE(h->quantile_ceiling(1.0), 128);  // ...within one power of two
}

TEST(Histogram, ParallelRecordsKeepExactCountAndSum) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry reg;
  const auto id = reg.histogram("test.par_hist");
  constexpr int kThreads = 6;
  constexpr std::int64_t kEach = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, id, t] {
      for (std::int64_t i = 0; i < kEach; ++i) reg.record(id, t + 1);
    });
  }
  for (std::thread& w : workers) w.join();
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramStats* h = snap.find_histogram("test.par_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * kEach);
  EXPECT_EQ(h->sum, kEach * (1 + 2 + 3 + 4 + 5 + 6));
  EXPECT_EQ(h->min, 1);
  EXPECT_EQ(h->max, kThreads);
}

// ---- disabled paths allocate nothing ----

TEST(Overhead, HotPathsDoNotAllocate) {
  // Warm up: first touch of the global registry from this thread
  // creates its shard; that one allocation is setup, not steady state.
  const auto ctr = obs::counter_id("test.alloc_probe");
  const auto hist = obs::histogram_id("test.alloc_hist");
  obs::count(ctr, 1);
  obs::record(hist, 1);
  obs::set_trace_enabled(false);

  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    obs::count(ctr, 1);
    obs::record(hist, i);
    obs::gauge_set(obs::MetricsRegistry::kInvalidId, i);
    const obs::ScopedTimer t(hist);
    const obs::TraceSpan s("test.span");  // tracing off: one relaxed load
  }
  const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "counter/histogram/span hot paths allocated";
}

// ---- tracing ----

TEST(Trace, DisabledCollectsNothing) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::set_trace_enabled(false);
  obs::clear_trace();
  {
    const obs::TraceSpan s("test.invisible");
  }
  EXPECT_EQ(obs::trace_event_count(), 0);
}

TEST(Trace, JsonRoundTripsThroughParser) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::clear_trace();
  obs::set_trace_enabled(true);
  {
    const obs::TraceSpan outer("test.outer");
    const obs::TraceSpan inner("test.inner \"quoted\"\\path");
    const obs::TraceSpan third("test.third");
  }
  std::thread([] { const obs::TraceSpan s("test.from_thread"); }).join();
  obs::set_trace_enabled(false);

  EXPECT_EQ(obs::trace_event_count(), 4);
  const std::string json = obs::trace_to_json();
  MiniJsonParser parser;
  ASSERT_TRUE(parser.parse(json)) << json;

  // Vocabulary: the Trace Event Format fields chrome://tracing needs.
  int name_keys = 0;
  bool has_trace_events = false;
  for (const std::string& k : parser.keys()) {
    if (k == "name") ++name_keys;
    if (k == "traceEvents") has_trace_events = true;
  }
  EXPECT_TRUE(has_trace_events);
  EXPECT_EQ(name_keys, 4);
  EXPECT_NE(json.find("test.outer"), std::string::npos);
  EXPECT_NE(json.find("test.from_thread"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);

  obs::clear_trace();
  EXPECT_EQ(obs::trace_event_count(), 0);
}

TEST(Trace, MetricsJsonExportParses) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry reg;
  reg.add(reg.counter("test.c\"tricky\""), 3);
  reg.gauge_set(reg.gauge("test.g"), -1);
  reg.record(reg.histogram("test.h"), 1000);
  const obs::MetricsSnapshot snap = reg.snapshot();
  obs::JsonWriter w;
  obs::metrics_to_json(snap, w);
  MiniJsonParser parser;
  ASSERT_TRUE(parser.parse(w.str())) << w.str();
}

// ---- integration: engine, pool, fault counters ----

TEST(EngineSnapshot, PhasesAccountForWallClock) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry::global().reset();
  core::LatticeEngine::Config config;
  config.extent = {128, 128};
  config.gas = lgca::GasKind::FHP_II;
  config.backend = core::Backend::Reference;
  config.pipeline_depth = 4;
  core::LatticeEngine engine(config);
  lgca::fill_random(engine.state(), engine.gas_model(), 0.3, 13);
  engine.advance(32);

  const core::MetricsReport report = engine.snapshot();
  EXPECT_GT(report.wall_seconds, 0);
  ASSERT_FALSE(report.phases.empty());
  bool has_pass = false;
  for (const core::MetricsPhase& p : report.phases) {
    if (p.name == "engine.pass.reference_ns") {
      has_pass = true;
      EXPECT_EQ(p.count, 8);  // 32 generations / depth 4
    }
  }
  EXPECT_TRUE(has_pass);
  // The top-level phases are everything advance() does besides loop
  // glue; their sum must approximate the measured wall-clock.
  EXPECT_GT(report.phase_seconds(), 0.5 * report.wall_seconds);
  EXPECT_LT(report.phase_seconds(), 1.1 * report.wall_seconds + 1e-3);

  // And the counters the engine promises to keep.
  EXPECT_EQ(report.metrics.counter_or("engine.generations"), 32);
  EXPECT_EQ(report.metrics.counter_or("engine.site_updates"), 128 * 128 * 32);
  EXPECT_EQ(report.metrics.counter_or("reference.sites"), 128 * 128 * 32);
}

// The phase table follows the executor the engine runs, so the check
// above holds for every backend — the 3-D ones included, whose pass
// histograms a hand-kept list of backend names once left out.
TEST(EngineSnapshot, PhasesAccountForWallClockOnEveryBackend) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  const std::pair<core::Backend, std::string> backends[] = {
      {core::Backend::Reference, "reference"},
      {core::Backend::Wsa, "wsa"},
      {core::Backend::Spa, "spa"},
      {core::Backend::BitPlane, "bitplane"},
      {core::Backend::WsaE, "wsa_e"},
      {core::Backend::Reference3, "reference3"},
      {core::Backend::BitPlane3, "bitplane3"},
  };
  for (const auto& [backend, name] : backends) {
    SCOPED_TRACE(name);
    obs::MetricsRegistry::global().reset();
    core::LatticeEngine::Config config;
    config.extent = {64, 48};
    config.gas = lgca::GasKind::FHP_II;
    config.backend = backend;
    config.pipeline_depth = 4;
    config.wsa_width = 2;
    config.spa_slice_width = 8;
    const bool volume = core::backend_is_3d(backend);
    if (volume) config.depth = 16;
    core::LatticeEngine engine(config);
    if (volume) {
      lgca3d::Lattice3 vol({64, 48, 16}, lgca3d::Boundary3::Null);
      lgca3d::fill_random(vol, 0.3, 13);
      std::copy(vol.data(), vol.data() + vol.site_count(),
                engine.state().grid().data());
    } else {
      lgca::fill_random(engine.state(), engine.gas_model(), 0.3, 13);
    }
    engine.advance(32);

    const core::MetricsReport report = engine.snapshot();
    EXPECT_GT(report.wall_seconds, 0);
    bool has_pass = false;
    for (const core::MetricsPhase& p : report.phases) {
      if (p.name == "engine.pass." + name + "_ns") has_pass = p.count > 0;
    }
    EXPECT_TRUE(has_pass);
    EXPECT_GT(report.phase_seconds(), 0.5 * report.wall_seconds);
    EXPECT_LT(report.phase_seconds(), 1.1 * report.wall_seconds + 1e-3);
  }
}

// A restore() outside advance() is not in advance()'s wall clock, so it
// must stay out of the phase table too; SessionManager restores every
// evicted session that way. Only the guarded loop's rollbacks, which
// run inside advance(), time into engine.restore_ns.
TEST(EngineSnapshot, RestoreOutsideAdvanceStaysOutOfThePhases) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry::global().reset();
  core::LatticeEngine::Config config;
  config.extent = {512, 512};
  config.gas = lgca::GasKind::FHP_II;
  config.backend = core::Backend::BitPlane;
  core::LatticeEngine engine(config);
  lgca::fill_random(engine.state(), engine.gas_model(), 0.3, 13);
  const core::EngineCheckpoint start = engine.checkpoint();
  engine.advance(2);
  const auto restore_count = [&engine] {
    const obs::MetricsSnapshot m = engine.snapshot().metrics;
    const obs::HistogramStats* h = m.find_histogram("engine.restore_ns");
    return h != nullptr ? h->count : 0;
  };
  const std::int64_t before = restore_count();
  for (int i = 0; i < 1000; ++i) engine.restore(start);

  EXPECT_EQ(restore_count(), before);
  const core::MetricsReport report = engine.snapshot();
  EXPECT_LT(report.phase_seconds(), 1.1 * report.wall_seconds + 1e-3);
}

// BitPlane gets the same first-class per-pass stage as every other
// backend; its pack/update/unpack histograms still record, but they
// nest *inside* engine.pass.bitplane_ns and must not double-count in
// the top-level phase accounting.
TEST(EngineSnapshot, BitPlanePassIsTheTopLevelStage) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry::global().reset();
  core::LatticeEngine::Config config;
  config.extent = {64, 64};
  config.gas = lgca::GasKind::HPP;
  config.backend = core::Backend::BitPlane;
  core::LatticeEngine engine(config);
  lgca::fill_random(engine.state(), engine.gas_model(), 0.3, 13);
  engine.advance(16);

  const core::MetricsReport report = engine.snapshot();
  bool pass = false;
  for (const core::MetricsPhase& p : report.phases) {
    if (p.name == "engine.pass.bitplane_ns") {
      pass = true;
      // One pass for the whole advance(): the backend does not chunk
      // by pipeline_depth.
      EXPECT_EQ(p.count, 1);
    }
    EXPECT_NE(p.name, "engine.pass.reference_ns");
    EXPECT_NE(p.name, "bitplane.pack_ns");    // nested, not top-level
    EXPECT_NE(p.name, "bitplane.update_ns");
    EXPECT_NE(p.name, "bitplane.unpack_ns");
  }
  EXPECT_TRUE(pass);
  // The nested stage histograms still record underneath the pass.
  const obs::HistogramStats* update =
      report.metrics.find_histogram("bitplane.update_ns");
  ASSERT_NE(update, nullptr);
  EXPECT_GT(update->count, 0);
  EXPECT_EQ(report.metrics.counter_or("bitplane.sites"), 64 * 64 * 16);
}

TEST(PoolCounters, TasksAndJobsAreCounted) {
  // One run_lanes job: pool.jobs + 1, and one pool.lane_ns sample per
  // lane (the caller's lane 0 included).
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  auto& pool = common::ThreadPool::shared();
  const auto lane_samples = [](const obs::MetricsSnapshot& snap) {
    const obs::HistogramStats* h = snap.find_histogram("pool.lane_ns");
    return h != nullptr ? h->count : 0;
  };
  const auto before = obs::MetricsRegistry::global().snapshot();
  std::atomic<int> ran{0};
  pool.run_lanes(4, [&](unsigned) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 4);
  const auto after = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(after.counter_or("pool.jobs") - before.counter_or("pool.jobs"), 1);
  EXPECT_EQ(lane_samples(after) - lane_samples(before), 4);
}

TEST(FaultCounters, InjectionAndDetectionReachTheRegistry) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with LATTICE_OBS=OFF";
  obs::MetricsRegistry::global().reset();
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.buffer_flip_rate = 1.0;  // every stored word flips one bit
  fault::FaultInjector injector(plan);
  for (int pos = 0; pos < 100; ++pos) {
    injector.corrupt_stored(/*t=*/0, pos, lgca::Site{0});
  }
  injector.report_parity_error();
  injector.report_side_error();
  injector.report_conservation_error();

  const fault::FaultCounters c = injector.counters();
  EXPECT_EQ(c.injected_flips, 100);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("fault.injected.flips"), c.injected_flips);
  EXPECT_EQ(snap.counter_or("fault.detected.parity"), 1);
  EXPECT_EQ(snap.counter_or("fault.detected.side"), 1);
  EXPECT_EQ(snap.counter_or("fault.detected.conservation"), 1);
}

}  // namespace
