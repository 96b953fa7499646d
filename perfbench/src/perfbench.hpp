// Shared pieces of the lattice-engines benchmark: run options, the
// metric tables, the nearest-rank percentile helper, benchmark-side
// spans, and the result every workload hands back to main().
//
// Nothing here reaches into the library's internals: the workloads call
// only public headers, and every span is recorded from the benchmark's
// side of a public call.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lattice/core/engine.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Time one set-up and stop (perfbench --setup-only); the run spawns
  /// such processes to time cold set-ups (see cold_setups()).
  bool setup_only = false;
  /// Base directory: spool, checkpoint and sample files go to a per-run
  /// subdirectory removed at exit; a traced run's spans stay here.
  std::string work_dir = ".bench_build/perfbench/work";
  /// The base directory once work_dir names this run's subdirectory;
  /// set-up children get their own subdirectories beside it.
  std::string work_base;
};

// ---- metric tables -------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (--trace 0), in this order. The median
/// step is printed on the run's report line but not gated: serve round
/// trips can split into two clusters, and the median jumps between them.
inline constexpr MetricDef kEndToEnd[] = {
    {"sites_per_s", "sites/s"},
    {"step_p95_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Printed by every traced run (--trace 1). A layer that a workload
/// never calls reports 0 (see README.md, "Idle layers").
inline constexpr MetricDef kPerLayer[] = {
    {"lgca.kernel_sites_per_s", "sites/s"},
    {"lgca.pack_ms", "ms"},
    {"lgca.unpack_ms", "ms"},
    {"lgca.runner_over_kernel", "ratio"},
    {"lgca.band_speedup", "ratio"},
    {"lgca.tile_depth", "generations"},
    {"lgca.tile_best_depth", "generations"},
    {"lgca.tile_regret", "ratio"},
    {"lgca.recompute_frac", "fraction"},
    {"lgca.plane_bytes_per_update", "B/update"},
    {"lgca3d.kernel_sites_per_s", "sites/s"},
    {"lgca3d.pack_ms", "ms"},
    {"lgca3d.unpack_ms", "ms"},
    {"lgca3d.runner_over_kernel", "ratio"},
    {"lgca3d.band_speedup", "ratio"},
    {"lgca3d.tile_depth", "generations"},
    {"lgca3d.tile_best_depth", "generations"},
    {"lgca3d.tile_regret", "ratio"},
    {"core.advance_ms", "ms"},
    {"core.advance_over_runner", "ratio"},
    {"core.state_read_ms", "ms"},
    {"core.construct_ms", "ms"},
    {"core.first_advance_extra_ms", "ms"},
    {"core.checkpoint_save_ms", "ms"},
    {"core.checkpoint_load_ms", "ms"},
    {"core.checkpoint_bytes", "B"},
    {"serve.transport_ms", "ms"},
    {"serve.protocol_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.quantum_ms", "ms"},
    {"serve.evict_ms", "ms"},
    {"serve.restore_ms", "ms"},
    {"serve.restores_per_request", "count"},
    {"serve.evictions_per_request", "count"},
    {"serve.create_ms", "ms"},
    {"serve.rss_per_session_kb", "KiB"},
    {"obs.trace_overhead_frac", "fraction"},
};

inline constexpr const char* kWorkloads[] = {"bulk2d", "bulk3d",
                                             "serve_resident", "serve_churn"};

/// Set every per-layer metric whose name starts with `layer` + "." to
/// zero: the workload makes no call into that layer.
void zero_layer(std::map<std::string, double>& metrics,
                std::string_view layer);

// ---- percentiles ---------------------------------------------------

/// Samples that must lie strictly above a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0;
  double p = 0;         // the percentile actually reported, in [0, 100]
  std::size_t n = 0;    // sample count
  std::size_t rank = 0; // 1-based nearest rank
};

/// Nearest-rank percentile: the sample at rank ceil(p/100 * n) of the
/// sorted samples. Refuses (nullopt) when fewer than kMinBeyond samples
/// lie beyond that rank, so a tail is never read off a handful of
/// points.
std::optional<Percentile> percentile(std::vector<double> samples, double p);

/// The highest percentile no greater than `p_max` that percentile()
/// accepts for these samples; nullopt when even the lowest is refused.
std::optional<Percentile> highest_percentile(std::vector<double> samples,
                                             double p_max);

/// Plain median (mean of the middle pair for even counts), for probe
/// repetitions and window rates, where no tail is read.
double median(std::vector<double> samples);

// ---- time and memory -----------------------------------------------

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Current and peak resident set of this process, in KiB.
std::int64_t rss_kib();
std::int64_t peak_rss_kib();

/// Ask the filesystem to place each directory created in `dir` in a
/// block group of its own (ext4's FS_TOPDIR_FL, as for directories under
/// the root), so that one run's spool does not share a group with the
/// spools earlier runs deleted; see README.md, "The spool's block
/// group". Returns false where the flag is not supported.
bool spread_subdirectories(const std::string& dir);

/// Commit the filesystem holding `dir` (syncfs). Called before each
/// set-up, outside its timing, so that dirty data and metadata left by
/// earlier runs and set-ups (deleted spool files) are written out before
/// the next one starts, not during it.
/// Not before the timed phase: committed spool files made every later
/// eviction free real blocks, and serve_churn ran slower and spread
/// wider (README, "Cold set-ups").
void sync_filesystem(const std::string& dir);

/// Cold set-ups timed by every untraced run in fresh child processes:
/// this many before its own set-up and as many after its timed phase,
/// so that two moments of the host are sampled while the timed phase
/// stays undisturbed. setup_s is the median of these and the run's own.
inline constexpr int kColdSetups = 4;

/// Time `count` set-ups of `opt.workload` at `opt.seed`, one after the
/// other, each in a fresh process of this binary (perfbench
/// --setup-only) after a sync_filesystem(). A fresh process pays every
/// first-call cost — pool threads, first-touch pages, history capture
/// — that a second set-up in the same process would skip. Returns
/// seconds per set-up; throws when a child fails.
std::vector<double> cold_setups(const RunOptions& opt, int count);

/// Name of the filesystem holding `path` (e.g. "ext2/ext3/ext4").
std::string filesystem_type(const std::string& path);

/// Raw samples appended to a file in the run's work directory instead of
/// kept in memory, so that the process's peak resident set does not grow
/// with the number of steps a run completes. read_all() returns them
/// once the peak has been read.
class SampleFile {
 public:
  explicit SampleFile(const std::string& path);
  ~SampleFile();
  SampleFile(const SampleFile&) = delete;
  SampleFile& operator=(const SampleFile&) = delete;

  void push_back(double v);
  std::size_t size() const { return count_; }
  std::vector<double> read_all();

 private:
  std::FILE* file_;
  std::size_t count_ = 0;
};

/// FNV-1a 64 over a lattice's site bytes, continuing from `h`.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
std::uint64_t fnv1a(const lattice::lgca::SiteLattice& state,
                    std::uint64_t h = kFnvOffset);

// ---- spans ---------------------------------------------------------

/// Benchmark-side spans, kept in memory and written as Chrome trace
/// JSON at exit. Single-threaded: every span is opened and closed on
/// the thread that drives the workload. When disabled, scopes cost one
/// branch and record nothing.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, int index) : log_(log), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }

   private:
    SpanLog* log_;
    int index_;
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Open a span named `name` for interval or request `id`; it closes
  /// when the returned scope ends. Its parent is the innermost span
  /// still open.
  [[nodiscard]] Scope span(std::string name, std::int64_t id);

  /// Durations, in ms, of every recorded span called `name`.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Write every span as Chrome trace JSON; false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index into spans_, -1 for a root
  };

  void close(int index);

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Median duration, in ms, of the spans called `name`; 0 when none.
double span_median_ms(const SpanLog& log, std::string_view name);

/// Run `fn` `reps` times, each inside a span called `name`; returns the
/// median span duration in ms (0 when spans are disabled).
template <class F>
double probe_ms(SpanLog& spans, const std::string& name, int reps, F&& fn) {
  for (int r = 0; r < reps; ++r) {
    auto s = spans.span(name, r);
    fn();
  }
  return span_median_ms(spans, name);
}

// ---- results -------------------------------------------------------

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Run context (seed, SIMD width, tile plan, ...), printed beside the
  /// metrics but never as one.
  std::vector<std::pair<std::string, std::string>> context;
  /// Human-readable report lines (attribution tables, check results).
  std::vector<std::string> report;

  /// Record `count` failed operations and mark the run incorrect.
  void fail_check(const std::string& why, std::int64_t count = 1);
  void note(std::string line) { report.push_back(std::move(line)); }
};

/// Set step_p50_ms and step_p95_ms from raw step times (ms), and note
/// the median, p95 and p99 — each the highest percentile up to that one
/// the samples support — with ranks and the sample count.
void step_percentiles(Outcome& out, const char* step,
                      const std::vector<double>& ms);

/// Set setup_s to the median of the run's cold set-ups — `before` its
/// own, its `own`, and `after` its timed phase — and note every sample.
void setup_metric(Outcome& out, const std::vector<double>& before, double own,
                  const std::vector<double>& after);

/// printf into a std::string.
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Print a layer-attribution table: each (label, ms) part against the
/// untraced median `whole_ms` of `n` samples, plus the unattributed
/// remainder, flagged when it exceeds 10% of the whole.
void attribution_report(
    Outcome& out, const char* unit_name, double whole_ms, std::size_t n,
    const std::vector<std::pair<std::string, double>>& parts);

/// A workload's shape as the layer probes replay it: the engine config
/// its steps run, the generations per step, and probe repetitions.
struct ProbeShape {
  lattice::core::LatticeEngine::Config cfg;
  std::int64_t gens = 0;
  int reps = 3;
};

/// Median probe times of one step, in ms, for the attribution tables.
struct LayerTimes {
  double kernel_ms = 0;
  double pack_ms = 0;
  double unpack_ms = 0;
  double runner_ms = 0;
  double advance_ms = 0;
};

/// Run the plane-layer and engine probes at `shape` on copies of
/// `state` (at generation `t`) and fill the lgca / lgca3d / core.*
/// metrics but core.construct_ms and core.first_advance_extra_ms; the
/// other dimension's plane layer is zeroed.
LayerTimes probe_layers(const ProbeShape& shape,
                        const lattice::lgca::SiteLattice& state,
                        std::int64_t t, const RunOptions& opt, SpanLog& spans,
                        Outcome& out);

/// core.construct_ms and core.first_advance_extra_ms from fresh engines
/// at `shape` in this warm process, as serve_churn rebuilds one on every
/// restore. (Bulk runs read both off their own cold set-up instead.)
void probe_engine_rebuild(const ProbeShape& shape,
                          const lattice::lgca::SiteLattice& state,
                          SpanLog& spans, Outcome& out);

Outcome run_bulk(const RunOptions& opt, SpanLog& spans);
Outcome run_serve(const RunOptions& opt, SpanLog& spans);

/// One set-up of the workload in this process, timed; for
/// perfbench --setup-only. Returns seconds.
double bulk_setup_s(const RunOptions& opt);
double serve_setup_s(const RunOptions& opt);

/// The benchmark's own checks (percentile helper, seed digests);
/// returns the number of failures.
int self_test();

/// FNV-1a over the initial state a workload builds from `seed` — the
/// same generators the runs use, exposed for the seed self-test.
std::uint64_t bulk_initial_digest(const std::string& workload,
                                  std::uint64_t seed);
std::uint64_t serve_initial_digest(const std::string& workload,
                                   std::uint64_t seed);

}  // namespace perfbench
