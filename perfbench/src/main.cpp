// perfbench — the lattice-engines benchmark binary (run through
// perfbench/run.py, which builds it first).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//   perfbench --setup-only --workload W --seed N [--work-dir DIR]
//   perfbench --self-test
//   perfbench --list-metrics
//
// Prints the run context, the checks and (traced) the attribution
// tables, every metric with its unit, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when untraced, the per-layer metrics when traced. Exits 1
// when an output check failed, 2 on bad arguments or a run error.
// --setup-only times one set-up of the workload in this fresh process
// and prints "setup_s SECONDS"; every untraced run spawns such
// processes for its setup_s.

#include <malloc.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <span>
#include <string>
#include <thread>

#include "lattice/lgca/plane_simd.hpp"
#include "perfbench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload bulk2d|bulk3d|serve_resident|serve_churn"
               " --seed N --seconds S --trace 0|1 [--work-dir DIR]\n"
               "       %s --setup-only --workload W --seed N [--work-dir DIR]\n"
               "       %s --self-test | --list-metrics\n",
               argv0, argv0, argv0);
  std::exit(2);
}

/// L2 and L3 sizes as the C library reports them.
std::string cache_sizes() {
  return format("L2=%ld B L3=%ld B", ::sysconf(_SC_LEVEL2_CACHE_SIZE),
                ::sysconf(_SC_LEVEL3_CACHE_SIZE));
}

/// The metrics a run prints: end-to-end untraced, per-layer traced.
std::span<const MetricDef> metric_table(bool trace) {
  if (trace) return kPerLayer;
  return kEndToEnd;
}

void print_result(const Outcome& out, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  const char* sep = "";
  for (const MetricDef& m : metric_table(trace)) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name,
                out.metrics.at(m.name), m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

/// Every metric the run must print is present and finite.
bool metrics_complete(const Outcome& out, bool trace) {
  bool ok = true;
  for (const MetricDef& m : metric_table(trace)) {
    const auto it = out.metrics.find(m.name);
    if (it == out.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   m.name);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // peak_rss_mb should follow the program's live data. glibc maps blocks
  // of 128 KiB and more, but raises that threshold as they are freed and
  // then keeps freed blocks in per-thread heaps, so the same bulk2d run
  // peaked at 36 to 59 MiB with the heap's layout (the work directory's
  // path length moved it). With the threshold held at 128 KiB and one
  // heap shared by all threads, it peaked at 26.0-26.1 MiB, and run
  // times did not change measurably.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  ::mallopt(M_ARENA_MAX, 1);
  RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = next();
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(next());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (a == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") usage(argv[0]);
        opt.trace = v == "1";
      } else if (a == "--work-dir") {
        opt.work_dir = next();
      } else if (a == "--setup-only") {
        opt.setup_only = true;
      } else if (a == "--self-test") {
        return self_test() == 0 ? 0 : 1;
      } else if (a == "--list-metrics") {
        for (const char* w : kWorkloads) std::printf("workload %s\n", w);
        for (const MetricDef& m : kEndToEnd) {
          std::printf("end_to_end %s %s\n", m.name, m.unit);
        }
        for (const MetricDef& m : kPerLayer) {
          std::printf("per_layer %s %s\n", m.name, m.unit);
        }
        return 0;
      } else {
        usage(argv[0]);
      }
    } catch (const std::exception&) {
      usage(argv[0]);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!have_workload || !known || !(opt.seconds > 0)) usage(argv[0]);

  // This run's private files; removed at exit. Spans go beside it.
  const std::string base = opt.work_dir;
  std::error_code base_ec;
  std::filesystem::create_directories(base, base_ec);
  const bool spread = spread_subdirectories(base);
  opt.work_base = base;
  opt.work_dir = format("%s/%s-%d", base.c_str(), opt.workload.c_str(),
                        static_cast<int>(::getpid()));

  const bool bulk = opt.workload.rfind("bulk", 0) == 0;
  if (opt.setup_only) {
    // A set-up child ends with the run that spawned it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int status = 0;
    try {
      std::filesystem::create_directories(opt.work_dir);
      const double s = bulk ? bulk_setup_s(opt) : serve_setup_s(opt);
      std::printf("setup_s %.17g\n", s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s set-up failed: %s\n",
                   opt.workload.c_str(), e.what());
      status = 2;
    }
    std::error_code ec;
    std::filesystem::remove_all(opt.work_dir, ec);
    return status;
  }

  SpanLog spans;
  spans.set_enabled(opt.trace);
  Outcome out;
  int status = 0;
  try {
    std::filesystem::create_directories(opt.work_dir);
    out = bulk ? run_bulk(opt, spans) : run_serve(opt, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    status = 2;
  }
  const std::string fs = filesystem_type(opt.work_dir);
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  if (status != 0) return status;
  if (!metrics_complete(out, opt.trace)) return 2;

  const lattice::lgca::SimdLevel simd = lattice::lgca::plane_simd_active();
  std::printf("workload %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("context nproc=%u\n", std::thread::hardware_concurrency());
  std::printf("context simd=%s (%d-bit 2-D spans; the 3-D spans are "
              "scalar64)\n",
              lattice::lgca::to_string(simd),
              lattice::lgca::plane_span_ops(simd).width_bits);
  std::printf("context caches %s\n", cache_sizes().c_str());
  std::printf("context spool_fs=%s (work directory; run directories %s)\n",
              fs.c_str(),
              spread ? "spread over block groups"
                     : "not spread: FS_TOPDIR_FL unsupported");
  for (const auto& [key, value] : out.context) {
    std::printf("context %s: %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
  if (opt.trace) {
    const std::string path = format("%s/trace-%s-%llu.json", base.c_str(),
                                    opt.workload.c_str(),
                                    static_cast<unsigned long long>(opt.seed));
    std::printf("spans: %s\n", spans.write_chrome(path)
                                   ? path.c_str()
                                   : "NOT WRITTEN (I/O error)");
  }
  const double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 1.0;
  std::printf("metric failed_frac = %.6g fraction (%lld of %lld)\n",
              failed_frac, static_cast<long long>(out.failed),
              static_cast<long long>(out.attempted));
  for (const MetricDef& m : metric_table(opt.trace)) {
    std::printf("metric %s = %.6g %s\n", m.name, out.metrics.at(m.name),
                m.unit);
  }
  std::fflush(stdout);
  print_result(out, opt.trace);
  return out.correct && out.failed == 0 ? 0 : 1;
}
