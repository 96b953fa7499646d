// The two serve workloads: one client in a closed loop of
// {"op":"step","generations":8,"wait":true} requests, round-robin over
// FHP-II 64x64 periodic BitPlane sessions, sent over one socketpair
// into SocketServer::serve_connection with one scheduler worker.
//
//   serve_resident  1024 sessions, pool of 1024: no eviction; the
//                   per-request layers (runner, engine, scheduler,
//                   protocol, transport) each show.
//   serve_churn     256 sessions, pool of 16: every request restores its
//                   session from the spool and evicts the LRU one — the
//                   only workload on the checkpoint_io spool path.
//
// Checks: every response is "ok": true with the requested generation,
// every session ends at the generation requested, and sampled sessions
// are bit-exact against unevicted twin engines.

#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "lattice/common/rng.hpp"
#include "lattice/core/engine.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/observables.hpp"
#include "lattice/serve/json_parse.hpp"
#include "lattice/serve/protocol.hpp"
#include "lattice/serve/server.hpp"
#include "lattice/serve/session_manager.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace lattice;
using serve::SessionId;

constexpr std::int64_t kSide = 64;
constexpr std::int64_t kGens = 8;  // per request, = the pool quantum
constexpr double kDensity = 0.3;
/// At least this many requests per untraced run, so p99 has kMinBeyond
/// samples above it.
constexpr std::size_t kMinRequests = 100 * kMinBeyond;
/// Repetitions of each 64x64 layer probe and of the eviction probe.
constexpr int kProbeReps = 201;
constexpr int kEvictReps = 41;

struct ServeShape {
  int sessions = 0;
  int max_resident = 0;
};

ServeShape serve_shape(const std::string& workload) {
  return workload == "serve_resident" ? ServeShape{1024, 1024}
                                      : ServeShape{256, 16};
}

/// Per-session init seeds, derived from the workload seed.
std::vector<std::uint64_t> session_seeds(std::uint64_t seed, int n) {
  SplitMix64 rng(seed);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(n));
  for (auto& s : seeds) s = rng.next() >> 2;  // the wire caps seeds at 2^62
  return seeds;
}

/// The engine a session's create frame asks for (the protocol's
/// defaults for everything the frame leaves out).
core::LatticeEngine::Config session_config() {
  core::LatticeEngine::Config cfg;
  cfg.extent = {kSide, kSide};
  cfg.gas = lgca::GasKind::FHP_II;
  cfg.backend = core::Backend::BitPlane;
  cfg.boundary = lgca::Boundary::Periodic;
  return cfg;
}

std::string create_frame(std::uint64_t seed) {
  return format(
      "{\"op\":\"create\",\"width\":%lld,\"height\":%lld,\"gas\":\"fhp2\","
      "\"backend\":\"bitplane\",\"boundary\":\"periodic\",\"init\":\"random\","
      "\"density\":%.2f,\"seed\":%llu}",
      static_cast<long long>(kSide), static_cast<long long>(kSide), kDensity,
      static_cast<unsigned long long>(seed));
}

/// Pin the calling thread, and so every thread it creates afterwards,
/// to the highest-numbered CPU it may run on; returns that CPU, or -1
/// if the affinity could not be set.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

std::string step_frame(SessionId id) {
  return format("{\"op\":\"step\",\"id\":%llu,\"generations\":%lld,"
                "\"wait\":true}",
                static_cast<unsigned long long>(id),
                static_cast<long long>(kGens));
}

/// An unevicted twin of session `seed` at `generation`.
lgca::SiteLattice twin_state(std::uint64_t seed, std::int64_t generation) {
  core::LatticeEngine twin(session_config());
  lgca::fill_random(twin.state(), twin.gas_model(), kDensity, seed, 0.1);
  twin.advance(generation);
  return twin.state();
}

/// A session manager, its protocol, and one socketpair connection
/// served by SocketServer::serve_connection on its own thread. The
/// client end is driven from the calling thread.
class ServeStack {
 public:
  ServeStack(const ServeShape& shape, const std::string& dir)
      : manager_(pool_config(shape, dir + "/spool")),
        protocol_(manager_, serve::ProtocolLimits{}, dir + "/ckpt") {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error(std::string("socketpair: ") +
                               std::strerror(errno));
    }
    server_fd_ = fds[0];
    client_fd_ = fds[1];
    server_ = std::thread([this] {
      serve::SocketServer::serve_connection(server_fd_, protocol_);
    });
  }
  ~ServeStack() {
    ::close(client_fd_);  // EOF ends serve_connection
    server_.join();
    ::close(server_fd_);
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  /// Send one frame and read its response line; false if the server
  /// did not answer.
  bool roundtrip(const std::string& frame, std::string& response) {
    const std::string line = frame + "\n";
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t w =
          ::write(client_fd_, line.data() + off, line.size() - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      off += static_cast<std::size_t>(w);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        response.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(client_fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  serve::SessionManager& manager() { return manager_; }
  serve::ServeProtocol& protocol() { return protocol_; }

 private:
  static serve::SessionManager::Config pool_config(const ServeShape& shape,
                                                   const std::string& spool) {
    serve::SessionManager::Config c;
    c.max_resident = shape.max_resident;
    c.workers = 1;
    c.quantum = kGens;
    c.spool_dir = spool;
    return c;
  }

  serve::SessionManager manager_;
  serve::ServeProtocol protocol_;
  int server_fd_ = -1;
  int client_fd_ = -1;
  std::string buffer_;
  std::thread server_;
};

/// Parse a step or create response: its "generation" (or "id") field
/// when "ok" is true, -1 otherwise.
std::int64_t ok_field(const std::string& response, const char* field) {
  try {
    const serve::JsonValue v = serve::parse_json(response);
    const serve::JsonValue* ok = v.find("ok");
    const serve::JsonValue* f = v.find(field);
    if (ok == nullptr || !ok->bool_or(false) || f == nullptr) return -1;
    return f->int_or(-1);
  } catch (const std::exception&) {
    return -1;
  }
}

/// One set-up: the pool and its connection, every create over the wire,
/// and one warm-up quantum per session (history capture, first-touch
/// pages; on serve_churn also the spool writes). Fills `ids`; `seconds`
/// gets the time it took.
std::unique_ptr<ServeStack> set_up(const ServeShape& shape,
                                   const std::vector<std::uint64_t>& seeds,
                                   const std::string& dir, SpanLog& spans,
                                   std::vector<SessionId>& ids,
                                   double& seconds) {
  const auto t0 = Clock::now();
  auto stack = std::make_unique<ServeStack>(shape, dir);
  std::string resp;
  ids.assign(seeds.size(), 0);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    bool answered = false;
    {
      auto s = spans.span("serve.create", static_cast<std::int64_t>(i));
      answered = stack->roundtrip(create_frame(seeds[i]), resp);
    }
    const std::int64_t id = answered ? ok_field(resp, "id") : -1;
    if (id < 0) throw std::runtime_error("create refused: " + resp);
    ids[i] = static_cast<SessionId>(id);
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    bool answered = false;
    {
      auto s = spans.span("serve.warmup_step", static_cast<std::int64_t>(i));
      answered = stack->roundtrip(step_frame(ids[i]), resp);
    }
    if (!answered || ok_field(resp, "generation") != kGens) {
      throw std::runtime_error("warm-up step refused: " + resp);
    }
  }
  seconds = ms_between(t0, Clock::now()) * 1e-3;
  return stack;
}

}  // namespace

double serve_setup_s(const RunOptions& opt) {
  const ServeShape shape = serve_shape(opt.workload);
  pin_to_one_cpu();  // as the run does; a child inherits it anyway
  SpanLog off;
  std::vector<SessionId> ids;
  double seconds = 0;
  set_up(shape, session_seeds(opt.seed, shape.sessions), opt.work_dir, off,
         ids, seconds);
  return seconds;
}

std::uint64_t serve_initial_digest(const std::string& workload,
                                   std::uint64_t seed) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t s :
       session_seeds(seed, serve_shape(workload).sessions)) {
    lgca::SiteLattice state(session_config().extent, lgca::Boundary::Periodic);
    lgca::fill_random(state, lgca::GasModel::get(lgca::GasKind::FHP_II),
                      kDensity, s, 0.1);
    h = fnv1a(state, h);
  }
  return h;
}

Outcome run_serve(const RunOptions& opt, SpanLog& spans) {
  const ServeShape shape = serve_shape(opt.workload);
  const std::vector<std::uint64_t> seeds =
      session_seeds(opt.seed, shape.sessions);
  const auto n = static_cast<std::size_t>(shape.sessions);
  Outcome out;
  // One request is in flight at a time, so client, connection thread and
  // scheduler worker are never runnable together. Sharing one CPU keeps
  // their hand-offs off cross-CPU wake-ups, whose latency on a busy
  // virtualized host added milliseconds to p99.
  const int cpu = pin_to_one_cpu();

  // ---- set-up: kColdSetups in fresh processes, then the run's own (its
  // process's first, so cold too), and kColdSetups more after the timed
  // phase; a traced run reports no setup_s ----
  std::vector<double> setups_before;
  if (!opt.trace) setups_before = cold_setups(opt, kColdSetups);
  sync_filesystem(opt.work_dir);
  double setup_own = 0;
  std::vector<SessionId> ids;
  const std::int64_t rss0 = rss_kib();
  const std::unique_ptr<ServeStack> stack =
      set_up(shape, seeds, opt.work_dir, spans, ids, setup_own);
  const double rss_per_session_kb =
      static_cast<double>(rss_kib() - rss0) / static_cast<double>(n);
  serve::SessionManager& mgr = stack->manager();
  std::vector<std::int64_t> expected(n, kGens);

  // ---- timed phase: closed loop, round-robin ----
  // An untraced run sends every request over the socket. A traced run
  // rotates four request kinds at the same sessions, so the layers'
  // medians come from one run: 0 untraced socket, 1 traced socket,
  // 2 ServeProtocol::handle in process, 3 SessionManager::step + wait.
  // Kind 0 goes to a file: a run's many round trips would otherwise
  // grow the peak resident set with the request rate.
  SampleFile rt_ms(opt.work_dir + "/round_trips.bin");  // kind 0
  std::vector<double> traced_rt_ms;   // kind 1
  std::vector<double> queue_wait_ms;  // kind 3: step+wait minus quantum
  std::vector<double> quantum_ms;     // kind 3: SessionInfo::busy_seconds
  // Requests completed in each one-second window of the timed phase.
  std::vector<std::int64_t> per_window;
  const serve::ServeStats stats0 = mgr.stats();
  std::int64_t requests = 0;
  std::string resp;
  const std::size_t min_requests = opt.trace ? 4 * kMinBeyond : kMinRequests;
  const auto phase0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = ms_between(phase0, Clock::now()) * 1e-3;
    if (elapsed >= opt.seconds && rt_ms.size() >= min_requests) break;
    const std::size_t k = i % n;
    const SessionId id = ids[k];
    const int kind = opt.trace ? static_cast<int>(i % 4) : 0;
    const auto rid = static_cast<std::int64_t>(i);
    std::int64_t generation = -1;
    if (kind <= 1) {
      spans.set_enabled(kind == 1);
      const auto t0 = Clock::now();
      bool answered = false;
      {
        auto s = spans.span("serve.request", rid);
        answered = stack->roundtrip(step_frame(id), resp);
      }
      const double ms = ms_between(t0, Clock::now());
      spans.set_enabled(opt.trace);
      if (!answered) {
        out.fail_check(format("request %zu got no response", i));
        ++out.attempted;
        break;
      }
      if (kind == 0) {
        rt_ms.push_back(ms);
      } else {
        traced_rt_ms.push_back(ms);
      }
      generation = ok_field(resp, "generation");
    } else if (kind == 2) {
      auto s = spans.span("serve.ServeProtocol::handle", rid);
      resp = stack->protocol().handle(step_frame(id));
      generation = ok_field(resp, "generation");
    } else {
      const double busy0 = mgr.query(id).busy_seconds;
      const auto t0 = Clock::now();
      {
        auto s = spans.span("serve.SessionManager::step+wait", rid);
        mgr.step(id, kGens);
        mgr.wait(id);
      }
      const double ms = ms_between(t0, Clock::now());
      const serve::SessionInfo info = mgr.query(id);
      const double busy_ms = (info.busy_seconds - busy0) * 1e3;
      quantum_ms.push_back(busy_ms);
      queue_wait_ms.push_back(ms - busy_ms);
      generation = info.generation;
    }
    ++out.attempted;
    ++requests;
    expected[k] += kGens;
    const auto window =
        static_cast<std::size_t>(ms_between(phase0, Clock::now()) * 1e-3);
    if (per_window.size() <= window) per_window.resize(window + 1, 0);
    ++per_window[window];
    if (generation != expected[k]) {
      out.fail_check(format("step on session %llu answered generation %lld, "
                            "expected %lld: %s",
                            static_cast<unsigned long long>(id),
                            static_cast<long long>(generation),
                            static_cast<long long>(expected[k]),
                            resp.c_str()));
    }
  }
  const auto phase_end = Clock::now();
  const serve::ServeStats stats1 = mgr.stats();
  const double peak_mib = static_cast<double>(peak_rss_kib()) / 1024.0;
  std::vector<double> setups_after;
  if (!opt.trace) setups_after = cold_setups(opt, kColdSetups);
  const std::vector<double> round_trips = rt_ms.read_all();

  auto& m = out.metrics;
  // ---- traced run: eviction probe and layer probes ----
  LayerTimes lt;
  if (opt.trace) {
    // A step on a resident session, an explicit evict, then a step that
    // must restore it; the two steps differ by the restore.
    for (int r = 0; r < kEvictReps; ++r) {
      const std::size_t k = static_cast<std::size_t>(r) % n;
      const SessionId id = ids[k];
      mgr.step(id, kGens);  // makes it resident and most recent
      mgr.wait(id);
      {
        auto s = spans.span("probe.serve.step_resident", r);
        mgr.step(id, kGens);
        mgr.wait(id);
      }
      bool evicted = false;
      {
        auto s = spans.span("probe.serve.SessionManager::evict", r);
        evicted = mgr.evict(id);
      }
      {
        auto s = spans.span("probe.serve.step_evicted", r);
        mgr.step(id, kGens);
        mgr.wait(id);
      }
      expected[k] += 3 * kGens;
      if (!evicted) out.fail_check("evict() refused an idle session");
    }
    m["serve.evict_ms"] =
        span_median_ms(spans, "probe.serve.SessionManager::evict");
    m["serve.restore_ms"] = span_median_ms(spans, "probe.serve.step_evicted") -
                            span_median_ms(spans, "probe.serve.step_resident");

    const lgca::SiteLattice state = mgr.state(ids[0]);
    lt = probe_layers({session_config(), kGens, kProbeReps}, state,
                      expected[0], opt, spans, out);
    probe_engine_rebuild({session_config(), kGens, kProbeReps}, state, spans,
                         out);
    core::LatticeEngine reader(session_config());
    reader.state() = state;
    m["core.state_read_ms"] =
        probe_ms(spans, "probe.core.state_read", kProbeReps, [&] {
          const auto profile =
              lgca::momentum_profile_x(reader.state(), reader.gas_model());
          if (profile.size() != static_cast<std::size_t>(kSide)) {
            out.fail_check("momentum profile has the wrong length");
          }
        });
  }

  // ---- checks ----
  mgr.wait_all();
  std::int64_t wrong_generation = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (mgr.query(ids[k]).generation != expected[k]) ++wrong_generation;
  }
  if (wrong_generation > 0) {
    out.fail_check(format("%lld sessions ended at the wrong generation",
                          static_cast<long long>(wrong_generation)),
                   wrong_generation);
  }
  for (const std::size_t k : {std::size_t{0}, n / 3, 2 * n / 3, n - 1}) {
    if (!(mgr.state(ids[k]) == twin_state(seeds[k], expected[k]))) {
      out.fail_check(format("session %zu differs from its unevicted twin", k));
    }
  }
  out.note(format("checks: %lld responses ok with the requested generation; "
                  "%zu sessions at their requested generation; 4 sampled "
                  "sessions bit-exact vs unevicted twins",
                  static_cast<long long>(requests - out.failed), n));

  // ---- context ----
  out.context.emplace_back(
      "shape", format("%d FHP-II %lldx%lld periodic BitPlane sessions",
                      shape.sessions, static_cast<long long>(kSide),
                      static_cast<long long>(kSide)));
  out.context.emplace_back(
      "pool", format("max_resident=%d workers=1 quantum=%lld; step "
                     "generations=%lld wait=true; one client, one "
                     "socketpair connection",
                     shape.max_resident, static_cast<long long>(kGens),
                     static_cast<long long>(kGens)));
  out.context.emplace_back(
      "threads", format("engine threads=1, bands=1, active threads=3 "
                        "(client, connection, scheduler worker), pinned to "
                        "CPU %d",
                        cpu));
  out.context.emplace_back("tile_plan",
                           "depth=1 (64x64 sessions plan no tiling)");

  // ---- metrics ----
  // Committed updates per one-second window; the last window is partial
  // (the loop stops inside it) and is left out. The rate sustained in
  // nine windows of ten: these hosts run the same requests up to 1.8x
  // faster in phases lasting seconds, and the median moved with the
  // share of fast seconds while the slow seconds held (README, "Serve
  // throughput"). A run too short for that percentile falls back to the
  // whole timed phase.
  const double sites_per_request = static_cast<double>(kGens * kSide * kSide);
  std::vector<double> window_rates;
  for (std::size_t w = 0; w + 1 < per_window.size(); ++w) {
    window_rates.push_back(static_cast<double>(per_window[w]) *
                           sites_per_request);
  }
  const auto sustained = percentile(window_rates, 10);
  m["sites_per_s"] = sustained
                         ? sustained->value
                         : static_cast<double>(requests) * sites_per_request /
                               (ms_between(phase0, phase_end) * 1e-3);
  if (sustained) {
    const auto [slowest, fastest] =
        std::minmax_element(window_rates.begin(), window_rates.end());
    out.note(format("one-second windows: n=%zu; slowest %.4g, p10 %.4g, "
                    "median %.4g, fastest %.4g sites/s",
                    window_rates.size(), *slowest, sustained->value,
                    median(window_rates), *fastest));
  } else {
    out.note(format("one-second windows: n=%zu, too few for p10; "
                    "sites_per_s is the whole timed phase's rate",
                    window_rates.size()));
  }
  setup_metric(out, setups_before, setup_own, setups_after);
  m["peak_rss_mb"] = peak_mib;
  step_percentiles(out, "round trip", round_trips);
  if (!opt.trace) return out;

  const double handle = span_median_ms(spans, "serve.ServeProtocol::handle");
  const double step_wait =
      span_median_ms(spans, "serve.SessionManager::step+wait");
  m["serve.transport_ms"] = median(traced_rt_ms) - handle;
  m["serve.protocol_ms"] = handle - step_wait;
  m["serve.queue_wait_ms"] = median(queue_wait_ms);
  m["serve.quantum_ms"] = median(quantum_ms);
  m["serve.restores_per_request"] =
      static_cast<double>(stats1.restored - stats0.restored) /
      static_cast<double>(requests);
  m["serve.evictions_per_request"] =
      static_cast<double>(stats1.evicted - stats0.evicted) /
      static_cast<double>(requests);
  m["serve.create_ms"] = span_median_ms(spans, "serve.create");
  m["serve.rss_per_session_kb"] = rss_per_session_kb;
  m["obs.trace_overhead_frac"] = median(traced_rt_ms) / median(round_trips) - 1;

  const double restores =
      m["serve.restores_per_request"] * m["serve.restore_ms"];
  const double evictions =
      m["serve.evictions_per_request"] * m["serve.evict_ms"];
  attribution_report(
      out, "request", median(round_trips), round_trips.size(),
      {{"lgca kernel", lt.kernel_ms},
       {"lgca pack", lt.pack_ms},
       {"lgca unpack", lt.unpack_ms},
       {"lgca runner other",
        lt.runner_ms - lt.kernel_ms - lt.pack_ms - lt.unpack_ms},
       {"core engine other", lt.advance_ms - lt.runner_ms},
       {"serve quantum beyond advance", m["serve.quantum_ms"] - lt.advance_ms},
       {"serve restore", restores},
       {"serve evict", evictions},
       {"serve queue wait other",
        m["serve.queue_wait_ms"] - restores - evictions},
       {"serve protocol", m["serve.protocol_ms"]},
       {"serve transport", m["serve.transport_ms"]}});
  return out;
}

}  // namespace perfbench
