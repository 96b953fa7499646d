#include "lattice/arch/wsa.hpp"

#include "lattice/obs/metrics.hpp"
#include "lattice/obs/trace.hpp"

namespace lattice::arch {

namespace {

struct WsaObs {
  obs::MetricsRegistry::Id ticks = obs::counter_id("wsa.ticks");
  obs::MetricsRegistry::Id sites = obs::counter_id("wsa.site_updates");
  obs::MetricsRegistry::Id run_ns = obs::histogram_id("wsa.run_ns");
  static const WsaObs& get() {
    static const WsaObs ids;
    return ids;
  }
};

}  // namespace

WsaPipeline::WsaPipeline(Extent extent, const lgca::Rule& rule, int depth,
                         int width, std::int64_t t0, bool fast_kernel,
                         fault::FaultInjector* fault)
    : extent_(extent),
      rule_(&rule),
      lut_(fast_kernel ? lgca::CollisionLut::try_get(rule) : nullptr),
      depth_(depth),
      width_(width),
      t0_(t0),
      fault_(fault) {
  LATTICE_REQUIRE(depth >= 1, "WSA pipeline needs at least one stage");
  LATTICE_REQUIRE(width >= 1, "WSA stage width (P) must be >= 1");
  // Build the persistent stage chain: stage s updates generation t0+s
  // and sees s·delay positions of upstream latency. run() rearms these
  // stages in place instead of reconstructing them.
  stages_.reserve(static_cast<std::size_t>(depth_));
  for (int s = 0; s < depth_; ++s) {
    stages_.emplace_back(extent_, *rule_, t0_ + s, width_, lead_, lut_,
                         fault_, s);
    lead_ += stages_.back().delay();
  }
  bus_a_.assign(static_cast<std::size_t>(width_), 0);
  bus_b_.assign(static_cast<std::size_t>(width_), 0);
}

lgca::SiteLattice WsaPipeline::run(const lgca::SiteLattice& in) {
  LATTICE_REQUIRE(in.extent() == extent_, "lattice extent mismatch");
  LATTICE_REQUIRE(in.boundary() == lgca::Boundary::Null,
                  "serial pipelines stream null-boundary lattices only");
  const obs::TraceSpan span("wsa.run");
  const obs::ScopedTimer run_timer(WsaObs::get().run_ns);
  const std::int64_t ticks_before = stats_.ticks;

  // Rearm the persistent chain for this pass's generations.
  for (int s = 0; s < depth_; ++s) {
    stages_[static_cast<std::size_t>(s)].reset(t0_ + s);
  }

  const std::int64_t area = extent_.area();
  lgca::SiteLattice out(extent_, lgca::Boundary::Null);

  // Total stream positions: the lattice plus the accumulated latency,
  // rounded up to whole ticks.
  const std::int64_t total_positions = area + lead_;

  std::int64_t collected = 0;
  for (std::int64_t pos = 0; pos < total_positions || collected < area;
       pos += width_) {
    // Fetch a batch from main memory (zero-padded past the end).
    for (int b = 0; b < width_; ++b) {
      const std::int64_t p = pos + b;
      bus_a_[static_cast<std::size_t>(b)] =
          p < area ? in[static_cast<std::size_t>(p)] : lgca::Site{0};
      if (p < area) ++stats_.mem_sites_read;
    }
    // Ripple the batch through the chain.
    lgca::Site* cur = bus_a_.data();
    lgca::Site* nxt = bus_b_.data();
    for (std::size_t s = 0; s < stages_.size(); ++s) {
      stages_[s].tick(cur, nxt);
      std::swap(cur, nxt);
      if (s + 1 < stages_.size()) stats_.interchip_sites += width_;
    }
    ++stats_.ticks;
    // The final stage's logical output position trails the *global*
    // input position by the total latency.
    for (int b = 0; b < width_; ++b) {
      const std::int64_t out_pos = pos + b - lead_;
      if (out_pos >= 0 && out_pos < area) {
        out[static_cast<std::size_t>(out_pos)] = cur[b];
        ++stats_.mem_sites_written;
        ++collected;
      }
    }
  }

  stats_.site_updates += area * depth_;
  stats_.buffer_sites = 0;
  for (const StreamStage& s : stages_) stats_.buffer_sites += s.buffer_sites();
  obs::count(WsaObs::get().ticks, stats_.ticks - ticks_before);
  obs::count(WsaObs::get().sites, area * depth_);

  // Online conservation audit (gas rules only): each stage is one
  // generation of the chain.
  if (fault_ != nullptr) {
    std::vector<fault::StageAudit> audits;
    audits.reserve(stages_.size());
    for (const StreamStage& s : stages_) audits.push_back(s.audit());
    fault::audit_chain(in, audits, *fault_);
  }
  return out;
}

lgca::SiteLattice WsaPipeline::run_passes(const lgca::SiteLattice& in,
                                          int passes) {
  LATTICE_REQUIRE(passes >= 1, "need at least one pass");
  // Each pass advances depth_ generations; the persistent chain is
  // retargeted per pass and stats accumulate in place.
  const std::int64_t t0 = t0_;
  lgca::SiteLattice cur = in;
  for (int p = 0; p < passes; ++p) {
    set_t0(t0 + static_cast<std::int64_t>(p) * depth_);
    cur = run(cur);
  }
  set_t0(t0);
  return cur;
}

}  // namespace lattice::arch
