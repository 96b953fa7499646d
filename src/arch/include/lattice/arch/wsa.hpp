// Wide-serial architecture system simulator (§4, §6.1).
//
// A WSA system is k chips in a chain, each one P-wide pipeline stage;
// one pass of the site stream through the chain advances the lattice k
// generations. Main memory touches only the first stage's input and the
// last stage's output, which is the architecture's defining virtue: the
// bandwidth demand is 2·D·P bits per tick no matter how deep the
// pipeline is.
//
// The extensible WSA-E (§5, §6.3) is this chain at width 1. Moving the
// line buffer off chip frees die area, so the lattice length L is
// unbounded, and costs pins: each PE streams its two externally
// buffered window rows in and out every tick, 4·D pins on top of the
// 2·D stream, which at the 1987 budget leaves one PE per chip. The
// stages, and so the bits, are the same as here. What WSA-E adds is
// accounting, kept by its executor: the off-chip ledger and the stalls
// of the external buffer parts (line_buffer_stall_rate in
// arch/memory.hpp).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lattice/arch/stream_stage.hpp"
#include "lattice/arch/technology.hpp"

namespace lattice::arch {

/// Counters accumulated by a pipeline run.
struct PipelineStats {
  std::int64_t ticks = 0;            // clock cycles consumed
  std::int64_t site_updates = 0;     // rule applications performed
  std::int64_t mem_sites_read = 0;   // sites fetched from main memory
  std::int64_t mem_sites_written = 0;
  std::int64_t interchip_sites = 0;  // sites crossing chip-to-chip links
  std::int64_t buffer_sites = 0;     // total shift-register storage

  /// Sustained updates per tick (the R/F of §6).
  double updates_per_tick() const {
    return ticks > 0 ? static_cast<double>(site_updates) /
                           static_cast<double>(ticks)
                     : 0.0;
  }
};

/// A k-stage, P-wide serial pipeline over a fixed lattice extent.
class WsaPipeline {
 public:
  /// `depth` chips (= generations per pass), `width` PEs per chip.
  /// `fast_kernel` opts gas rules into the fused CollisionLut gather
  /// inside every stage (identical output; non-gas rules ignore it).
  /// A non-null `fault` arms injection and online detection in every
  /// stage (see StreamStage) and, for gas rules on the fused gather,
  /// the chain conservation audit (fault::audit_chain) of each run.
  ///
  /// The stage chain (ring buffers, parity shadows) is built once here
  /// and persists across runs; each run() rearms it in place, so a
  /// long-lived pipeline pays construction and allocation exactly once.
  WsaPipeline(Extent extent, const lgca::Rule& rule, int depth, int width,
              std::int64_t t0 = 0, bool fast_kernel = false,
              fault::FaultInjector* fault = nullptr);

  /// Stream `in` (which must use null boundaries) through the pipeline
  /// and return the lattice advanced by `depth` generations.
  lgca::SiteLattice run(const lgca::SiteLattice& in);

  /// Run `passes` consecutive passes (depth generations each).
  lgca::SiteLattice run_passes(const lgca::SiteLattice& in, int passes);

  /// Retarget the next run() at generation `t0` (stage generations are
  /// reassigned when the run rearms the chain). Lets one persistent
  /// pipeline advance a lattice pass after pass.
  void set_t0(std::int64_t t0) noexcept { t0_ = t0; }

  const PipelineStats& stats() const noexcept { return stats_; }
  int depth() const noexcept { return depth_; }
  int width() const noexcept { return width_; }
  /// Total chain latency in stream positions: a pass streams
  /// extent.area() + lead() positions.
  std::int64_t lead() const noexcept { return lead_; }

  /// Modeled wall-clock update rate for a technology: updates/s
  /// sustained at tech.clock_hz given the measured updates_per_tick.
  double modeled_rate(const Technology& tech) const {
    return stats_.updates_per_tick() * tech.clock_hz;
  }

 private:
  Extent extent_;
  const lgca::Rule* rule_;
  const lgca::CollisionLut* lut_ = nullptr;  // non-null iff fast path on
  int depth_;
  int width_;
  std::int64_t t0_;
  fault::FaultInjector* fault_ = nullptr;
  PipelineStats stats_;

  // Persistent machine state, allocated once in the constructor:
  // stage s updates generation t0+s and sees lead_ of upstream latency
  // accumulated over stages 0..s-1.
  std::vector<StreamStage> stages_;
  std::int64_t lead_ = 0;  // total chain latency, stream positions
  std::vector<lgca::Site> bus_a_;
  std::vector<lgca::Site> bus_b_;
};

}  // namespace lattice::arch
