#include "lattice/arch/spa.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "lattice/common/thread_pool.hpp"
#include "lattice/lgca/collision_lut.hpp"
#include "lattice/obs/metrics.hpp"
#include "lattice/obs/trace.hpp"

namespace lattice::arch {

namespace {

struct SpaObs {
  obs::MetricsRegistry::Id ticks = obs::counter_id("spa.ticks");
  obs::MetricsRegistry::Id sites = obs::counter_id("spa.site_updates");
  obs::MetricsRegistry::Id run_ns = obs::histogram_id("spa.run_ns");
  obs::MetricsRegistry::Id lane_ns = obs::histogram_id("spa.lane_ns");
  static const SpaObs& get() {
    static const SpaObs ids;
    return ids;
  }
};

}  // namespace

// One serial pipeline stage scoped to a slice, with window completion
// across slice boundaries via peeks into the neighbor stage's buffer.
// Defined at namespace scope (this TU only) so the persistent
// SpaMachine::CycleState can hold a grid of them without dragging the
// class into the public header.
class SliceStage {
 public:
  SliceStage(Extent slice_extent, std::int64_t slice_x0,
             std::int64_t lattice_width, const lgca::Rule& rule,
             const lgca::CollisionLut* lut, std::int64_t t, std::int64_t lead,
             fault::FaultInjector* fault = nullptr, int stage_id = 0,
             std::int64_t lane = 0)
      : extent_(slice_extent),
        x0_(slice_x0),
        lattice_width_(lattice_width),
        rule_(&rule),
        lut_(lut),
        t_(t),
        delay_(extent_.width + 1),
        lead_(lead),
        next_in_(-lead),
        ring_(static_cast<std::size_t>(2 * extent_.width + 6), 0),
        fault_(fault),
        stage_id_(stage_id),
        lane_(lane) {
    if (fault_ != nullptr) {
      meta_.assign(ring_.size(), 0);
      // Conservation is only defined for gases; generic rules rely on
      // the parity and side-channel detectors alone.
      audit_.valid = lut_ != nullptr;
      if (lut_ != nullptr) topo_ = lut_->model().topology();
    }
  }

  /// Rearm for a fresh pass at generation `t`: clear the slice buffer
  /// and parity shadow, reset the ledger, rewind the stream. Keeps the
  /// allocations — the point of a persistent machine.
  void reset(std::int64_t t) {
    t_ = t;
    next_in_ = -lead_;
    std::fill(ring_.begin(), ring_.end(), lgca::Site{0});
    if (fault_ != nullptr) {
      std::fill(meta_.begin(), meta_.end(), std::uint8_t{0});
      const bool valid = audit_.valid;
      audit_ = fault::StageAudit{};
      audit_.valid = valid;
    }
  }

  std::int64_t delay() const noexcept { return delay_; }
  std::int64_t newest() const noexcept { return next_in_ - 1; }
  std::int64_t buffer_sites() const noexcept {
    return static_cast<std::int64_t>(ring_.size());
  }

  void set_neighbors(SliceStage* left, SliceStage* right) noexcept {
    left_ = left;
    right_ = right;
  }

  /// Buffered stream value at logical position `pos`; zero outside the
  /// slice stream (vertical null padding). Asserts the position has
  /// arrived and is still buffered — the synchronism guarantee the
  /// stagger provides.
  lgca::Site peek(std::int64_t pos) const noexcept {
    if (pos < 0 || pos >= extent_.area()) return 0;
    LATTICE_ASSERT(pos <= newest(), "SPA side channel read of future data");
    LATTICE_ASSERT(newest() - pos <
                       static_cast<std::int64_t>(ring_.size()),
                   "SPA side channel read of expired data");
    const std::size_t idx = index(pos);
    const lgca::Site v = ring_[idx];
    if (fault_ != nullptr) {
      // The parity shadow was written from the true stream value; a
      // mismatch means the slice buffer decayed underneath us.
      std::uint8_t& m = meta_[idx];
      if (((std::popcount(static_cast<unsigned>(v)) ^ m) & 1) != 0 &&
          (m & 2) == 0) {
        m |= 2;  // report each corrupted word once
        fault_->report_parity_error();
      }
    }
    return v;
  }

  /// Conservation ledger for this stage's pass (valid only when a
  /// fault injector is attached and the rule is a gas).
  const fault::StageAudit& audit() const noexcept { return audit_; }

  /// Consume one input site, emit one output site (zero when the
  /// output position falls outside the slice).
  lgca::Site tick(lgca::Site in, SpaStats& stats) {
    if (fault_ != nullptr) in = store_guarded(in);
    ring_[index(next_in_)] = in;
    ++next_in_;
    const std::int64_t pos = next_in_ - 1 - delay_;
    if (pos < 0 || pos >= extent_.area()) return 0;
    lgca::Site u = lut_ != nullptr ? update_at_fused(pos, stats)
                                   : update_at(pos, stats);
    if (fault_ != nullptr) u = emit_guarded(u);
    return u;
  }

 private:
  std::size_t index(std::int64_t pos) const noexcept {
    const auto cap = static_cast<std::int64_t>(ring_.size());
    return static_cast<std::size_t>(((pos % cap) + cap) % cap);
  }

  /// Ledger + transient corruption + parity shadow for the word being
  /// stored at logical position next_in_. Keys and the outflow audit
  /// use *global* lattice coordinates so draws are unique across
  /// slices and cross-slice streaming cancels in the per-depth
  /// aggregate.
  lgca::Site store_guarded(lgca::Site v) {
    lgca::Site stored = v;
    const std::int64_t pos = next_in_;
    if (pos >= 0 && pos < extent_.area()) {
      const std::int64_t gx = x0_ + pos % extent_.width;
      const std::int64_t gy = pos / extent_.width;
      if (audit_.valid) {
        audit_.in_mass += lgca::particle_count(v);
        audit_.in_obstacles += lgca::is_obstacle(v) ? 1 : 0;
        audit_.outflow += fault::site_outflow(
            v, {gx, gy}, Extent{lattice_width_, extent_.height}, topo_);
      }
      stored = fault_->corrupt_stored(t_, gy * lattice_width_ + gx, v);
    }
    meta_[index(pos)] = static_cast<std::uint8_t>(
        std::popcount(static_cast<unsigned>(v)) & 1);
    return stored;
  }

  /// Stuck-at masks for this (depth, slice) chip plus the output side
  /// of the conservation ledger.
  lgca::Site emit_guarded(lgca::Site u) {
    if (fault_->has_stuck()) u = fault_->apply_stuck(stage_id_, lane_, u);
    if (audit_.valid) {
      audit_.out_mass += lgca::particle_count(u);
      audit_.out_obstacles += lgca::is_obstacle(u) ? 1 : 0;
    }
    return u;
  }

  /// A word arriving over a side channel, keyed by the *source* site's
  /// global position and the link it crossed, so re-reads of the same
  /// boundary word see the same (possibly corrupted) latched value.
  /// The links carry parity and framing, so any altered word is
  /// detected with certainty.
  lgca::Site side_guarded(lgca::Site v, std::int64_t src_gpos,
                          bool from_right) const {
    const lgca::Site got = fault_->corrupt_side_word(
        t_, src_gpos * 2 + (from_right ? 1 : 0), v);
    if (got != v) fault_->report_side_error();
    return got;
  }

  /// Window cell at slice-local (x + dx, y + dy), with the same
  /// masking and side-channel routing as the generic window build.
  lgca::Site window_value(std::int64_t x, std::int64_t y, int dx, int dy,
                          std::int64_t pos, SpaStats& stats) const {
    const std::int64_t w = extent_.width;
    const std::int64_t gx = x0_ + x + dx;  // global column
    const std::int64_t ny = y + dy;
    if (gx < 0 || gx >= lattice_width_ || ny < 0 || ny >= extent_.height) {
      return 0;
    }
    const std::int64_t lx = x + dx;
    if (lx >= 0 && lx < w) return peek(pos + dy * w + dx);
    if (lx < 0) {
      LATTICE_ASSERT(left_ != nullptr, "missing left slice");
      ++stats.boundary_fetches;
      lgca::Site v = left_->peek(ny * w + (w - 1));
      if (fault_ != nullptr) {
        v = side_guarded(v, ny * lattice_width_ + (x0_ - 1), false);
      }
      return v;
    }
    LATTICE_ASSERT(right_ != nullptr, "missing right slice");
    ++stats.boundary_fetches;
    lgca::Site v = right_->peek(ny * w + 0);
    if (fault_ != nullptr) {
      v = side_guarded(v, ny * lattice_width_ + (x0_ + w), true);
    }
    return v;
  }

  lgca::Site update_at(std::int64_t pos, SpaStats& stats) const {
    const std::int64_t w = extent_.width;
    const std::int64_t x = pos % w;  // slice-local column
    const std::int64_t y = pos / w;
    lgca::Window win;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        win.at(dx, dy) = window_value(x, y, dx, dy, pos, stats);
      }
    }
    ++stats.site_updates;
    return rule_->apply(win, lgca::SiteContext{x0_ + x, y, t_});
  }

  /// Fused path: gather only the channels the gas update reads, skip
  /// Window construction and virtual dispatch. Counters are a property
  /// of the simulated machine (the hardware window always moves all
  /// boundary-crossing cells), so side-channel traffic is accounted
  /// exactly as the generic path would.
  lgca::Site update_at_fused(std::int64_t pos, SpaStats& stats) const {
    const std::int64_t w = extent_.width;
    const std::int64_t x = pos % w;
    const std::int64_t y = pos / w;
    SpaStats scratch;  // tap-driven reads must not double-count traffic
    lgca::Site in = 0;
    const auto& taps = lut_->taps((y & 1) != 0);
    for (int i = 0; i < lut_->tap_count(); ++i) {
      const auto tap = taps[static_cast<std::size_t>(i)];
      in |= static_cast<lgca::Site>(
          window_value(x, y, tap.dx, tap.dy, pos, scratch) & tap.bit);
    }
    in |= static_cast<lgca::Site>(peek(pos) & lut_->center_mask());
    // Machine-accurate side-channel accounting: every in-range window
    // cell that crosses the slice edge is one fetch, as in update_at.
    if (x == 0 && left_ != nullptr) {
      for (int dy = -1; dy <= 1; ++dy) {
        const std::int64_t ny = y + dy;
        if (ny >= 0 && ny < extent_.height) ++stats.boundary_fetches;
      }
    }
    if (x == w - 1 && right_ != nullptr) {
      for (int dy = -1; dy <= 1; ++dy) {
        const std::int64_t ny = y + dy;
        if (ny >= 0 && ny < extent_.height) ++stats.boundary_fetches;
      }
    }
    ++stats.site_updates;
    return lut_->collide(in,
                         lgca::GasModel::chirality(x0_ + x, y, t_));
  }

  Extent extent_;
  std::int64_t x0_;
  std::int64_t lattice_width_;
  const lgca::Rule* rule_;
  const lgca::CollisionLut* lut_;
  std::int64_t t_;
  std::int64_t delay_;
  std::int64_t lead_;
  std::int64_t next_in_;
  std::vector<lgca::Site> ring_;
  SliceStage* left_ = nullptr;
  SliceStage* right_ = nullptr;

  // Fault machinery; inert (and meta_ unallocated) when fault_ is null.
  fault::FaultInjector* fault_ = nullptr;
  int stage_id_ = 0;
  std::int64_t lane_ = 0;
  lgca::Topology topo_ = lgca::Topology::Hex6;
  fault::StageAudit audit_;
  /// Parity shadow of the slice buffer: bit 0 = parity of the word the
  /// stream delivered, bit 1 = mismatch already reported. Mutable
  /// because detection happens on (const) peeks.
  mutable std::vector<std::uint8_t> meta_;
};

/// Persistent cycle-exact machine state: stages[j][d] is the depth-d
/// stage of slice j, kept alive (and rearmed) across passes.
struct SpaMachine::CycleState {
  std::vector<std::vector<SliceStage>> stages;
};

SpaMachine::~SpaMachine() = default;
SpaMachine::SpaMachine(SpaMachine&&) noexcept = default;
SpaMachine& SpaMachine::operator=(SpaMachine&&) noexcept = default;

SpaMachine::SpaMachine(Extent extent, const lgca::Rule& rule,
                       std::int64_t slice_width, int depth, std::int64_t t0,
                       unsigned threads, bool fast_kernel,
                       fault::FaultInjector* fault)
    : extent_(extent),
      rule_(&rule),
      slice_width_(slice_width),
      slices_(0),
      depth_(depth),
      t0_(t0),
      threads_(threads),
      lut_(fast_kernel ? lgca::CollisionLut::try_get(rule) : nullptr),
      fault_(fault) {
  LATTICE_REQUIRE(extent.width > 0 && extent.height > 0,
                  "SPA extent must be positive");
  LATTICE_REQUIRE(slice_width >= 2, "SPA slice width must be >= 2");
  LATTICE_REQUIRE(extent.width % slice_width == 0,
                  "SPA slice width must divide the lattice width");
  LATTICE_REQUIRE(depth >= 1, "SPA depth must be >= 1");
  LATTICE_REQUIRE(threads >= 1, "SPA needs at least one thread");
  slices_ = extent.width / slice_width;
}

lgca::SiteLattice SpaMachine::run(const lgca::SiteLattice& in) {
  LATTICE_REQUIRE(in.extent() == extent_, "lattice extent mismatch");
  LATTICE_REQUIRE(in.boundary() == lgca::Boundary::Null,
                  "SPA streams null-boundary lattices only");
  const obs::TraceSpan span("spa.run");
  const obs::ScopedTimer run_timer(SpaObs::get().run_ns);
  const std::int64_t ticks_before = stats_.ticks;
  // Armed runs must exercise the simulated slice buffers and side
  // channels, which only exist in the cycle-exact walk.
  const bool faulty = fault_ != nullptr && fault_->armed();
  lgca::SiteLattice out = (threads_ >= 2 && !faulty) ? run_parallel(in)
                                                     : run_cycle_exact(in);
  if (fault_ != nullptr && fault_->remapped_lanes() > 0) {
    // A remapped slice's columns are re-streamed serially by a
    // surviving neighbor pipeline: one extra slice-stream per removed
    // chip per pass — the tick price of graceful degradation.
    stats_.ticks += static_cast<std::int64_t>(fault_->remapped_lanes()) *
                    slice_width_ * extent_.height;
  }
  obs::count(SpaObs::get().ticks, stats_.ticks - ticks_before);
  obs::count(SpaObs::get().sites, extent_.area() * depth_);
  return out;
}

lgca::SiteLattice SpaMachine::run_cycle_exact(const lgca::SiteLattice& in) {
  const Extent slice_extent{slice_width_, extent_.height};
  const std::int64_t slice_area = slice_extent.area();
  const std::int64_t stage_delay = slice_width_ + 1;

  // stages[j][d]: depth-d stage of slice j. Slice j is staggered one
  // slice-row (W positions) behind slice j-1; depth adds stage latency.
  // The grid is built on the first pass and rearmed in place on every
  // later one.
  if (cycle_ == nullptr) {
    cycle_ = std::make_unique<CycleState>();
    cycle_->stages.resize(static_cast<std::size_t>(slices_));
    for (std::int64_t j = 0; j < slices_; ++j) {
      auto& chain = cycle_->stages[static_cast<std::size_t>(j)];
      chain.reserve(static_cast<std::size_t>(depth_));
      for (int d = 0; d < depth_; ++d) {
        chain.emplace_back(slice_extent, j * slice_width_, extent_.width,
                           *rule_, lut_, t0_ + d,
                           j * slice_width_ + d * stage_delay, fault_, d, j);
      }
    }
    for (std::int64_t j = 0; j < slices_; ++j) {
      for (int d = 0; d < depth_; ++d) {
        SliceStage* left =
            j > 0 ? &cycle_->stages[static_cast<std::size_t>(j - 1)]
                                   [static_cast<std::size_t>(d)]
                  : nullptr;
        SliceStage* right = j + 1 < slices_
                                ? &cycle_->stages[static_cast<std::size_t>(
                                      j + 1)][static_cast<std::size_t>(d)]
                                : nullptr;
        cycle_->stages[static_cast<std::size_t>(j)]
                      [static_cast<std::size_t>(d)]
                          .set_neighbors(left, right);
      }
    }
  }
  auto& stages = cycle_->stages;
  for (auto& chain : stages) {
    for (int d = 0; d < depth_; ++d) {
      chain[static_cast<std::size_t>(d)].reset(t0_ + d);
    }
  }

  lgca::SiteLattice out(extent_, lgca::Boundary::Null);
  std::int64_t collected = 0;
  const std::int64_t total_ticks = (slices_ - 1) * slice_width_ +
                                   slice_area + depth_ * stage_delay + 2;

  for (std::int64_t tick = 0;
       tick < total_ticks || collected < extent_.area(); ++tick) {
    // Rightmost slice first: it is the most-delayed stream, and its
    // left neighbors read its freshly arrived boundary column.
    for (std::int64_t j = slices_ - 1; j >= 0; --j) {
      auto& chain = stages[static_cast<std::size_t>(j)];
      // Memory feeds slice j the site at local position tick - j·W.
      const std::int64_t p0 = tick - j * slice_width_;
      lgca::Site v = 0;
      if (p0 >= 0 && p0 < slice_area) {
        const std::int64_t ly = p0 / slice_width_;
        const std::int64_t lx = p0 % slice_width_;
        v = in.at({j * slice_width_ + lx, ly});
        ++stats_.mem_sites_read;
      }
      for (int d = 0; d < depth_; ++d) {
        v = chain[static_cast<std::size_t>(d)].tick(v, stats_);
      }
      // Final stage output: logical position for the last stage.
      const std::int64_t out_pos =
          tick - j * slice_width_ - depth_ * stage_delay;
      if (out_pos >= 0 && out_pos < slice_area) {
        const std::int64_t ly = out_pos / slice_width_;
        const std::int64_t lx = out_pos % slice_width_;
        out.at({j * slice_width_ + lx, ly}) = v;
        ++stats_.mem_sites_written;
        ++collected;
      }
    }
    ++stats_.ticks;
  }

  stats_.buffer_sites = 0;
  for (const auto& chain : stages)
    for (const SliceStage& s : chain) stats_.buffer_sites += s.buffer_sites();

  // Online conservation audit (gas rules only). Per slice the ledger
  // does not balance — side channels carry particles between slices —
  // but aggregated over all slices of one depth it is one generation
  // of the chain.
  if (fault_ != nullptr) {
    std::vector<fault::StageAudit> per_depth(static_cast<std::size_t>(depth_));
    for (const auto& chain : stages) {
      for (int d = 0; d < depth_; ++d) {
        per_depth[static_cast<std::size_t>(d)] +=
            chain[static_cast<std::size_t>(d)].audit();
      }
    }
    fault::audit_chain(in, per_depth, *fault_);
  }
  return out;
}

// Thread-parallel execution: slice pipelines on worker lanes, stepped
// as a row-chunk wavefront. Lane ownership is a contiguous group of
// slices; generation d+1 of chunk c is computed at step s = c + 2d, so
// every read of generation d (rows up to one past the chunk) lands on
// data finished at step s-1 or earlier — the barrier between steps is
// the side-channel synchronization. Output is the reference evolution
// by construction: every site update reads pure generation-d data.
lgca::SiteLattice SpaMachine::run_parallel(const lgca::SiteLattice& in) {
  const std::int64_t h = extent_.height;
  const std::int64_t area = extent_.area();

  // Generation ladder gen_[0..depth]; gen_[0] is the input pass. The
  // ladder persists across passes (every cell of an intermediate
  // lattice is rewritten before it is read, so stale data from the
  // previous pass is never observed); only gen_[0] is refreshed here.
  if (gen_.size() != static_cast<std::size_t>(depth_) + 1) {
    gen_.clear();
    gen_.reserve(static_cast<std::size_t>(depth_) + 1);
    gen_.push_back(in);
    for (int d = 0; d < depth_; ++d) {
      gen_.emplace_back(extent_, lgca::Boundary::Null);
    }
  } else {
    gen_.front() = in;
  }
  auto& gen = gen_;

  auto& pool = common::ThreadPool::shared();
  const unsigned lanes = static_cast<unsigned>(std::min<std::int64_t>(
      {static_cast<std::int64_t>(threads_), slices_,
       static_cast<std::int64_t>(pool.max_lanes())}));

  const std::int64_t chunk = std::min<std::int64_t>(8, h);
  const std::int64_t chunks = (h + chunk - 1) / chunk;
  const std::int64_t steps = chunks + 2 * (depth_ - 1);

  // One lane's wavefront; `sync.step(work)` runs one step of it.
  const auto lane_body = [&](unsigned lane, auto& sync) {
    const std::int64_t s0 = slices_ * lane / lanes;
    const std::int64_t s1 = slices_ * (lane + 1) / lanes;
    const std::int64_t x0 = s0 * slice_width_;
    const std::int64_t x1 = s1 * slice_width_;
    for (std::int64_t s = 0; s < steps; ++s) {
      const auto step = [&] {
        for (int d = 0; d < depth_; ++d) {
          const std::int64_t c = s - 2 * d;
          if (c < 0 || c >= chunks) continue;
          const lgca::SiteLattice& src = gen[static_cast<std::size_t>(d)];
          lgca::SiteLattice& dst = gen[static_cast<std::size_t>(d) + 1];
          const std::int64_t t = t0_ + d;
          const std::int64_t yb = c * chunk;
          const std::int64_t ye = std::min(h, yb + chunk);
          for (std::int64_t y = yb; y < ye; ++y) {
            if (lut_ != nullptr) {
              lut_->update_span(dst, src, t, y, x0, x1);
            } else {
              for (std::int64_t x = x0; x < x1; ++x) {
                dst.at({x, y}) = rule_->apply(src.window_at({x, y}),
                                              lgca::SiteContext{x, y, t});
              }
            }
          }
        }
      };
      if (!sync.step(step)) return;
    }
  };

  if (lanes <= 1) {
    common::SoloStep solo;
    lane_body(0, solo);
  } else {
    // The side channels: one rendezvous per step, which also ends
    // every lane at the same step when one of them throws.
    common::Lockstep side_channel(lanes);
    pool.run_lanes(lanes, [&](unsigned lane) {
      const obs::ScopedTimer timer(SpaObs::get().lane_ns);
      lane_body(lane, side_channel);
    });
  }

  // Counters of the simulated machine — the closed forms the tick walk
  // in run_cycle_exact produces (asserted equal in the tests): the walk
  // always runs exactly total_ticks ticks, reads and writes the lattice
  // once, applies the rule at every (site, stage), and completes 3h-2
  // in-range window cells per side of each interior slice edge per
  // generation. Buffers are the 2W+6 ring of each (slice, stage).
  stats_.ticks += (slices_ - 1) * slice_width_ + slice_width_ * h +
                  depth_ * (slice_width_ + 1) + 2;
  stats_.site_updates += area * depth_;
  stats_.mem_sites_read += area;
  stats_.mem_sites_written += area;
  stats_.boundary_fetches += static_cast<std::int64_t>(depth_) *
                             (slices_ - 1) * 2 * (3 * h - 2);
  stats_.buffer_sites = slices_ * depth_ * (2 * slice_width_ + 6);
  // Hand the final generation to the caller and re-arm the slot so the
  // persistent ladder stays fully allocated for the next pass.
  lgca::SiteLattice result = std::move(gen.back());
  gen.back() = lgca::SiteLattice(extent_, lgca::Boundary::Null);
  return result;
}

}  // namespace lattice::arch
