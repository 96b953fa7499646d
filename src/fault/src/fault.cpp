#include "lattice/fault/fault.hpp"

#include <atomic>

namespace lattice::fault {

namespace {

/// SplitMix64-style finalizer over a chained key. Every injection
/// decision is a pure function of its inputs, which is what makes fault
/// runs replayable and rollback retries independent.
constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  h += 0x9e3779b97f4a7c15ULL + v;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

constexpr std::uint64_t hash4(std::uint64_t a, std::uint64_t b,
                              std::uint64_t c, std::uint64_t d) noexcept {
  return mix(mix(mix(mix(0x8000000000000000ULL, a), b), c), d);
}

/// Uniform double in [0, 1) from the top 53 bits.
constexpr double to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Relaxed add on a plain counter field. The plane-memory path reports
/// from concurrent row bands; a rollback decision only reads the
/// counters between passes, after the band barrier, so relaxed ordering
/// suffices.
inline void atomic_add(std::int64_t& field, std::int64_t n) noexcept {
  std::atomic_ref<std::int64_t>(field).fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

int site_outflow(lgca::Site v, Coord c, Extent lattice,
                 lgca::Topology topo) noexcept {
  // Only the outermost ring can lose particles (all offsets are ±1).
  if (c.x > 0 && c.x < lattice.width - 1 && c.y > 0 &&
      c.y < lattice.height - 1) {
    return 0;
  }
  int n = 0;
  const int channels = lgca::channel_count(topo);
  for (int d = 0; d < channels; ++d) {
    if ((v & lgca::channel_bit(d)) == 0) continue;
    if (!lattice.contains(lgca::neighbor_coord(topo, c, d))) ++n;
  }
  return n;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  LATTICE_REQUIRE(plan_.buffer_flip_rate >= 0 && plan_.buffer_flip_rate <= 1,
                  "buffer_flip_rate must be in [0, 1]");
  LATTICE_REQUIRE(plan_.side_flip_rate >= 0 && plan_.side_flip_rate <= 1,
                  "side_flip_rate must be in [0, 1]");
  LATTICE_REQUIRE(plan_.side_drop_rate >= 0 && plan_.side_drop_rate <= 1,
                  "side_drop_rate must be in [0, 1]");
  for (const StuckAt& s : plan_.stuck) {
    LATTICE_REQUIRE(s.stage >= 0 && s.lane >= 0,
                    "stuck-at stage/lane must be non-negative");
  }
  LATTICE_REQUIRE(plan_.plane_flip_rate >= 0 && plan_.plane_flip_rate <= 1,
                  "plane_flip_rate must be in [0, 1]");
  LATTICE_REQUIRE(plan_.halo_flip_rate >= 0 && plan_.halo_flip_rate <= 1,
                  "halo_flip_rate must be in [0, 1]");
  for (const StuckPlaneWord& s : plan_.stuck_planes) {
    LATTICE_REQUIRE(s.plane >= 0 && s.plane < 8,
                    "stuck plane index must be in [0, 8)");
    LATTICE_REQUIRE(s.word >= 0, "stuck plane word must be non-negative");
  }
  if constexpr (obs::kEnabled) {
    obs_.injected_flips = obs::counter_id("fault.injected.flips");
    obs_.injected_stuck = obs::counter_id("fault.injected.stuck");
    obs_.injected_side = obs::counter_id("fault.injected.side");
    obs_.detected_parity = obs::counter_id("fault.detected.parity");
    obs_.detected_side = obs::counter_id("fault.detected.side");
    obs_.detected_conservation =
        obs::counter_id("fault.detected.conservation");
    obs_.injected_plane = obs::counter_id("fault.injected.plane");
    obs_.detected_ledger = obs::counter_id("fault.detected.ledger");
    obs_.detected_canary = obs::counter_id("fault.detected.canary");
    obs_.detected_shadow = obs::counter_id("fault.detected.shadow");
    obs_.remapped = obs::counter_id("fault.remapped_lanes");
  }
}

bool FaultInjector::armed() const noexcept {
  return plan_.buffer_flip_rate > 0 || plan_.side_flip_rate > 0 ||
         plan_.side_drop_rate > 0 || has_stuck() ||
         plan_.plane_flip_rate > 0 || plan_.halo_flip_rate > 0 ||
         has_stuck_planes() || plan_.parity_plane;
}

lgca::Site FaultInjector::corrupt_stored(std::int64_t t, std::int64_t pos,
                                         lgca::Site v) noexcept {
  if (plan_.buffer_flip_rate <= 0) return v;
  const std::uint64_t h =
      hash4(plan_.seed, epoch_ ^ 0x627573666c697073ULL,
            static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(pos));
  if (to_unit(h) >= plan_.buffer_flip_rate) return v;
  ++counters_.injected_flips;
  obs::count(obs_.injected_flips, 1);
  return static_cast<lgca::Site>(v ^ (1u << ((h >> 56) & 7)));
}

lgca::Site FaultInjector::corrupt_side_word(std::int64_t t, std::int64_t key,
                                            lgca::Site v) noexcept {
  if (plan_.side_flip_rate <= 0 && plan_.side_drop_rate <= 0) return v;
  const std::uint64_t h =
      hash4(plan_.seed, epoch_ ^ 0x736964656368616eULL,
            static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(key));
  const double u = to_unit(h);
  if (u < plan_.side_drop_rate) {
    ++counters_.injected_side;
    obs::count(obs_.injected_side, 1);
    return 0;  // framing error: the word never arrives
  }
  if (u < plan_.side_drop_rate + plan_.side_flip_rate) {
    ++counters_.injected_side;
    obs::count(obs_.injected_side, 1);
    return static_cast<lgca::Site>(v ^ (1u << ((h >> 56) & 7)));
  }
  return v;
}

lgca::Site FaultInjector::apply_stuck(int stage, std::int64_t lane,
                                      lgca::Site v) noexcept {
  if (stuck_disabled_) return v;
  for (const StuckAt& s : plan_.stuck) {
    if (s.stage != stage || s.lane != lane) continue;
    const auto forced =
        static_cast<lgca::Site>((v & s.and_mask) | s.or_mask);
    if (forced != v) {
      ++counters_.injected_stuck;
      obs::count(obs_.injected_stuck, 1);
      v = forced;
    }
  }
  return v;
}

std::uint64_t FaultInjector::draw_plane_flip(std::int64_t t, std::int64_t word,
                                             int* plane) const noexcept {
  if (plan_.plane_flip_rate <= 0) return 0;
  const std::uint64_t h =
      hash4(plan_.seed, epoch_ ^ 0x706c616e65666c70ULL,
            static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(word));
  if (to_unit(h) >= plan_.plane_flip_rate) return 0;
  // to_unit consumes bits 11..63; the target position comes from the
  // independent low bits.
  *plane = static_cast<int>(h & 7);
  return std::uint64_t{1} << ((h >> 3) & 63);
}

std::uint64_t FaultInjector::draw_halo_flip(std::int64_t t, std::int64_t row,
                                            int* plane_sel,
                                            bool* left) const noexcept {
  if (plan_.halo_flip_rate <= 0) return 0;
  const std::uint64_t h =
      hash4(plan_.seed, epoch_ ^ 0x68616c6f666c6970ULL,
            static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(row));
  if (to_unit(h) >= plan_.halo_flip_rate) return 0;
  *plane_sel = static_cast<int>(h & 7);
  *left = ((h >> 9) & 1) != 0;
  return std::uint64_t{1} << ((h >> 3) & 63);
}

void FaultInjector::note_plane_faults(std::int64_t n) noexcept {
  if (n <= 0) return;
  atomic_add(counters_.injected_plane, n);
  obs::count(obs_.injected_plane, n);
}

void FaultInjector::note_stuck_planes(std::int64_t n) noexcept {
  if (n <= 0) return;
  atomic_add(counters_.injected_stuck, n);
  obs::count(obs_.injected_stuck, n);
}

void FaultInjector::report_ledger_error(std::int64_t n) noexcept {
  if (n <= 0) return;
  atomic_add(counters_.detected_ledger, n);
  obs::count(obs_.detected_ledger, n);
}

void FaultInjector::report_canary_error(std::int64_t n) noexcept {
  if (n <= 0) return;
  atomic_add(counters_.detected_canary, n);
  obs::count(obs_.detected_canary, n);
}

void FaultInjector::report_shadow_error(std::int64_t n) noexcept {
  if (n <= 0) return;
  atomic_add(counters_.detected_shadow, n);
  obs::count(obs_.detected_shadow, n);
}

int FaultInjector::disable_stuck_planes() noexcept {
  if (stuck_planes_disabled_ || plan_.stuck_planes.empty()) return 0;
  stuck_planes_disabled_ = true;
  // Count distinct (plane, word) cells — one spare DRAM column each.
  int distinct = 0;
  for (std::size_t i = 0; i < plan_.stuck_planes.size(); ++i) {
    bool dup = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (plan_.stuck_planes[j].plane == plan_.stuck_planes[i].plane &&
          plan_.stuck_planes[j].word == plan_.stuck_planes[i].word) {
        dup = true;
        break;
      }
    }
    if (!dup) ++distinct;
  }
  remapped_lanes_ += distinct;
  obs::count(obs_.remapped, distinct);
  return distinct;
}

int FaultInjector::disable_stuck() noexcept {
  if (stuck_disabled_ || plan_.stuck.empty()) return 0;
  stuck_disabled_ = true;
  // Count distinct (stage, lane) pairs — one remapped PE each.
  int distinct = 0;
  for (std::size_t i = 0; i < plan_.stuck.size(); ++i) {
    bool dup = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (plan_.stuck[j].stage == plan_.stuck[i].stage &&
          plan_.stuck[j].lane == plan_.stuck[i].lane) {
        dup = true;
        break;
      }
    }
    if (!dup) ++distinct;
  }
  remapped_lanes_ += distinct;
  obs::count(obs_.remapped, distinct);
  return distinct;
}

void audit_chain(const lgca::SiteLattice& in,
                 const std::vector<StageAudit>& per_generation,
                 FaultInjector& injector) {
  if (per_generation.empty() || !per_generation.front().valid) return;
  std::int64_t link_mass = 0;
  std::int64_t link_obstacles = 0;
  for (std::size_t p = 0; p < in.site_count(); ++p) {
    link_mass += lgca::particle_count(in[p]);
    link_obstacles += lgca::is_obstacle(in[p]) ? 1 : 0;
  }
  for (const StageAudit& a : per_generation) {
    if (a.in_mass != link_mass || a.in_obstacles != link_obstacles) {
      injector.report_conservation_error();
    }
    if (!a.balanced()) injector.report_conservation_error();
    link_mass = a.out_mass;
    link_obstacles = a.out_obstacles;
  }
}

}  // namespace lattice::fault
