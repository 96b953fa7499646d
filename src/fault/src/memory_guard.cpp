#include "lattice/fault/memory_guard.hpp"

#include <bit>
#include <string>

#include "lattice/common/error.hpp"

namespace lattice::fault {

using lgca::PlaneLattice;

void PlaneMemoryGuard::run_begin(PlaneLattice& lat,
                                 std::uint32_t written_planes,
                                 std::uint32_t halo_planes,
                                 std::int64_t /*t0*/) {
  // Only wide rows store guard words: a compact row's shifts wrap in
  // the span, so it has no halo for the family to strike or the canary
  // to check, and a plan arming halo flips there would under-inject.
  const bool guarded = PlaneLattice::guarded(lat.extent().width);
  LATTICE_REQUIRE(guarded || injector_->plan().halo_flip_rate == 0.0,
                  "halo_flip needs guard words, which only rows of width " +
                      std::to_string(PlaneLattice::kMinGuardedWidth) +
                      " or more store");
  ops_ = &lgca::plane_span_ops(lgca::plane_simd_active());
  written_mask_ = written_planes;
  n_halo_ = 0;
  for (int p = 0; guarded && p < PlaneLattice::kPlanes; ++p) {
    if (((halo_planes >> p) & 1u) != 0) halo_planes_[n_halo_++] = p;
  }
  boundary_ = lat.boundary();
  words_ = lat.words_per_row();
  height_ = lat.extent().height;
  tail_ = lat.tail_mask();
  shadow_armed_ = injector_->plan().parity_plane;
  ledger_.assign(
      static_cast<std::size_t>(height_ * PlaneLattice::kPlanes), 0);
  for (std::int64_t y = 0; y < height_; ++y) {
    for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
      ledger_[static_cast<std::size_t>(y * PlaneLattice::kPlanes + p)] =
          static_cast<std::int64_t>(payload_popcount(lat.row(p, y)));
    }
  }
  if (shadow_armed_) {
    shadow_.assign(static_cast<std::size_t>(height_ * words_), 0);
    for (std::int64_t y = 0; y < height_; ++y) {
      const std::uint64_t* rows[PlaneLattice::kPlanes];
      for (int p = 0; p < PlaneLattice::kPlanes; ++p) rows[p] = lat.row(p, y);
      for (std::int64_t k = 0; k < words_; ++k) {
        shadow_[static_cast<std::size_t>(y * words_ + k)] =
            payload_xor(rows, PlaneLattice::kPlanes, k);
      }
    }
  }
}

std::uint64_t PlaneMemoryGuard::payload_popcount(
    const std::uint64_t* rp) const noexcept {
  if (words_ == 0) return 0;
  return ops_->popcount(rp, words_ - 1) +
         static_cast<std::uint64_t>(std::popcount(rp[words_ - 1] & tail_));
}

std::uint64_t PlaneMemoryGuard::payload_xor(const std::uint64_t* const rows[],
                                            int planes,
                                            std::int64_t k) const noexcept {
  std::uint64_t x = 0;
  for (int p = 0; p < planes; ++p) x ^= rows[p][k];
  if (k == words_ - 1) x &= tail_;
  return x;
}

void PlaneMemoryGuard::inject_rows(PlaneLattice& cur, std::int64_t t,
                                   std::int64_t y0, std::int64_t y1) {
  if (words_ == 0) return;
  std::int64_t stuck_applied = 0;
  for (const StuckPlaneWord& s : injector_->stuck_planes()) {
    const std::int64_t y = s.word / words_;
    const std::int64_t k = s.word % words_;
    if (y < y0 || y >= y1 || y >= height_) continue;
    std::uint64_t* rp = cur.row(s.plane, y);
    // Apply the or/and masks to payload bits only: a stuck column past
    // the lattice edge must not conjure particles in the padding, on
    // any backend.
    const std::uint64_t keep = k == words_ - 1 ? tail_ : ~std::uint64_t{0};
    const std::uint64_t forced =
        (((rp[k] & s.and_mask) | s.or_mask) & keep) | (rp[k] & ~keep);
    if (forced != rp[k]) {
      rp[k] = forced;
      ++stuck_applied;
    }
  }
  if (stuck_applied != 0) injector_->note_stuck_planes(stuck_applied);

  std::int64_t applied = 0;
  if (injector_->plan().plane_flip_rate > 0) {
    for (std::int64_t y = y0; y < y1; ++y) {
      for (std::int64_t k = 0; k < words_; ++k) {
        int plane = 0;
        std::uint64_t mask =
            injector_->draw_plane_flip(t, y * words_ + k, &plane);
        if (mask == 0) continue;
        if (k == words_ - 1) mask &= tail_;
        if (mask == 0) continue;  // the draw landed in column padding
        cur.row(plane, y)[k] ^= mask;
        ++applied;
      }
    }
  }
  if (injector_->plan().halo_flip_rate > 0 && n_halo_ > 0) {
    for (std::int64_t y = y0; y < y1; ++y) {
      int sel = 0;
      bool left = false;
      const std::uint64_t mask = injector_->draw_halo_flip(t, y, &sel, &left);
      if (mask == 0) continue;
      std::uint64_t* rp = cur.row(halo_planes_[sel % n_halo_], y);
      rp[left ? -1 : words_] ^= mask;
      ++applied;
    }
  }
  if (applied != 0) injector_->note_plane_faults(applied);
}

void PlaneMemoryGuard::audit_rows(const PlaneLattice& cur, std::int64_t y0,
                                  std::int64_t y1) {
  if (words_ == 0) return;
  const std::int64_t w = cur.extent().width;
  const int r = static_cast<int>(w % PlaneLattice::kWordBits);
  const int hi = static_cast<int>((w - 1) % PlaneLattice::kWordBits);
  std::int64_t ledger_bad = 0;
  std::int64_t canary_bad = 0;
  std::int64_t shadow_bad = 0;
  for (std::int64_t y = y0; y < y1; ++y) {
    const std::uint64_t* rows[PlaneLattice::kPlanes];
    for (int p = 0; p < PlaneLattice::kPlanes; ++p) rows[p] = cur.row(p, y);
    for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
      const auto pop = static_cast<std::int64_t>(payload_popcount(rows[p]));
      if (pop !=
          ledger_[static_cast<std::size_t>(y * PlaneLattice::kPlanes + p)]) {
        ++ledger_bad;
      }
    }
    for (int i = 0; i < n_halo_; ++i) {
      // Recompute what prepare_shift_halo must have left in the guard
      // words from the (possibly corrupted) payload; any divergence —
      // a flipped guard bit, or a payload flip that staled the wrap —
      // is a canary hit.
      const std::uint64_t* rp = rows[halo_planes_[i]];
      bool ok;
      if (boundary_ == lgca::Boundary::Null) {
        ok = rp[-1] == 0 && rp[words_] == 0 &&
             (rp[words_ - 1] & ~tail_) == 0;
      } else {
        const std::uint64_t first = rp[0];
        const std::uint64_t last = rp[words_ - 1] & tail_;
        const std::uint64_t exp_left = hi == 63 ? last : last << (63 - hi);
        ok = rp[words_] == first && rp[-1] == exp_left &&
             (r == 0 || rp[words_ - 1] == (last | (first << r)));
      }
      if (!ok) ++canary_bad;
    }
    if (shadow_armed_) {
      for (std::int64_t k = 0; k < words_; ++k) {
        if (payload_xor(rows, PlaneLattice::kPlanes, k) !=
            shadow_[static_cast<std::size_t>(y * words_ + k)]) {
          ++shadow_bad;
        }
      }
    }
  }
  if (ledger_bad != 0) injector_->report_ledger_error(ledger_bad);
  if (canary_bad != 0) injector_->report_canary_error(canary_bad);
  if (shadow_bad != 0) injector_->report_shadow_error(shadow_bad);
}

void PlaneMemoryGuard::before_rows(PlaneLattice& cur, std::int64_t t,
                                   std::int64_t y0, std::int64_t y1) {
  inject_rows(cur, t, y0, y1);
  audit_rows(cur, y0, y1);
}

void PlaneMemoryGuard::after_rows(const PlaneLattice& next, std::int64_t /*t*/,
                                  std::int64_t y0, std::int64_t y1) {
  if (words_ == 0) return;
  for (std::int64_t y = y0; y < y1; ++y) {
    for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
      if (((written_mask_ >> p) & 1u) == 0) continue;
      ledger_[static_cast<std::size_t>(y * PlaneLattice::kPlanes + p)] =
          static_cast<std::int64_t>(payload_popcount(next.row(p, y)));
    }
    if (shadow_armed_) {
      const std::uint64_t* rows[PlaneLattice::kPlanes];
      for (int p = 0; p < PlaneLattice::kPlanes; ++p) rows[p] = next.row(p, y);
      for (std::int64_t k = 0; k < words_; ++k) {
        shadow_[static_cast<std::size_t>(y * words_ + k)] =
            payload_xor(rows, PlaneLattice::kPlanes, k);
      }
    }
  }
}

void SiteMemoryGuard::count_rows(const lgca::SiteLattice& lat,
                                 std::vector<std::int64_t>& out) const {
  const Extent e = lat.extent();
  out.assign(static_cast<std::size_t>(e.height * PlaneLattice::kPlanes), 0);
  for (std::int64_t y = 0; y < e.height; ++y) {
    std::int64_t* row =
        out.data() + static_cast<std::size_t>(y * PlaneLattice::kPlanes);
    for (std::int64_t x = 0; x < e.width; ++x) {
      const lgca::Site v = lat.at({x, y});
      for (int p = 0; p < PlaneLattice::kPlanes; ++p) row[p] += (v >> p) & 1;
    }
  }
}

void SiteMemoryGuard::run_begin(const lgca::SiteLattice& lat) {
  words_ = (lat.extent().width + PlaneLattice::kWordBits - 1) /
           PlaneLattice::kWordBits;
  count_rows(lat, ledger_);
}

void SiteMemoryGuard::inject_and_audit(lgca::SiteLattice& lat,
                                       std::int64_t t) {
  const Extent e = lat.extent();
  if (words_ == 0 || e.area() == 0) return;
  std::int64_t stuck_applied = 0;
  for (const StuckPlaneWord& s : injector_->stuck_planes()) {
    const std::int64_t y = s.word / words_;
    const std::int64_t k = s.word % words_;
    if (y >= e.height) continue;
    bool changed = false;
    for (int j = 0; j < PlaneLattice::kWordBits; ++j) {
      const std::int64_t x = k * PlaneLattice::kWordBits + j;
      if (x >= e.width) break;
      lgca::Site& v = lat.at({x, y});
      const bool bit = ((v >> s.plane) & 1) != 0;
      const bool forced = (bit && ((s.and_mask >> j) & 1) != 0) ||
                          ((s.or_mask >> j) & 1) != 0;
      if (forced != bit) {
        v = static_cast<lgca::Site>(v ^ (1u << s.plane));
        changed = true;
      }
    }
    if (changed) ++stuck_applied;
  }
  if (stuck_applied != 0) injector_->note_stuck_planes(stuck_applied);

  std::int64_t applied = 0;
  if (injector_->plan().plane_flip_rate > 0) {
    for (std::int64_t y = 0; y < e.height; ++y) {
      for (std::int64_t k = 0; k < words_; ++k) {
        int plane = 0;
        const std::uint64_t mask =
            injector_->draw_plane_flip(t, y * words_ + k, &plane);
        if (mask == 0) continue;
        const std::int64_t x =
            k * PlaneLattice::kWordBits + std::countr_zero(mask);
        if (x >= e.width) continue;  // the draw landed in column padding
        lgca::Site& v = lat.at({x, y});
        v = static_cast<lgca::Site>(v ^ (1u << plane));
        ++applied;
      }
    }
  }
  if (applied != 0) injector_->note_plane_faults(applied);

  count_rows(lat, scratch_);
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < ledger_.size(); ++i) {
    if (scratch_[i] != ledger_[i]) ++bad;
  }
  if (bad != 0) injector_->report_ledger_error(bad);
}

void SiteMemoryGuard::record(const lgca::SiteLattice& lat) {
  count_rows(lat, ledger_);
}

}  // namespace lattice::fault
