#include "lattice/lgca/collision_lut.hpp"

#include <algorithm>

#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/geometry.hpp"

namespace lattice::lgca {

CollisionLut::CollisionLut(GasKind kind)
    : model_(&GasModel::get(kind)),
      tap_count_(model_->channels()),
      center_mask_(static_cast<Site>(
          kObstacleBit | (model_->has_rest_particle() ? kRestBit : 0))) {
  const Topology topo = model_->topology();
  for (int parity = 0; parity < 2; ++parity) {
    for (int i = 0; i < tap_count_; ++i) {
      const Offset o =
          neighbor_offset(topo, opposite_dir(topo, i), parity == 1);
      taps_[static_cast<std::size_t>(parity)][static_cast<std::size_t>(i)] = {
          static_cast<std::int8_t>(o.dx), static_cast<std::int8_t>(o.dy),
          channel_bit(i)};
    }
  }
  for (int v = 0; v < 2; ++v) {
    for (int s = 0; s < 256; ++s) {
      tables_[static_cast<std::size_t>(v)][static_cast<std::size_t>(s)] =
          model_->collide(static_cast<Site>(s), v);
    }
  }
}

const CollisionLut& CollisionLut::get(GasKind kind) {
  static const CollisionLut hpp(GasKind::HPP);
  static const CollisionLut fhp1(GasKind::FHP_I);
  static const CollisionLut fhp2(GasKind::FHP_II);
  static const CollisionLut fhp3(GasKind::FHP_III);
  switch (kind) {
    case GasKind::HPP: return hpp;
    case GasKind::FHP_I: return fhp1;
    case GasKind::FHP_II: return fhp2;
    case GasKind::FHP_III: return fhp3;
  }
  return fhp2;  // unreachable
}

const CollisionLut* CollisionLut::try_get(const Rule& rule) {
  const auto* gas = dynamic_cast<const GasRule*>(&rule);
  return gas != nullptr ? &get(gas->model().kind()) : nullptr;
}

// The shared row core behind update_span and update_span_window: dst_y
// and src_y are storage rows in next / cur (identical in the plain
// sweep, offset in temporal-tile scratch strips), sem_y the semantic
// lattice row that selects the parity tap set and feeds the chirality
// hash. Source rows resolve against cur's own height and boundary.
void CollisionLut::row_core(SiteLattice& next, std::int64_t dst_y,
                            const SiteLattice& cur, std::int64_t src_y,
                            std::int64_t sem_y, std::int64_t t,
                            std::int64_t x0, std::int64_t x1) const {
  const Extent e = cur.extent();
  const std::int64_t w = e.width;
  const std::int64_t h = e.height;
  if (x0 >= x1) return;
  const bool periodic = cur.boundary() == Boundary::Periodic;
  const auto& taps = taps_[(sem_y & 1) ? 1 : 0];
  const int n = tap_count_;

  // Source row base pointers for dy = -1, 0, +1; nullptr rows read as
  // empty (the null-boundary mask of the window multiplexer).
  const Site* rows[3];
  for (int dy = -1; dy <= 1; ++dy) {
    std::int64_t ny = src_y + dy;
    if (ny < 0 || ny >= h) {
      if (!periodic) {
        rows[dy + 1] = nullptr;
        continue;
      }
      ny = wrap(ny, h);
    }
    rows[dy + 1] = cur.grid().data() + linear_index(e, {0, ny});
  }
  Site* out = next.grid().data() + linear_index(next.extent(), {0, dst_y});

  // Edge columns: per-tap column bounds / wrap checks.
  const auto slow = [&](std::int64_t x) {
    Site in = 0;
    for (int i = 0; i < n; ++i) {
      const Tap tap = taps[static_cast<std::size_t>(i)];
      const Site* row = rows[tap.dy + 1];
      if (row == nullptr) continue;
      std::int64_t nx = x + tap.dx;
      if (nx < 0 || nx >= w) {
        if (!periodic) continue;
        nx = wrap(nx, w);
      }
      in |= static_cast<Site>(row[nx] & tap.bit);
    }
    in |= static_cast<Site>(rows[1][x] & center_mask_);
    out[x] = collide(in, GasModel::chirality(x, sem_y, t));
  };

  const std::int64_t fast0 = std::max<std::int64_t>(x0, 1);
  const std::int64_t fast1 = std::min<std::int64_t>(x1, w - 1);
  for (std::int64_t x = x0; x < std::min(fast0, x1); ++x) slow(x);
  for (std::int64_t x = fast0; x < fast1;) {
    // Chirality is defined a 64-site word at a time: one hash per word,
    // and site x reads bit x & 63 (exactly GasModel::chirality).
    const std::uint64_t chir = GasModel::chirality_word(x >> 6, sem_y, t);
    const std::int64_t word_end = std::min(fast1, (x | 63) + 1);
    for (; x < word_end; ++x) {
      Site in = 0;
      for (int i = 0; i < n; ++i) {
        const Tap tap = taps[static_cast<std::size_t>(i)];
        const Site* row = rows[tap.dy + 1];
        if (row != nullptr) in |= static_cast<Site>(row[x + tap.dx] & tap.bit);
      }
      in |= static_cast<Site>(rows[1][x] & center_mask_);
      out[x] = collide(in, static_cast<int>((chir >> (x & 63)) & 1));
    }
  }
  for (std::int64_t x = std::max(fast1, x0); x < x1; ++x) slow(x);
}

void CollisionLut::update_span(SiteLattice& next, const SiteLattice& cur,
                               std::int64_t t, std::int64_t y, std::int64_t x0,
                               std::int64_t x1) const {
  LATTICE_ASSERT(y >= 0 && y < cur.extent().height && x0 >= 0 &&
                     x1 <= cur.extent().width,
                 "update_span out of range");
  row_core(next, y, cur, y, y, t, x0, x1);
}

void CollisionLut::update_span_window(SiteLattice& next, std::int64_t dst_y,
                                      const SiteLattice& cur,
                                      std::int64_t src_y, std::int64_t sem_y,
                                      std::int64_t t) const {
  LATTICE_ASSERT(next.extent().width == cur.extent().width,
                 "update_span_window: row widths differ");
  LATTICE_ASSERT(dst_y >= 0 && dst_y < next.extent().height && src_y >= 0 &&
                     src_y < cur.extent().height,
                 "update_span_window out of range");
  row_core(next, dst_y, cur, src_y, sem_y, t, 0, cur.extent().width);
}

void CollisionLut::update_rows(SiteLattice& next, const SiteLattice& cur,
                               std::int64_t t, std::int64_t y0,
                               std::int64_t y1) const {
  for (std::int64_t y = y0; y < y1; ++y) {
    update_span(next, cur, t, y, 0, cur.extent().width);
  }
}

}  // namespace lattice::lgca
