#include "lattice/lgca/plane_kernel.hpp"

#include <algorithm>

#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/geometry.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/lgca/scheduler.hpp"
#include "plane_span.hpp"

namespace lattice::lgca {

// The span picks its form by the stride, which must split the rows
// where PlaneLattice::guarded does.
static_assert(PlaneLattice::row_stride_for(PlaneLattice::kMinGuardedWidth -
                                           1) == kMaxRunStride &&
                  PlaneLattice::row_stride_for(
                      PlaneLattice::kMinGuardedWidth) > kMaxRunStride,
              "a compact row's stride is its words, at most kMaxRunStride");

namespace {

// Planes 0..5 are the moving channels; these two carry the center bits.
constexpr int kRestPlane = 6;
constexpr int kObstaclePlane = 7;

}  // namespace

PlaneKernel::PlaneKernel(GasKind kind)
    : model_(&GasModel::get(kind)), channels_(model_->channels()) {
  const Topology topo = model_->topology();
  for (int parity = 0; parity < 2; ++parity) {
    for (int i = 0; i < channels_; ++i) {
      const Offset o =
          neighbor_offset(topo, opposite_dir(topo, i), parity == 1);
      taps_[static_cast<std::size_t>(parity)][static_cast<std::size_t>(i)] = {
          static_cast<std::int8_t>(o.dx), static_cast<std::int8_t>(o.dy)};
      if (o.dx != 0) halo_ |= 1u << i;
    }
  }
  // A run folds each tap's row offset into its source pointer, so
  // the offset must not depend on the row's parity (only the hex
  // diagonals' column shift does).
  for (int i = 0; i < channels_; ++i) {
    LATTICE_ASSERT(taps_[0][static_cast<std::size_t>(i)].dy ==
                       taps_[1][static_cast<std::size_t>(i)].dy,
                   "PlaneKernel taps: row offset depends on parity");
  }
  written_ = (1u << channels_) - 1u;
  if (kind == GasKind::FHP_II) written_ |= 1u << kRestPlane;
}

void PlaneKernel::prime_static_planes(PlaneLattice& lat,
                                      PlaneLattice& next) const {
  lgca::prime_static_planes(lat, next, written_);
}

bool PlaneKernel::supports(GasKind kind) noexcept {
  return kind == GasKind::HPP || kind == GasKind::FHP_I ||
         kind == GasKind::FHP_II;
}

const PlaneKernel& PlaneKernel::get(GasKind kind) {
  LATTICE_REQUIRE(supports(kind),
                  "no bit-plane kernel for this gas: FHP-III's collision "
                  "table is a class permutation with no compact boolean "
                  "form — use the byte-LUT path");
  static const PlaneKernel hpp(GasKind::HPP);
  static const PlaneKernel fhp1(GasKind::FHP_I);
  static const PlaneKernel fhp2(GasKind::FHP_II);
  switch (kind) {
    case GasKind::HPP: return hpp;
    case GasKind::FHP_I: return fhp1;
    default: return fhp2;
  }
}

const PlaneKernel* PlaneKernel::try_get(const Rule& rule) {
  const auto* gas = dynamic_cast<const GasRule*>(&rule);
  if (gas == nullptr || !supports(gas->model().kind())) return nullptr;
  return &get(gas->model().kind());
}

// The shared row core: words [k0, k1) of a wide row, or a compact row
// as a one-row run with its taps resolved. `sem_y` is the semantic
// lattice row: it selects the hex-parity tap set and feeds the
// chirality hash, while `src_y` / `dst_y` are storage rows in `cur` /
// `next` — identical in the plain sweep, offset in the temporal-tile
// scratch strips.
void PlaneKernel::update_row_span(PlaneLattice& next, std::int64_t dst_y,
                                  const PlaneLattice& cur, std::int64_t src_y,
                                  std::int64_t sem_y, const PlaneSpanOps& ops,
                                  std::int64_t t, std::int64_t k0,
                                  std::int64_t k1) const {
  SpanRun run = span_run(next, dst_y, cur, src_y, sem_y, t, 1);
  run.k0 = k0;
  run.k1 = k1;
  span(ops, run);
}

// Rows [y0, y1) of a compact lattice as one run. Every tap row y + dy
// must lie inside the lattice, so its offset from row y is one stride
// multiple for the whole run.
void PlaneKernel::update_run(PlaneLattice& next, const PlaneLattice& cur,
                             const PlaneSpanOps& ops, std::int64_t t,
                             std::int64_t y0, std::int64_t y1) const {
  LATTICE_ASSERT(y0 >= 1 && y1 < cur.extent().height &&
                     cur.row_stride() <= kMaxRunStride,
                 "update_run: rows outside the flat offsets' reach");
  SpanRun run = span_run(next, y0, cur, y0, y0, t, y1 - y0);
  run.k1 = cur.words_per_row();
  span(ops, run);
}

// The span of `rows` rows from storage row src_y of `cur` into row
// dst_y of `next`, whose first row is semantic row sem_y. Tap rows
// resolve against cur's own height and boundary (wrapped, or the zero
// row under Null), so a Null-boundary scratch strip whose storage
// range is clamped to the real lattice edge reads the same zero rows
// the golden updater would; a run of several rows never leaves the
// lattice.
SpanRun PlaneKernel::span_run(PlaneLattice& next, std::int64_t dst_y,
                              const PlaneLattice& cur, std::int64_t src_y,
                              std::int64_t sem_y, std::int64_t t,
                              std::int64_t rows) const {
  const std::int64_t height = cur.extent().height;
  const bool periodic = cur.boundary() == Boundary::Periodic;
  SpanRun run{};
  for (int i = 0; i < channels_; ++i) {
    const auto c = static_cast<std::size_t>(i);
    run.dx[0][i] = taps_[0][c].dx;
    run.dx[1][i] = taps_[1][c].dx;
    const std::int64_t ny = src_y + taps_[0][c].dy;
    if (ny >= 0 && ny < height) {
      run.src[i] = cur.row(i, ny);
    } else {
      run.src[i] = periodic ? cur.row(i, wrap(ny, height)) : cur.zero_row();
    }
  }
  run.rest = cur.row(kRestPlane, src_y);
  run.obst = cur.row(kObstaclePlane, src_y);
  for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
    run.out[p] = next.row(p, dst_y);
  }
  run.rows = rows;
  run.stride = cur.row_stride();
  run.words = cur.words_per_row();
  run.tail_mask = cur.tail_mask();
  run.periodic = periodic;
  run.y = sem_y;
  run.t = t;
  return run;
}

void PlaneKernel::span(const PlaneSpanOps& ops, const SpanRun& run) const {
  switch (model_->kind()) {
    case GasKind::HPP: ops.hpp(run); break;
    case GasKind::FHP_I: ops.fhp1(run); break;
    case GasKind::FHP_II: ops.fhp2(run); break;
    case GasKind::FHP_III:
      LATTICE_ASSERT(false, "PlaneKernel cannot run FHP-III");
  }
}

void PlaneKernel::update_row_window(PlaneLattice& next, std::int64_t dst_y,
                                    const PlaneLattice& cur,
                                    std::int64_t src_y, std::int64_t sem_y,
                                    std::int64_t t) const {
  LATTICE_ASSERT(next.words_per_row() == cur.words_per_row(),
                 "update_row_window: row widths differ");
  LATTICE_ASSERT(dst_y >= 0 && dst_y < next.extent().height &&
                     src_y >= 0 && src_y < cur.extent().height,
                 "update_row_window out of range");
  const std::int64_t words = cur.words_per_row();
  if (words == 0) return;
  const PlaneSpanOps& ops = plane_span_ops(plane_simd_active());
  update_row_span(next, dst_y, cur, src_y, sem_y, ops, t, 0, words);
}

void PlaneKernel::update_rows(PlaneLattice& next, const PlaneLattice& cur,
                              std::int64_t t, std::int64_t y0, std::int64_t y1,
                              std::int64_t tile_words) const {
  LATTICE_ASSERT(next.extent() == cur.extent() &&
                     next.boundary() == cur.boundary(),
                 "update_rows: source and destination lattices differ");
  LATTICE_ASSERT(y0 >= 0 && y1 <= cur.extent().height,
                 "update_rows out of range");
  const std::int64_t words = cur.words_per_row();
  if (words == 0 || y0 >= y1) return;
  // One dispatch-table read per call: the span loops themselves are
  // ISA-resolved function pointers (scalar / AVX2 / AVX-512, all
  // bit-identical — see plane_simd.hpp).
  const PlaneSpanOps& ops = plane_span_ops(plane_simd_active());
  if (!PlaneLattice::guarded(cur.extent().width)) {
    // Compact rows are shorter than one vector block, and a row of
    // them is a run of its dense words: every row whose taps stay
    // inside the lattice (all but its first and last row) is one span
    // call at full vector width, and the edge rows are one-row runs
    // with their taps resolved. Their shifts wrap in the span, so
    // nothing is left to fill.
    const std::int64_t ya = std::max<std::int64_t>(y0, 1);
    const std::int64_t yb =
        std::max(ya, std::min(y1, cur.extent().height - 1));
    for (std::int64_t y = y0; y < ya; ++y) {
      update_row_span(next, y, cur, y, y, ops, t, 0, words);
    }
    if (ya < yb) update_run(next, cur, ops, t, ya, yb);
    for (std::int64_t y = yb; y < y1; ++y) {
      update_row_span(next, y, cur, y, y, ops, t, 0, words);
    }
    return;
  }
  // Default tile: 4 row strips (3 source + 1 destination) × 8 planes ×
  // 1024 words × 8 B ≈ 256 KiB — sized for a typical L2, so wide
  // lattices are swept in cache-resident column strips.
  const std::int64_t tile = tile_words > 0 ? tile_words : 1024;
  for (std::int64_t kk = 0; kk < words; kk += tile) {
    const std::int64_t kend = std::min(words, kk + tile);
    for (std::int64_t y = y0; y < y1; ++y) {
      update_row_span(next, y, cur, y, y, ops, t, kk, kend);
    }
  }
  // Leave the produced wide rows halo-ready for the next generation.
  // Doing it here — per band, touching only the shifted planes, with
  // the rows' end words still in cache — replaces what used to be a
  // serial all-plane walk over the whole lattice between generations.
  next.prepare_shift_halo(halo_, y0, y1);
}

}  // namespace lattice::lgca
