// Bit-plane (multi-spin coded) lattice representation.
//
// The byte SiteLattice stores the paper's D = 8 bits/site as an array
// of structures; PlaneLattice transposes it into 8 bit-planes, packing
// the same bit of 64 consecutive row sites into one uint64_t word
// (bit j of word k on row y is site x = 64·k + j — LSB is the lowest
// x). Collision then becomes boolean algebra evaluated on whole words
// and propagation becomes word shifts: the multi-spin coding trick of
// CAM-8-era lattice machines, worth roughly a word width of data
// parallelism on top of the existing thread parallelism.
//
// Each row is padded with guard words on either side so the ±1 column
// shifts of propagation never branch on word boundaries; only the two
// adjacent guards (indices -1 and words_per_row()) ever hold halo
// content, the rest are permanent zeros. The guards plus the unused
// tail bits of the last payload word form the row's "shift halo":
// prepare_shift_halo() fills it from the boundary mode (zero for Null,
// wrapped row content for Periodic) so the kernel can shift
// unconditionally. pack() leaves tail bits zero and PlaneKernel's
// masked stores keep them zero, but a finished kernel run leaves its
// shifted planes halo-*filled* (under Periodic the tail bits then carry
// wrapped row content): the fill is idempotent (it masks before
// wrapping), and every payload consumer — unpack(), operator==, the
// site accessors — masks tails itself, so halo state is unobservable.
//
// Storage is 64-byte aligned. A row of at least kRowPad payload words
// (width >= 449) has an 8-word leading guard block and a stride rounded
// up to a multiple of 8 words, so its payload word 0 sits on a
// cacheline boundary — the SIMD spans (plane_simd.hpp) use unaligned
// loads either way, but aligned rows keep each 256/512-bit access
// within one line. A narrower row is shorter than one AVX-512 block,
// so alignment buys it little and padding would cost most of its
// footprint: it is stored compactly at stride words + 2, one guard
// word on each side, still distinct from its neighbors' guards (a
// 64-wide row takes 3 words where the aligned stride would take 16).
// A plane's compact rows are then one dense word array, row y + dy at
// a fixed offset dy · stride from row y, which is how PlaneKernel runs
// a band of them as one flat range of words (CAM-8's view of a
// bit-field: a neighbour shift is an offset into the array).

#pragma once

#include <cstdint>
#include <vector>

#include "lattice/common/aligned.hpp"
#include "lattice/lgca/lattice.hpp"
#include "lattice/lgca/site.hpp"

namespace lattice::lgca {

class PlaneLattice {
 public:
  static constexpr int kPlanes = kSiteBits;  // D = 8 bits/site
  static constexpr std::int64_t kWordBits = 64;
  /// Guard words before each wide row's payload; also the stride
  /// quantum, so payload word 0 of every row of at least kRowPad words
  /// is 64-byte aligned. Narrower rows are stored compactly.
  static constexpr std::int64_t kRowPad = 8;

  /// Allocated words per row of a width-`width` lattice, guards
  /// included: words + 2 for rows of fewer than kRowPad payload words,
  /// otherwise kRowPad + the payload and its trailing guard rounded up
  /// to kRowPad. The one definition of the plane row footprint (the
  /// tile planner sizes its strips with it).
  static std::int64_t row_stride_for(std::int64_t width) noexcept;

  PlaneLattice() = default;
  PlaneLattice(Extent extent, Boundary boundary);
  /// Pack a byte lattice (extent and boundary are taken from it).
  explicit PlaneLattice(const SiteLattice& sites);

  Extent extent() const noexcept { return extent_; }
  Boundary boundary() const noexcept { return boundary_; }
  /// Payload words per row: ceil(width / 64).
  std::int64_t words_per_row() const noexcept { return words_; }
  /// Allocated words per row including guard/padding words:
  /// row_stride_for(width). Only rows of at least kRowPad payload words
  /// have a 64-byte-aligned payload; narrower rows are compact.
  std::int64_t row_stride() const noexcept { return stride_; }
  /// Mask of the valid bits of a row's last payload word.
  std::uint64_t tail_mask() const noexcept { return tail_mask_; }

  /// Overwrite this lattice's bits from a byte lattice of the same
  /// extent and boundary (resets guard words).
  void pack(const SiteLattice& sites);
  /// Write this lattice's bits into a byte lattice of the same extent.
  void unpack(SiteLattice& sites) const;
  SiteLattice to_sites() const;

  /// Pointer to payload word 0 of `plane` on row `y`; the guard words
  /// live at indices -1 and words_per_row().
  std::uint64_t* row(int plane, std::int64_t y) noexcept {
    return data_.data() + row_offset(plane, y);
  }
  const std::uint64_t* row(int plane, std::int64_t y) const noexcept {
    return data_.data() + row_offset(plane, y);
  }
  /// An all-zero row (payload and guards) — what an out-of-range row
  /// reads as under the Null boundary.
  const std::uint64_t* zero_row() const noexcept {
    return zeros_.data() + lead_;
  }

  /// Fill the shift halo for this boundary mode: guard words, and (for
  /// Periodic) the wrapped row content in the last payload word's tail
  /// bits. Idempotent (the fill masks tails before wrapping); a plane's
  /// halo must be current before PlaneKernel gathers it with a column
  /// shift. The no-argument form fills every plane and row.
  void prepare_shift_halo();
  /// Same fill restricted to the planes named in `plane_mask` (bit p =
  /// plane p) and to rows [y0, y1). PlaneKernel uses this to touch only
  /// the planes it actually shifts (its halo_planes() mask) and only
  /// the row band a worker owns — the full-lattice form is a
  /// latency-bound serial walk that would otherwise rival the kernel
  /// sweep itself on small rows.
  void prepare_shift_halo(std::uint32_t plane_mask, std::int64_t y0,
                          std::int64_t y1);

  // ---- single-site access (tests, diagnostics; not the fast path) ----

  bool get(Coord c, int plane) const noexcept;
  Site site(Coord c) const noexcept;
  void set_site(Coord c, Site v) noexcept;

  /// Payload-only equality: guard words and tail bits are ignored.
  friend bool operator==(const PlaneLattice& a, const PlaneLattice& b);

 private:
  using AlignedWords =
      std::vector<std::uint64_t,
                  common::AlignedAllocator<std::uint64_t, 64>>;

  std::size_t row_offset(int plane, std::int64_t y) const noexcept {
    return (static_cast<std::size_t>(plane) *
                static_cast<std::size_t>(extent_.height) +
            static_cast<std::size_t>(y)) *
               static_cast<std::size_t>(stride_) +
           static_cast<std::size_t>(lead_);
  }

  Extent extent_{0, 0};
  Boundary boundary_ = Boundary::Null;
  std::int64_t words_ = 0;
  std::int64_t stride_ = 0;
  /// Guard words before each row's payload: kRowPad, or 1 when compact.
  std::int64_t lead_ = 0;
  std::uint64_t tail_mask_ = ~std::uint64_t{0};
  AlignedWords data_;
  AlignedWords zeros_;
};

}  // namespace lattice::lgca
