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
// Rows come in two layouts, and the width alone picks which
// (guarded(width)).
//
// A row of at least kRowPad payload words (width >= 449) is *wide*. It
// has an 8-word leading guard block and a stride rounded up to a
// multiple of 8 words, so its payload word 0 sits on a cacheline
// boundary: the SIMD spans (plane_simd.hpp) use unaligned loads either
// way, but aligned rows keep each 256/512-bit access within one line.
// The ±1 column shifts of propagation read the two guards next to the
// payload (indices -1 and words_per_row()), so they never branch on
// word boundaries; the other guards are permanent zeros. The two guards
// plus the unused tail bits of the last payload word form the row's
// "shift halo": prepare_shift_halo() fills it from the boundary mode
// (zero for Null, wrapped row content for Periodic) so the kernel can
// shift unconditionally. pack() leaves tail bits zero and the masked
// stores keep them zero, but a finished kernel run leaves a wide row's
// shifted planes halo-*filled* (under Periodic the tail bits then
// carry wrapped row content): the fill is idempotent (it masks before
// wrapping), and every payload consumer — unpack(), operator==, the
// site accessors — masks tails itself, so halo state is unobservable.
//
// A narrower row is *compact*: stored dense at stride = words, with no
// guard word, so a plane's compact rows are one dense word array, row
// y + dy at a fixed offset dy · words from row y, and each plane's
// array abuts the next. That is CAM-8's view of a bit-field: a
// neighbour shift is an offset into the array, and nothing is stored
// for the wrap. A shift that crosses a row end builds its word in
// registers instead (the run form of plane_span.inc), so a compact
// lattice has no shift halo, and its tail bits stay zero: pack()
// zero-pads them and every span masks its stores. The kernel relies
// on that, so code writing words through row() must keep them zero.
// The array has kRowPad words of zero padding before its first row and
// after its last, and zero_row() as many on either side, so the span's
// wrap and funnel loads, which reach fewer than kRowPad words before
// or past a row, stay inside the allocation (the values they read
// there are never used).

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
  /// is 64-byte aligned, and the padding at either end of a compact
  /// lattice's array. Narrower rows are stored dense.
  static constexpr std::int64_t kRowPad = 8;
  /// Narrowest row of kRowPad payload words.
  static constexpr std::int64_t kMinGuardedWidth =
      (kRowPad - 1) * kWordBits + 1;

  /// Whether rows of a width-`width` lattice are wide and store guard
  /// words; narrower rows are compact, stored dense. The one definition
  /// of the split: the kernels pick their span form by it, and the
  /// fault guard and the executor refuse halo flips without it.
  static constexpr bool guarded(std::int64_t width) noexcept {
    return width >= kMinGuardedWidth;
  }

  /// Allocated words per row of a width-`width` lattice, guards
  /// included: the payload words alone for a compact row, otherwise
  /// kRowPad + the payload and its trailing guard rounded up to kRowPad,
  /// so the stride stays a multiple of kRowPad and every row's payload
  /// begins on a 64-byte boundary. The one definition of the plane row
  /// footprint (the tile planner sizes its strips with it).
  static constexpr std::int64_t row_stride_for(std::int64_t width) noexcept {
    const std::int64_t words = (width + kWordBits - 1) / kWordBits;
    if (!guarded(width)) return words;
    return kRowPad + (words + 1 + kRowPad - 1) / kRowPad * kRowPad;
  }

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
  /// have guards and a 64-byte-aligned payload; narrower rows are
  /// compact, at stride words_per_row().
  std::int64_t row_stride() const noexcept { return stride_; }
  /// Mask of the valid bits of a row's last payload word.
  std::uint64_t tail_mask() const noexcept { return tail_mask_; }

  /// Overwrite this lattice's payload from a byte lattice of the same
  /// extent and boundary; tail bits are zeroed, guard words untouched.
  void pack(const SiteLattice& sites);
  /// Write this lattice's bits into a byte lattice of the same extent.
  void unpack(SiteLattice& sites) const;
  SiteLattice to_sites() const;

  /// Pointer to payload word 0 of `plane` on row `y`; a wide row's
  /// guard words live at indices -1 and words_per_row().
  std::uint64_t* row(int plane, std::int64_t y) noexcept {
    return data_.data() + row_offset(plane, y);
  }
  const std::uint64_t* row(int plane, std::int64_t y) const noexcept {
    return data_.data() + row_offset(plane, y);
  }
  /// An all-zero row, with kRowPad zero words on either side — what an
  /// out-of-range row reads as under the Null boundary.
  const std::uint64_t* zero_row() const noexcept {
    return zeros_.data() + kRowPad;
  }

  /// Fill the shift halo of a wide lattice for this boundary mode:
  /// guard words, and (for Periodic) the wrapped row content in the
  /// last payload word's tail bits. Idempotent (the fill masks tails
  /// before wrapping); a plane's halo must be current before
  /// PlaneKernel gathers it with a column shift. A compact lattice has
  /// no halo, and the fill leaves it untouched. The no-argument form
  /// fills every plane and row.
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
           static_cast<std::size_t>(kRowPad);
  }

  Extent extent_{0, 0};
  Boundary boundary_ = Boundary::Null;
  std::int64_t words_ = 0;
  std::int64_t stride_ = 0;
  std::uint64_t tail_mask_ = ~std::uint64_t{0};
  AlignedWords data_;
  AlignedWords zeros_;
};

}  // namespace lattice::lgca
