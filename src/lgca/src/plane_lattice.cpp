#include "lattice/lgca/plane_lattice.hpp"

#include <bit>
#include <cstring>

namespace lattice::lgca {

namespace {

// The transpose loads eight sites as one word, site 8·i + j in byte j
// of word i: that is the little-endian byte order. A big-endian build
// would pack the planes in the wrong order, so it must not compile.
static_assert(std::endian::native == std::endian::little,
              "PlaneLattice's transpose assumes little-endian words");

/// Swap the `mask` fields of `a >> s` with the same fields of `b`:
/// one delta swap.
void swap_fields(std::uint64_t& a, std::uint64_t& b, int s,
                 std::uint64_t mask) noexcept {
  const std::uint64_t t = ((a >> s) ^ b) & mask;
  a ^= t << s;
  b ^= t;
}

// A group of 64 sites is eight words, and each of its bits has a 3-bit
// word, byte and bit index. Sites hold (word, byte, bit) = (site / 8,
// site % 8, plane); planes want (plane, site / 8, site % 8). That is
// two index exchanges, word↔byte and then word↔bit, of three
// delta-swap rounds over four word pairs each: 144 ALU word ops per
// 64 sites each way. The rounds are written out so the eight words
// stay in registers.

constexpr std::uint64_t kLow32 = 0x00000000FFFFFFFFULL;
constexpr std::uint64_t kLow16 = 0x0000FFFF0000FFFFULL;
constexpr std::uint64_t kLow8 = 0x00FF00FF00FF00FFULL;
constexpr std::uint64_t kLow4 = 0x0F0F0F0F0F0F0F0FULL;
constexpr std::uint64_t kLow2 = 0x3333333333333333ULL;
constexpr std::uint64_t kLow1 = 0x5555555555555555ULL;

/// Byte j of w[i] ↔ byte i of w[j]: the 8×8 byte transpose. Its own
/// inverse.
void transpose_bytes(std::uint64_t (&w)[8]) noexcept {
  swap_fields(w[0], w[4], 32, kLow32);
  swap_fields(w[1], w[5], 32, kLow32);
  swap_fields(w[2], w[6], 32, kLow32);
  swap_fields(w[3], w[7], 32, kLow32);
  swap_fields(w[0], w[2], 16, kLow16);
  swap_fields(w[1], w[3], 16, kLow16);
  swap_fields(w[4], w[6], 16, kLow16);
  swap_fields(w[5], w[7], 16, kLow16);
  swap_fields(w[0], w[1], 8, kLow8);
  swap_fields(w[2], w[3], 8, kLow8);
  swap_fields(w[4], w[5], 8, kLow8);
  swap_fields(w[6], w[7], 8, kLow8);
}

/// Bit c of byte j of w[i] ↔ bit i of byte j of w[c]: an 8×8 bit
/// transpose in every byte column. Its own inverse.
void transpose_bits(std::uint64_t (&w)[8]) noexcept {
  swap_fields(w[0], w[4], 4, kLow4);
  swap_fields(w[1], w[5], 4, kLow4);
  swap_fields(w[2], w[6], 4, kLow4);
  swap_fields(w[3], w[7], 4, kLow4);
  swap_fields(w[0], w[2], 2, kLow2);
  swap_fields(w[1], w[3], 2, kLow2);
  swap_fields(w[4], w[6], 2, kLow2);
  swap_fields(w[5], w[7], 2, kLow2);
  swap_fields(w[0], w[1], 1, kLow1);
  swap_fields(w[2], w[3], 1, kLow1);
  swap_fields(w[4], w[5], 1, kLow1);
  swap_fields(w[6], w[7], 1, kLow1);
}

/// 64 sites to 8 plane words, in place: on entry byte j of w[i] is
/// site 8·i + j; on exit bit 8·i + j of w[p] is plane p of that site.
void sites_to_planes(std::uint64_t (&w)[8]) noexcept {
  transpose_bytes(w);
  transpose_bits(w);
}

/// The inverse of sites_to_planes: the same exchanges, reversed.
void planes_to_sites(std::uint64_t (&w)[8]) noexcept {
  transpose_bits(w);
  transpose_bytes(w);
}

}  // namespace

PlaneLattice::PlaneLattice(Extent extent, Boundary boundary)
    : extent_(extent), boundary_(boundary) {
  LATTICE_REQUIRE(extent.width >= 0 && extent.height >= 0,
                  "PlaneLattice extent must be non-negative");
  words_ = (extent.width + kWordBits - 1) / kWordBits;
  stride_ = row_stride_for(extent.width);
  const int tail = static_cast<int>(extent.width % kWordBits);
  tail_mask_ = tail == 0 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << tail) - 1;
  // A wide row's leading guard block doubles as the array's front pad;
  // a compact array gets one kRowPad-word pad at each end instead.
  const std::int64_t pad = guarded(extent.width) ? 0 : 2 * kRowPad;
  data_.assign(static_cast<std::size_t>(kPlanes * extent.height * stride_ +
                                        pad),
               0);
  zeros_.assign(static_cast<std::size_t>(stride_ + 2 * kRowPad), 0);
}

PlaneLattice::PlaneLattice(const SiteLattice& sites)
    : PlaneLattice(sites.extent(), sites.boundary()) {
  pack(sites);
}

void PlaneLattice::pack(const SiteLattice& sites) {
  LATTICE_REQUIRE(sites.extent() == extent_,
                  "pack: byte lattice extent does not match");
  LATTICE_REQUIRE(sites.boundary() == boundary_,
                  "pack: byte lattice boundary mode does not match");
  const std::int64_t w = extent_.width;
  const std::int64_t full = w / kWordBits;
  for (std::int64_t y = 0; y < extent_.height; ++y) {
    const Site* src = sites.grid().data() + linear_index(extent_, {0, y});
    std::uint64_t* rows[kPlanes];
    for (int p = 0; p < kPlanes; ++p) rows[p] = row(p, y);
    for (std::int64_t k = 0; k < words_; ++k) {
      // A partial last word zero-pads, which keeps its tail bits zero.
      std::uint64_t g[kPlanes] = {};
      if (k < full) {
        std::memcpy(g, src + k * kWordBits, sizeof g);
      } else {
        std::memcpy(g, src + k * kWordBits,
                    static_cast<std::size_t>(w - k * kWordBits));
      }
      sites_to_planes(g);
      for (int p = 0; p < kPlanes; ++p) rows[p][k] = g[p];
    }
  }
}

void PlaneLattice::unpack(SiteLattice& sites) const {
  LATTICE_REQUIRE(sites.extent() == extent_,
                  "unpack: byte lattice extent does not match");
  const std::int64_t w = extent_.width;
  const std::int64_t full = w / kWordBits;
  for (std::int64_t y = 0; y < extent_.height; ++y) {
    Site* dst = sites.grid().data() + linear_index(extent_, {0, y});
    const std::uint64_t* rows[kPlanes];
    for (int p = 0; p < kPlanes; ++p) rows[p] = row(p, y);
    for (std::int64_t k = 0; k < words_; ++k) {
      std::uint64_t g[kPlanes];
      for (int p = 0; p < kPlanes; ++p) g[p] = rows[p][k];
      planes_to_sites(g);
      // Only a partial last word's valid bytes are copied: its tail
      // bits may hold halo content that must not reach the sites.
      if (k < full) {
        std::memcpy(dst + k * kWordBits, g, sizeof g);
      } else {
        std::memcpy(dst + k * kWordBits, g,
                    static_cast<std::size_t>(w - k * kWordBits));
      }
    }
  }
}

SiteLattice PlaneLattice::to_sites() const {
  SiteLattice out(extent_, boundary_);
  unpack(out);
  return out;
}

void PlaneLattice::prepare_shift_halo() {
  prepare_shift_halo((1u << kPlanes) - 1u, 0, extent_.height);
}

void PlaneLattice::prepare_shift_halo(std::uint32_t plane_mask,
                                      std::int64_t y0, std::int64_t y1) {
  // Only wide rows have guards (a compact row's shifts wrap in the
  // span itself).
  if (!guarded(extent_.width) || y0 >= y1) return;
  const std::int64_t last = words_ - 1;
  const std::uint64_t tail = tail_mask_;
  // Periodic: tail bits of the last word continue with the row's first
  // sites, the left guard presents site width-1 at bit 63 (only that
  // bit is ever shifted in), the right guard presents site 0 at bit 0.
  // The defensive tail masks make this idempotent. The row-independent
  // choices are made once here, so each row's fill below is straight-
  // line code: a row without tail bits (r = 0) has nothing to wrap.
  const int r = static_cast<int>(extent_.width % kWordBits);
  const int lshift = 63 - static_cast<int>((extent_.width - 1) % kWordBits);
  const std::int64_t rows = y1 - y0;
  for (int p = 0; p < kPlanes; ++p) {
    if (((plane_mask >> p) & 1u) == 0) continue;
    std::uint64_t* const base = row(p, y0);
    if (boundary_ == Boundary::Null) {
      for (std::int64_t i = 0; i < rows; ++i) {
        std::uint64_t* const rp = base + i * stride_;
        rp[-1] = 0;
        rp[words_] = 0;
        rp[last] &= tail;
      }
      continue;
    }
    if (r == 0) {
      // Whole last word: nothing to mask or wrap, only guards to copy.
      for (std::int64_t i = 0; i < rows; ++i) {
        std::uint64_t* const rp = base + i * stride_;
        rp[words_] = rp[0];
        rp[-1] = rp[last];
      }
      continue;
    }
    for (std::int64_t i = 0; i < rows; ++i) {
      std::uint64_t* const rp = base + i * stride_;
      const std::uint64_t first = rp[0];
      const std::uint64_t tail_word = rp[last] & tail;
      rp[last] = tail_word | (first << r);
      rp[words_] = first;
      rp[-1] = tail_word << lshift;
    }
  }
}

bool PlaneLattice::get(Coord c, int plane) const noexcept {
  const std::int64_t k = c.x / kWordBits;
  const int j = static_cast<int>(c.x % kWordBits);
  return ((row(plane, c.y)[k] >> j) & 1u) != 0;
}

Site PlaneLattice::site(Coord c) const noexcept {
  std::uint64_t s = 0;
  for (int p = 0; p < kPlanes; ++p) {
    s |= static_cast<std::uint64_t>(get(c, p)) << p;
  }
  return static_cast<Site>(s);
}

void PlaneLattice::set_site(Coord c, Site v) noexcept {
  const std::int64_t k = c.x / kWordBits;
  const int j = static_cast<int>(c.x % kWordBits);
  for (int p = 0; p < kPlanes; ++p) {
    std::uint64_t& word = row(p, c.y)[k];
    word &= ~(std::uint64_t{1} << j);
    word |= static_cast<std::uint64_t>((v >> p) & 1u) << j;
  }
}

bool operator==(const PlaneLattice& a, const PlaneLattice& b) {
  if (a.extent_ != b.extent_ || a.boundary_ != b.boundary_) return false;
  for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
    for (std::int64_t y = 0; y < a.extent_.height; ++y) {
      const std::uint64_t* ra = a.row(p, y);
      const std::uint64_t* rb = b.row(p, y);
      for (std::int64_t k = 0; k < a.words_; ++k) {
        const std::uint64_t mask =
            k == a.words_ - 1 ? a.tail_mask_ : ~std::uint64_t{0};
        if ((ra[k] & mask) != (rb[k] & mask)) return false;
      }
    }
  }
  return true;
}

}  // namespace lattice::lgca
