// PlaneLattice — the bit-plane transpose of SiteLattice. Round-trip
// property tests over awkward widths (word-aligned, one-under/over,
// sub-word, single-column, the first wide rows), the word-parallel
// transpose against a per-bit oracle, word for word at every width
// 1–130, the tail-bit and guard-word invariants of the shift halo, the
// row layout (aligned wide rows whose halo fills stay in their row,
// dense compact rows with no halo), and the balance of the chirality
// hash.

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "lattice/lgca/gas_model.hpp"
#include "lattice/lgca/plane_lattice.hpp"

namespace lattice::lgca {
namespace {

SiteLattice random_sites(Extent e, Boundary b, std::uint32_t seed) {
  // Raw random bytes: every site state 0..255, so the rest and obstacle
  // planes carry data too.
  SiteLattice lat(e, b);
  std::mt19937 rng(seed);
  for (std::size_t i = 0; i < lat.site_count(); ++i)
    lat[i] = static_cast<Site>(rng() & 0xff);
  return lat;
}

struct Shape {
  std::int64_t width;
  std::int64_t height;
};

/// Guard words on each side of a row: one on a wide row (the halo's),
/// none on a dense compact row.
std::int64_t guards(const PlaneLattice& planes) {
  return planes.row_stride() > planes.words_per_row() ? 1 : 0;
}

class RoundTripTest
    : public ::testing::TestWithParam<std::tuple<Shape, Boundary>> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoundTripTest,
    ::testing::Combine(::testing::Values(Shape{1, 1}, Shape{7, 5},
                                         Shape{63, 3}, Shape{64, 4},
                                         Shape{65, 2}, Shape{128, 3},
                                         Shape{130, 9}, Shape{449, 3},
                                         Shape{512, 2}),
                       ::testing::Values(Boundary::Null, Boundary::Periodic)),
    [](const auto& info) {
      const Shape s = std::get<0>(info.param);
      const Boundary b = std::get<1>(info.param);
      return std::to_string(s.width) + "x" + std::to_string(s.height) +
             (b == Boundary::Null ? "Null" : "Periodic");
    });

TEST_P(RoundTripTest, PackUnpackIsIdentity) {
  const auto [shape, boundary] = GetParam();
  const SiteLattice original =
      random_sites({shape.width, shape.height}, boundary, 0xbeef);
  const PlaneLattice planes(original);
  EXPECT_EQ(planes.extent().width, shape.width);
  EXPECT_EQ(planes.boundary(), boundary);
  EXPECT_TRUE(planes.to_sites() == original);
  SiteLattice back({shape.width, shape.height}, boundary);
  planes.unpack(back);
  EXPECT_TRUE(back == original);
}

TEST_P(RoundTripTest, SingleSiteAccessorsAgreeWithBytes) {
  const auto [shape, boundary] = GetParam();
  const SiteLattice original =
      random_sites({shape.width, shape.height}, boundary, 0xcafe);
  const PlaneLattice planes(original);
  for (std::int64_t y = 0; y < shape.height; ++y) {
    for (std::int64_t x = 0; x < shape.width; ++x) {
      const Site want = original.at({x, y});
      ASSERT_EQ(planes.site({x, y}), want) << x << "," << y;
      for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
        ASSERT_EQ(planes.get({x, y}, p), ((want >> p) & 1) != 0);
      }
    }
  }
}

TEST_P(RoundTripTest, SetSiteMirrorsPack) {
  const auto [shape, boundary] = GetParam();
  const SiteLattice original =
      random_sites({shape.width, shape.height}, boundary, 0xf00d);
  PlaneLattice planes({shape.width, shape.height}, boundary);
  for (std::int64_t y = 0; y < shape.height; ++y)
    for (std::int64_t x = 0; x < shape.width; ++x)
      planes.set_site({x, y}, original.at({x, y}));
  EXPECT_TRUE(planes == PlaneLattice(original));
  EXPECT_TRUE(planes.to_sites() == original);
}

TEST_P(RoundTripTest, PackLeavesTailBitsZero) {
  const auto [shape, boundary] = GetParam();
  const PlaneLattice planes(
      random_sites({shape.width, shape.height}, boundary, 0xabcd));
  const std::int64_t last = planes.words_per_row() - 1;
  for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
    for (std::int64_t y = 0; y < shape.height; ++y) {
      ASSERT_EQ(planes.row(p, y)[last] & ~planes.tail_mask(), 0u)
          << "plane " << p << " row " << y;
    }
  }
}

TEST_P(RoundTripTest, HaloPreparationPreservesPayloadAndIsIdempotent) {
  const auto [shape, boundary] = GetParam();
  const SiteLattice original =
      random_sites({shape.width, shape.height}, boundary, 0x1234);
  PlaneLattice planes(original);
  const std::int64_t g = guards(planes);
  // Every word of every row, a wide row's guards included.
  const auto words = [&] {
    std::vector<std::uint64_t> v;
    for (int p = 0; p < PlaneLattice::kPlanes; ++p)
      for (std::int64_t y = 0; y < shape.height; ++y) {
        const std::uint64_t* r = planes.row(p, y);
        v.insert(v.end(), r - g, r + planes.words_per_row() + g);
      }
    return v;
  };
  const std::vector<std::uint64_t> packed = words();
  planes.prepare_shift_halo();
  EXPECT_TRUE(planes.to_sites() == original);
  if (g == 0) {
    // A compact row has no halo: the fill must not touch a word, and
    // the tail bits stay the zeros pack left.
    ASSERT_EQ(words(), packed);
  }

  // Second fill must produce exactly the same words, including guards —
  // a stale tail bit leaking into the wrap computation would break this.
  const std::vector<std::uint64_t> first = words();
  planes.prepare_shift_halo();
  ASSERT_EQ(words(), first);
}

TEST_P(RoundTripTest, HaloEncodesBoundaryNeighbors) {
  const auto [shape, boundary] = GetParam();
  const SiteLattice original =
      random_sites({shape.width, shape.height}, boundary, 0x5678);
  PlaneLattice planes(original);
  planes.prepare_shift_halo();
  if (guards(planes) == 0) {
    // A compact row stores no boundary neighbour: the word past its
    // end is the next row's word 0 (its first sites), the word before
    // it the previous row's last word, and the bits past its width
    // read zero under either boundary. The span builds the wrap.
    const std::int64_t words = planes.words_per_row();
    for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
      for (std::int64_t y = 0; y < shape.height; ++y) {
        const std::uint64_t* r = planes.row(p, y);
        ASSERT_EQ(r[words - 1] & ~planes.tail_mask(), 0u)
            << "plane " << p << " row " << y;
        if (y + 1 < shape.height) {
          ASSERT_EQ(r + words, planes.row(p, y + 1));
        }
        if (y > 0) {
          ASSERT_EQ(r - 1, planes.row(p, y - 1) + words - 1);
        }
      }
    }
    return;
  }
  for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
    for (std::int64_t y = 0; y < shape.height; ++y) {
      const std::uint64_t* r = planes.row(p, y);
      // A right shift of the last word pulls in bit 0 of the right
      // guard: site x = width under Null, site x = 0 under Periodic.
      // A left shift of word 0 pulls in bit 63 of the left guard:
      // site x = -1 / x = width - 1 respectively.
      const bool right_in = boundary == Boundary::Periodic &&
                            ((original.at({0, y}) >> p) & 1) != 0;
      const bool left_in =
          boundary == Boundary::Periodic &&
          ((original.at({shape.width - 1, y}) >> p) & 1) != 0;
      ASSERT_EQ((r[planes.words_per_row()] & 1) != 0, right_in);
      ASSERT_EQ((r[-1] >> 63) != 0, left_in);
      // The bit one past the row's tail feeds the left-shift of the
      // last payload word (gathering from x = width): wrapped x = 0
      // under Periodic, zero under Null. It lives in the tail bits
      // when width % 64 != 0 and in the right guard otherwise.
      const std::int64_t w = shape.width % 64;
      const bool past_end =
          w != 0 ? ((r[planes.words_per_row() - 1] >> w) & 1) != 0
                 : (r[planes.words_per_row()] & 1) != 0;
      ASSERT_EQ(past_end, right_in) << "plane " << p << " row " << y;
    }
  }
}

TEST(PlaneLattice, PayloadRowsAreCachelineAligned) {
  // The SIMD spans use unaligned loads, so this is a layout guarantee
  // rather than a correctness requirement — but the documented cost
  // model assumes every 512-bit access stays inside one cacheline.
  // Rows of at least kRowPad words are the ones a vector span runs on.
  for (const std::int64_t width : {449, 511, 512, 513, 640, 2048}) {
    PlaneLattice planes({width, 3}, Boundary::Null);
    ASSERT_GE(planes.words_per_row(), PlaneLattice::kRowPad) << width;
    EXPECT_EQ(planes.row_stride() % PlaneLattice::kRowPad, 0) << width;
    EXPECT_GE(planes.row_stride(),
              planes.words_per_row() + PlaneLattice::kRowPad + 1)
        << width;
    for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
      for (std::int64_t y = 0; y < 3; ++y) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(planes.row(p, y)) % 64, 0u)
            << "width " << width << " plane " << p << " row " << y;
      }
    }
  }
}

TEST(PlaneLattice, NarrowRowsAreCompactAndHaloFillsStayInTheirRow) {
  // A row narrower than kRowPad words is dense: stride = words, each
  // row right after the one before, and each plane right after the one
  // before, with no guard word anywhere, so a halo fill has nothing to
  // write. A wider row has one guard word on each side of its payload.
  // A periodic halo fill writes both guards of its own row, so it must
  // leave every neighboring word alone: if adjacent rows shared a
  // guard this would fail.
  std::mt19937_64 rng(17);
  for (std::int64_t width = 1; width <= 511; ++width) {
    const std::int64_t height = 3;
    PlaneLattice planes({width, height}, Boundary::Periodic);
    const std::int64_t words = planes.words_per_row();
    const std::int64_t g = guards(planes);
    ASSERT_EQ(PlaneLattice::guarded(width), words >= PlaneLattice::kRowPad)
        << width;
    if (words < PlaneLattice::kRowPad) {
      ASSERT_EQ(g, 0) << width;
      ASSERT_EQ(planes.row_stride(), words) << width;
      for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
        for (std::int64_t y = 0; y + 1 < height; ++y) {
          ASSERT_EQ(planes.row(p, y + 1) - planes.row(p, y), words)
              << "width " << width << " plane " << p << " row " << y;
        }
        if (p + 1 < PlaneLattice::kPlanes) {
          ASSERT_EQ(planes.row(p + 1, 0) - planes.row(p, height - 1), words)
              << "width " << width << " plane " << p;
        }
      }
    }
    // Random payload (and guards) on every row, then a fill of row 1.
    for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
      for (std::int64_t y = 0; y < height; ++y) {
        for (std::int64_t k = -g; k < words + g; ++k) {
          planes.row(p, y)[k] = rng();
        }
      }
    }
    const auto snapshot = [&](std::int64_t y) {
      std::vector<std::uint64_t> v;
      for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
        v.insert(v.end(), planes.row(p, y) - g, planes.row(p, y) + words + g);
      }
      return v;
    };
    const std::vector<std::uint64_t> above = snapshot(0);
    const std::vector<std::uint64_t> filled = snapshot(1);
    const std::vector<std::uint64_t> below = snapshot(2);
    planes.prepare_shift_halo((1u << PlaneLattice::kPlanes) - 1u, 1, 2);
    ASSERT_EQ(snapshot(0), above) << "width " << width;
    ASSERT_EQ(snapshot(2), below) << "width " << width;
    if (g == 0) {
      ASSERT_EQ(snapshot(1), filled) << "width " << width;
    }
  }
}

TEST(PlaneLattice, EqualityIgnoresHaloState) {
  const SiteLattice sites = random_sites({65, 4}, Boundary::Periodic, 42);
  PlaneLattice a(sites);
  PlaneLattice b(sites);
  a.prepare_shift_halo();  // fills guards and tail bits in a only
  EXPECT_TRUE(a == b);
  b.set_site({64, 3}, static_cast<Site>(sites.at({64, 3}) ^ 1));
  EXPECT_FALSE(a == b);
}

TEST(PlaneLattice, PackReplacesPriorContents) {
  const SiteLattice first = random_sites({30, 6}, Boundary::Null, 1);
  const SiteLattice second = random_sites({30, 6}, Boundary::Null, 2);
  PlaneLattice planes(first);
  planes.prepare_shift_halo();
  planes.pack(second);
  EXPECT_TRUE(planes.to_sites() == second);
}

// ---- the word-parallel transpose against the per-bit oracle ----

/// The oracle for PlaneLattice::pack: the per-bit transpose, one bit
/// of one site at a time.
void oracle_pack(const SiteLattice& sites, PlaneLattice& planes) {
  const std::int64_t w = sites.extent().width;
  const std::int64_t words = planes.words_per_row();
  for (std::int64_t y = 0; y < sites.extent().height; ++y) {
    for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
      std::uint64_t* r = planes.row(p, y);
      for (std::int64_t k = 0; k < words; ++k) {
        const std::int64_t n = std::min<std::int64_t>(64, w - k * 64);
        std::uint64_t acc = 0;
        for (std::int64_t j = 0; j < n; ++j) {
          const std::uint64_t s = sites.at({k * 64 + j, y});
          acc |= ((s >> p) & 1u) << j;
        }
        r[k] = acc;
      }
    }
  }
}

/// The oracle for PlaneLattice::unpack, per bit; bits past the row's
/// width are never read.
void oracle_unpack(const PlaneLattice& planes, SiteLattice& sites) {
  const std::int64_t w = sites.extent().width;
  for (std::int64_t y = 0; y < sites.extent().height; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      std::uint64_t s = 0;
      for (int p = 0; p < PlaneLattice::kPlanes; ++p)
        s |= ((planes.row(p, y)[x / 64] >> (x % 64)) & 1u) << p;
      sites.at({x, y}) = static_cast<Site>(s);
    }
  }
}

/// Every word of every row, tail bits included (these widths are all
/// compact, so a row has no guard word).
void expect_same_words(const PlaneLattice& got, const PlaneLattice& want) {
  ASSERT_EQ(got.words_per_row(), want.words_per_row());
  ASSERT_EQ(guards(got), 0);
  for (int p = 0; p < PlaneLattice::kPlanes; ++p)
    for (std::int64_t y = 0; y < got.extent().height; ++y)
      for (std::int64_t k = 0; k < got.words_per_row(); ++k)
        ASSERT_EQ(got.row(p, y)[k], want.row(p, y)[k])
            << "plane " << p << " row " << y << " word " << k;
}

/// Random words over every row's payload and tail bits.
void dirty_rows(PlaneLattice& planes, std::mt19937_64& rng) {
  for (int p = 0; p < PlaneLattice::kPlanes; ++p)
    for (std::int64_t y = 0; y < planes.extent().height; ++y)
      for (std::int64_t k = 0; k < planes.words_per_row(); ++k)
        planes.row(p, y)[k] = rng();
}

/// Runs `check(extent, boundary, seed)` on every width 1–130, heights
/// 1 and 3, both boundaries.
template <class Check>
void for_each_transpose_shape(const Check& check) {
  std::uint32_t seed = 0;
  for (const Boundary b : {Boundary::Null, Boundary::Periodic}) {
    SCOPED_TRACE(b == Boundary::Null ? "Null" : "Periodic");
    for (const std::int64_t h : {1, 3}) {
      for (std::int64_t w = 1; w <= 130; ++w) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
        check(Extent{w, h}, b, ++seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(TransposeOracle, PackMatchesPerBitLoopWordForWord) {
  std::bitset<256> seen;
  for_each_transpose_shape([&](Extent e, Boundary b, std::uint32_t seed) {
    const SiteLattice sites = random_sites(e, b, seed);
    for (std::size_t i = 0; i < sites.site_count(); ++i) seen.set(sites[i]);
    PlaneLattice want(e, b);
    oracle_pack(sites, want);

    const PlaneLattice fresh(sites);
    expect_same_words(fresh, want);
    // Tail bits dirtied first must come back as the oracle writes
    // them: zero.
    PlaneLattice dirty(e, b);
    std::mt19937_64 rng(seed);
    dirty_rows(dirty, rng);
    dirty.pack(sites);
    expect_same_words(dirty, want);
    const std::int64_t last = dirty.words_per_row() - 1;
    for (int p = 0; p < PlaneLattice::kPlanes; ++p)
      for (std::int64_t y = 0; y < e.height; ++y)
        ASSERT_EQ(dirty.row(p, y)[last] & ~dirty.tail_mask(), 0u)
            << "plane " << p << " row " << y;
  });
  EXPECT_TRUE(seen.all()) << seen.count() << " of 256 site states packed";
}

TEST(TransposeOracle, UnpackMatchesPerBitLoop) {
  for_each_transpose_shape([](Extent e, Boundary b, std::uint32_t seed) {
    // Random words in every payload word, tail bits included: no bit
    // past the width may reach the sites.
    PlaneLattice planes(e, b);
    std::mt19937_64 rng(seed);
    dirty_rows(planes, rng);
    SiteLattice got(e, b);
    SiteLattice want(e, b);
    planes.unpack(got);
    oracle_unpack(planes, want);
    ASSERT_TRUE(got == want);

    // A periodic halo fill writes wrapped row content into the tail
    // bits; unpack must still return exactly the packed sites.
    const SiteLattice sites = random_sites(e, b, seed);
    PlaneLattice filled(sites);
    filled.prepare_shift_halo();
    filled.unpack(got);
    oracle_unpack(filled, want);
    ASSERT_TRUE(got == want);
    ASSERT_TRUE(got == sites);
  });
}

TEST(ChiralityMask, VariantsAreBalanced) {
  // Sanity on the hash: roughly half the sites pick each variant.
  std::int64_t ones = 0;
  const std::int64_t words = 4096;
  for (std::int64_t i = 0; i < words; ++i) {
    for (std::int64_t j = 0; j < 64; ++j)
      ones += GasModel::chirality(i * 64 + j, i % 97, i % 13);
  }
  const double frac =
      static_cast<double>(ones) / static_cast<double>(words * 64);
  EXPECT_GT(frac, 0.45);
  EXPECT_LT(frac, 0.55);
}

}  // namespace
}  // namespace lattice::lgca
