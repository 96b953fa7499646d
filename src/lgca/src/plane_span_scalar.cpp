// Scalar (64-bit word) span kernels — the reference form of the
// bit-plane update. The collision comments live here; the AVX2 and
// AVX-512 variants (plane_span_x86.inc) are lane-for-lane transcripts
// of these loops and defer to them for masked tails and sub-vector
// remainders, so this file is the single place the boolean algebra is
// derived and documented. Every step is word algebra: even the FHP
// chirality, the one stochastic input, arrives as a whole word from
// GasModel::chirality_word.

#include "plane_span.hpp"

#include <bit>

#include "lattice/lgca/gas_model.hpp"

namespace lattice::lgca::detail {

namespace {

/// Gathered word for a row shifted by dx ∈ {-1, 0, +1}: bit j of the
/// result is bit j+dx of the (halo-padded) source row. The guard words
/// at indices -1 and words_per_row() make this branch-free on word
/// boundaries; `dx` is loop-invariant so the branches predict.
inline std::uint64_t shift_gather(const std::uint64_t* row, std::int64_t k,
                                  int dx) noexcept {
  if (dx == 0) return row[k];
  if (dx > 0) return (row[k] >> 1) | (row[k + 1] << 63);
  return (row[k] << 1) | (row[k - 1] >> 63);
}

/// FHP collision over one word span; HasRest distinguishes FHP-II from
/// FHP-I (whose rest plane is never gathered, so it reads as zero and
/// the rest rules vanish). Every FHP rule fires on an *exact* moving
/// configuration, so the detectors below are mutually exclusive and the
/// update is "clear the channels at event sites, OR in the gains":
///
///   p_i   exactly {i, i+3}          → {i±1, i+3±1}, sign from chirality
///   tr0   exactly {0,2,4} (no rest) → {1,3,5}   (chirality-free)
///   tr1   exactly {1,3,5} (no rest) → {0,2,4}
///   ann_j rest + exactly {j}        → {j-1, j+1}, rest cleared
///   cre_j exactly {j, j+2}, no rest → {j+1}, rest set
template <bool HasRest>
void fhp_span(const std::uint64_t* const src[6], const int dx[6],
              const std::uint64_t* rest, const std::uint64_t* obst,
              std::uint64_t* const out[8], std::int64_t k0, std::int64_t k1,
              std::int64_t y, std::int64_t t, std::int64_t last_word,
              std::uint64_t tail_mask) {
  for (std::int64_t k = k0; k < k1; ++k) {
    const std::uint64_t m =
        k == last_word ? tail_mask : ~std::uint64_t{0};
    const std::uint64_t a0 = shift_gather(src[0], k, dx[0]);
    const std::uint64_t a1 = shift_gather(src[1], k, dx[1]);
    const std::uint64_t a2 = shift_gather(src[2], k, dx[2]);
    const std::uint64_t a3 = shift_gather(src[3], k, dx[3]);
    const std::uint64_t a4 = shift_gather(src[4], k, dx[4]);
    const std::uint64_t a5 = shift_gather(src[5], k, dx[5]);
    const std::uint64_t r = HasRest ? rest[k] : 0;
    const std::uint64_t o = obst[k];
    const std::uint64_t n0 = ~a0, n1 = ~a1, n2 = ~a2;
    const std::uint64_t n3 = ~a3, n4 = ~a4, n5 = ~a5;

    // Head-on pairs (rest particles spectate).
    const std::uint64_t p0 = a0 & a3 & n1 & n2 & n4 & n5;
    const std::uint64_t p1 = a1 & a4 & n0 & n2 & n3 & n5;
    const std::uint64_t p2 = a2 & a5 & n0 & n1 & n3 & n4;
    // Symmetric triples; a rest particle blocks them in FHP-II.
    const std::uint64_t rok = HasRest ? ~r : ~std::uint64_t{0};
    const std::uint64_t tr0 = a0 & a2 & a4 & n1 & n3 & n5 & rok;
    const std::uint64_t tr1 = a1 & a3 & a5 & n0 & n2 & n4 & rok;

    std::uint64_t ann0 = 0, ann1 = 0, ann2 = 0, ann3 = 0, ann4 = 0,
                  ann5 = 0, cre0 = 0, cre1 = 0, cre2 = 0, cre3 = 0,
                  cre4 = 0, cre5 = 0, ann_any = 0, cre_any = 0;
    if constexpr (HasRest) {
      ann0 = r & a0 & n1 & n2 & n3 & n4 & n5;
      ann1 = r & a1 & n0 & n2 & n3 & n4 & n5;
      ann2 = r & a2 & n0 & n1 & n3 & n4 & n5;
      ann3 = r & a3 & n0 & n1 & n2 & n4 & n5;
      ann4 = r & a4 & n0 & n1 & n2 & n3 & n5;
      ann5 = r & a5 & n0 & n1 & n2 & n3 & n4;
      ann_any = ann0 | ann1 | ann2 | ann3 | ann4 | ann5;
      const std::uint64_t nr = ~r;
      cre0 = nr & a0 & a2 & n1 & n3 & n4 & n5;
      cre1 = nr & a1 & a3 & n0 & n2 & n4 & n5;
      cre2 = nr & a2 & a4 & n0 & n1 & n3 & n5;
      cre3 = nr & a3 & a5 & n0 & n1 & n2 & n4;
      cre4 = nr & a4 & a0 & n1 & n2 & n3 & n5;
      cre5 = nr & a5 & a1 & n0 & n2 & n3 & n4;
      cre_any = cre0 | cre1 | cre2 | cre3 | cre4 | cre5;
    }

    const std::uint64_t ev =
        p0 | p1 | p2 | tr0 | tr1 | ann_any | cre_any;
    // The chirality model is defined a word at a time: one hash gives
    // all 64 sites' variants, read only where a head-on pair fired.
    const std::uint64_t C = GasModel::chirality_word(k, y, t);
    // Variant 0 rotates a pair +60° (p_i → {i+1, i+4}), variant 1
    // rotates −60° (p_i → {i-1, i+2}); C picks per site.
    const std::uint64_t pA0 = p0 & ~C, pB0 = p0 & C;
    const std::uint64_t pA1 = p1 & ~C, pB1 = p1 & C;
    const std::uint64_t pA2 = p2 & ~C, pB2 = p2 & C;

    std::uint64_t b0 = (a0 & ~ev) | pA2 | pB1 | tr1;
    std::uint64_t b1 = (a1 & ~ev) | pA0 | pB2 | tr0;
    std::uint64_t b2 = (a2 & ~ev) | pA1 | pB0 | tr1;
    std::uint64_t b3 = (a3 & ~ev) | pA2 | pB1 | tr0;
    std::uint64_t b4 = (a4 & ~ev) | pA0 | pB2 | tr1;
    std::uint64_t b5 = (a5 & ~ev) | pA1 | pB0 | tr0;
    if constexpr (HasRest) {
      b0 |= ann5 | ann1 | cre5;
      b1 |= ann0 | ann2 | cre0;
      b2 |= ann1 | ann3 | cre1;
      b3 |= ann2 | ann4 | cre2;
      b4 |= ann3 | ann5 | cre3;
      b5 |= ann4 | ann0 | cre4;
    }

    // Obstacle sites bounce every gathered particle straight back and
    // keep their rest bit.
    out[0][k] = ((b0 & ~o) | (a3 & o)) & m;
    out[1][k] = ((b1 & ~o) | (a4 & o)) & m;
    out[2][k] = ((b2 & ~o) | (a5 & o)) & m;
    out[3][k] = ((b3 & ~o) | (a0 & o)) & m;
    out[4][k] = ((b4 & ~o) | (a1 & o)) & m;
    out[5][k] = ((b5 & ~o) | (a2 & o)) & m;
    if constexpr (HasRest) {
      const std::uint64_t br = (r & ~ann_any) | cre_any;
      out[6][k] = ((br & ~o) | (r & o)) & m;
    }
  }
}

}  // namespace

/// HPP collision over one word span. The only rule is the head-on
/// exchange {E,W} ↔ {N,S} on exactly-pair states — chirality-free (the
/// model's two variant tables are identical).
///
/// Every span writes only its gas's *dynamic* planes (the moving
/// channels, plus the rest plane when the gas has rest particles). The
/// static planes — HPP's unused channels 4/5, an absent rest plane,
/// and the obstacle mask — are constants of the run: PlaneKernel::
/// prime_static_planes() establishes them in both buffers once, which
/// for HPP halves the store traffic of the whole update (4 computed
/// planes instead of 8 written per word, per generation).
void hpp_span_scalar(const std::uint64_t* const src[6], const int dx[6],
                     const std::uint64_t* obst, std::uint64_t* const out[8],
                     std::int64_t k0, std::int64_t k1, std::int64_t last_word,
                     std::uint64_t tail_mask) {
  for (std::int64_t k = k0; k < k1; ++k) {
    const std::uint64_t m =
        k == last_word ? tail_mask : ~std::uint64_t{0};
    const std::uint64_t a0 = shift_gather(src[0], k, dx[0]);
    const std::uint64_t a1 = shift_gather(src[1], k, dx[1]);
    const std::uint64_t a2 = shift_gather(src[2], k, dx[2]);
    const std::uint64_t a3 = shift_gather(src[3], k, dx[3]);
    const std::uint64_t o = obst[k];
    const std::uint64_t ew = a0 & a2 & ~a1 & ~a3;  // exactly {E, W}
    const std::uint64_t ns = a1 & a3 & ~a0 & ~a2;  // exactly {N, S}
    const std::uint64_t b0 = (a0 & ~ew) | ns;
    const std::uint64_t b1 = (a1 & ~ns) | ew;
    const std::uint64_t b2 = (a2 & ~ew) | ns;
    const std::uint64_t b3 = (a3 & ~ns) | ew;
    // Obstacle sites bounce every gathered particle straight back.
    out[0][k] = ((b0 & ~o) | (a2 & o)) & m;
    out[1][k] = ((b1 & ~o) | (a3 & o)) & m;
    out[2][k] = ((b2 & ~o) | (a0 & o)) & m;
    out[3][k] = ((b3 & ~o) | (a1 & o)) & m;
  }
}

void fhp1_span_scalar(const std::uint64_t* const src[6], const int dx[6],
                      const std::uint64_t* rest, const std::uint64_t* obst,
                      std::uint64_t* const out[8], std::int64_t k0,
                      std::int64_t k1, std::int64_t y, std::int64_t t,
                      std::int64_t last_word, std::uint64_t tail_mask) {
  fhp_span<false>(src, dx, rest, obst, out, k0, k1, y, t, last_word,
                  tail_mask);
}

void fhp2_span_scalar(const std::uint64_t* const src[6], const int dx[6],
                      const std::uint64_t* rest, const std::uint64_t* obst,
                      std::uint64_t* const out[8], std::int64_t k0,
                      std::int64_t k1, std::int64_t y, std::int64_t t,
                      std::int64_t last_word, std::uint64_t tail_mask) {
  fhp_span<true>(src, dx, rest, obst, out, k0, k1, y, t, last_word,
                 tail_mask);
}

std::uint64_t popcount_words_scalar(const std::uint64_t* words,
                                    std::int64_t n) noexcept {
  std::uint64_t total = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    total += static_cast<std::uint64_t>(std::popcount(words[k]));
  }
  return total;
}

const PlaneSpanOps& plane_span_ops_scalar() noexcept {
  static const PlaneSpanOps ops{"scalar64", 64, &hpp_span_scalar,
                                &fhp1_span_scalar, &fhp2_span_scalar,
                                &popcount_words_scalar};
  return ops;
}

}  // namespace lattice::lgca::detail
