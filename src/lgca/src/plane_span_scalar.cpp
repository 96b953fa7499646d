// Scalar (64-bit word) instance of the bit-plane spans
// (plane_span.inc), and the masked last word of every instance: the
// vector spans hand it, with any sub-vector remainder, to the
// detail::*_span_scalar loops below. Every step is word algebra: even
// the FHP chirality, the one stochastic input, arrives as a whole word
// from GasModel::chirality_word.

#include "plane_span.hpp"

#include "lattice/lgca/gas_model.hpp"

namespace lattice::lgca::detail {

namespace {
using W = std::uint64_t;
#include "plane_span.inc"
}  // namespace

void hpp_span_scalar(const std::uint64_t* const src[6], const int dx[6],
                     const std::uint64_t* obst, std::uint64_t* const out[8],
                     std::int64_t k0, std::int64_t k1, std::int64_t last_word,
                     std::uint64_t tail_mask) {
  for (std::int64_t k = k0; k < k1; ++k) {
    hpp_word(src, dx, obst, out, k, k == last_word ? tail_mask : ~W{});
  }
}

void fhp1_span_scalar(const std::uint64_t* const src[6], const int dx[6],
                      const std::uint64_t* rest, const std::uint64_t* obst,
                      std::uint64_t* const out[8], std::int64_t k0,
                      std::int64_t k1, std::int64_t y, std::int64_t t,
                      std::int64_t last_word, std::uint64_t tail_mask) {
  for (std::int64_t k = k0; k < k1; ++k) {
    fhp_word<false>(src, dx, rest, obst, out, k, y, t,
                    k == last_word ? tail_mask : ~W{});
  }
}

void fhp2_span_scalar(const std::uint64_t* const src[6], const int dx[6],
                      const std::uint64_t* rest, const std::uint64_t* obst,
                      std::uint64_t* const out[8], std::int64_t k0,
                      std::int64_t k1, std::int64_t y, std::int64_t t,
                      std::int64_t last_word, std::uint64_t tail_mask) {
  for (std::int64_t k = k0; k < k1; ++k) {
    fhp_word<true>(src, dx, rest, obst, out, k, y, t,
                   k == last_word ? tail_mask : ~W{});
  }
}

const PlaneSpanOps& plane_span_ops_scalar() noexcept {
  static const PlaneSpanOps ops{"scalar64", 64, &hpp_span, &fhp1_span,
                                &fhp2_span, &popcount_words};
  return ops;
}

}  // namespace lattice::lgca::detail
