// AVX2 instance of the bit-plane spans (plane_span.inc): 4 lattice
// words (256 sites) per op. This TU is compiled with -mavx2 (see the
// LATTICE_SIMD logic in src/lgca/CMakeLists.txt) and must only be
// *called* behind the runtime CPU check in plane_simd.cpp.

#include <immintrin.h>

#include <cstdint>

#include "lattice/lgca/gas_model.hpp"
#include "plane_span.hpp"

namespace lattice::lgca::detail {

namespace {
using W = __v4du;
#include "plane_span.inc"
}  // namespace

const PlaneSpanOps& plane_span_ops_avx2() noexcept {
  static const PlaneSpanOps ops{"avx2",       256,        &hpp_span,
                                &fhp1_span,   &fhp2_span, &cubic_span,
                                &popcount_words};
  return ops;
}

}  // namespace lattice::lgca::detail
