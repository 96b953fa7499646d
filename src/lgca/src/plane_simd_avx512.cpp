// AVX-512F instance of the bit-plane spans (plane_span.inc): 8 lattice
// words (512 sites) per op. Compiled with -mavx512f (see the
// LATTICE_SIMD logic in src/lgca/CMakeLists.txt) and only ever *called*
// behind the runtime CPU check in plane_simd.cpp. Only foundation ops
// are used — 64-bit logic, shifts, unaligned load/store — so avx512f
// alone is the dispatch requirement; the compiler is free to fuse the
// and/or/not trees into vpternlogq.

#include <immintrin.h>

#include <cstdint>

#include "lattice/lgca/gas_model.hpp"
#include "plane_span.hpp"

namespace lattice::lgca::detail {

namespace {
using W = __v8du;
#include "plane_span.inc"
}  // namespace

const PlaneSpanOps& plane_span_ops_avx512() noexcept {
  static const PlaneSpanOps ops{"avx512",       512,        &hpp_span,
                                &fhp1_span,   &fhp2_span, &cubic_span,
                                &popcount_words};
  return ops;
}

}  // namespace lattice::lgca::detail
