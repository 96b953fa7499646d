// AVX2 instantiation of the vector span kernels: 4 lattice words (256
// sites) per op. This TU is compiled with -mavx2 (see the LATTICE_SIMD
// logic in src/lgca/CMakeLists.txt) and must only be *called* behind
// the runtime CPU check in plane_simd.cpp.

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "lattice/lgca/gas_model.hpp"
#include "plane_span.hpp"

namespace {

struct VOps {
  using V = __m256i;
  static constexpr int kLanes = 4;
  static V loadu(const std::uint64_t* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu(std::uint64_t* p, V v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V zero() noexcept { return _mm256_setzero_si256(); }
  static V vand(V a, V b) noexcept { return _mm256_and_si256(a, b); }
  static V vor(V a, V b) noexcept { return _mm256_or_si256(a, b); }
  static V vandnot(V a, V b) noexcept { return _mm256_andnot_si256(a, b); }
  static V vnot(V a) noexcept {
    return _mm256_xor_si256(a, _mm256_set1_epi64x(-1));
  }
  static V shr1(V a) noexcept { return _mm256_srli_epi64(a, 1); }
  static V shl63(V a) noexcept { return _mm256_slli_epi64(a, 63); }
  static V shl1(V a) noexcept { return _mm256_slli_epi64(a, 1); }
  static V shr63(V a) noexcept { return _mm256_srli_epi64(a, 63); }
};

}  // namespace

#include "plane_span_x86.inc"

namespace lattice::lgca::detail {

const PlaneSpanOps& plane_span_ops_avx2() noexcept {
  static const PlaneSpanOps ops{"avx2", 256, &vec_hpp_span, &vec_fhp1_span,
                                &vec_fhp2_span, &vec_popcount_words};
  return ops;
}

}  // namespace lattice::lgca::detail
