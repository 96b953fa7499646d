// AVX-512F instantiation of the vector span kernels: 8 lattice words
// (512 sites) per op. Compiled with -mavx512f (see the LATTICE_SIMD
// logic in src/lgca/CMakeLists.txt) and only ever *called* behind the
// runtime CPU check in plane_simd.cpp. Only foundation ops are used —
// 64-bit logic, shifts, unaligned load/store — so avx512f alone is the
// dispatch requirement; the compiler is free to fuse the and/or/not
// chains into vpternlogq.

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "lattice/lgca/gas_model.hpp"
#include "plane_span.hpp"

namespace {

struct VOps {
  using V = __m512i;
  static constexpr int kLanes = 8;
  static V loadu(const std::uint64_t* p) noexcept {
    return _mm512_loadu_si512(p);
  }
  static void storeu(std::uint64_t* p, V v) noexcept {
    _mm512_storeu_si512(p, v);
  }
  static V zero() noexcept { return _mm512_setzero_si512(); }
  // Logic and shifts via the compiler's native vector operators rather
  // than the unmasked intrinsics: GCC 12's avx512fintrin.h routes those
  // through *_mask builtins with an uninitialized pass-through operand,
  // tripping -Wuninitialized; the operator forms emit the same vpternlog
  // / vpsllq / vpsrlq instructions without the header detour.
  static V vand(V a, V b) noexcept {
    return (__m512i)((__v8du)a & (__v8du)b);
  }
  static V vor(V a, V b) noexcept {
    return (__m512i)((__v8du)a | (__v8du)b);
  }
  static V vandnot(V a, V b) noexcept {
    return (__m512i)(~(__v8du)a & (__v8du)b);
  }
  static V vnot(V a) noexcept { return (__m512i)(~(__v8du)a); }
  static V shr1(V a) noexcept { return (__m512i)((__v8du)a >> 1); }
  static V shl63(V a) noexcept { return (__m512i)((__v8du)a << 63); }
  static V shl1(V a) noexcept { return (__m512i)((__v8du)a << 1); }
  static V shr63(V a) noexcept { return (__m512i)((__v8du)a >> 63); }
};

}  // namespace

#include "plane_span_x86.inc"

namespace lattice::lgca::detail {

const PlaneSpanOps& plane_span_ops_avx512() noexcept {
  static const PlaneSpanOps ops{"avx512", 512, &vec_hpp_span, &vec_fhp1_span,
                                &vec_fhp2_span, &vec_popcount_words};
  return ops;
}

}  // namespace lattice::lgca::detail
