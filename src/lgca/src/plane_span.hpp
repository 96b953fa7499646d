// Internal declarations shared by the span-kernel translation units.
//
// The spans are written once, in plane_span.inc, and each TU includes
// it at its own word width. The scalar TU exports the masked per-word
// loops below: every instance, the scalar one included, hands them the
// masked last word of a row plus any sub-vector remainder, so the
// vector TUs link against them. The per-ISA getters are only defined
// when the variant was compiled in (see LATTICE_SIMD in
// src/lgca/CMakeLists.txt) — plane_simd.cpp turns that plus runtime
// CPU detection into the public dispatch table.

#pragma once

#include <cstdint>

#include "lattice/lgca/plane_simd.hpp"

namespace lattice::lgca::detail {

void hpp_span_scalar(const std::uint64_t* const src[6], const int dx[6],
                     const std::uint64_t* obst, std::uint64_t* const out[8],
                     std::int64_t k0, std::int64_t k1, std::int64_t last_word,
                     std::uint64_t tail_mask);

void fhp1_span_scalar(const std::uint64_t* const src[6], const int dx[6],
                      const std::uint64_t* rest, const std::uint64_t* obst,
                      std::uint64_t* const out[8], std::int64_t k0,
                      std::int64_t k1, std::int64_t y, std::int64_t t,
                      std::int64_t last_word, std::uint64_t tail_mask);

void fhp2_span_scalar(const std::uint64_t* const src[6], const int dx[6],
                      const std::uint64_t* rest, const std::uint64_t* obst,
                      std::uint64_t* const out[8], std::int64_t k0,
                      std::int64_t k1, std::int64_t y, std::int64_t t,
                      std::int64_t last_word, std::uint64_t tail_mask);

const PlaneSpanOps& plane_span_ops_scalar() noexcept;

// Defined in plane_simd_avx2.cpp / plane_simd_avx512.cpp when those
// TUs are in the build; resolved through the LATTICE_HAVE_*_KERNELS
// macros in plane_simd.cpp.
const PlaneSpanOps& plane_span_ops_avx2() noexcept;
const PlaneSpanOps& plane_span_ops_avx512() noexcept;

}  // namespace lattice::lgca::detail
