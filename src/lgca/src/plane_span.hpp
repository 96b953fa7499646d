// Internal declarations shared by the span-kernel translation units.
//
// The spans are written once, in plane_span.inc, and each TU includes
// it at its own word width. The scalar TU exports the masked per-word
// loops below: every instance, the scalar one included, hands them the
// masked last word of a row plus any sub-vector remainder (and a vector
// instance hands them a flat run shorter than one vector), so the
// vector TUs link against them. The per-ISA getters are only defined
// when the variant was compiled in (see LATTICE_SIMD in
// src/lgca/CMakeLists.txt) — plane_simd.cpp turns that plus runtime
// CPU detection into the public dispatch table.

#pragma once

#include <cstdint>

#include "lattice/lgca/plane_simd.hpp"

namespace lattice::lgca::detail {

/// The scalar instance's masked loops: words [from, run.k1) of a row
/// span, every word masked (the row's last word by its tail mask), or
/// the whole of a flat run when run.rows > 1.
void hpp_span_scalar(const SpanRun& run, std::int64_t from);
void fhp1_span_scalar(const SpanRun& run, std::int64_t from);
void fhp2_span_scalar(const SpanRun& run, std::int64_t from);
void cubic_span_scalar(const SpanRun& run, std::int64_t from);

const PlaneSpanOps& plane_span_ops_scalar() noexcept;

// Defined in plane_simd_avx2.cpp / plane_simd_avx512.cpp when those
// TUs are in the build; resolved through the LATTICE_HAVE_*_KERNELS
// macros in plane_simd.cpp.
const PlaneSpanOps& plane_span_ops_avx2() noexcept;
const PlaneSpanOps& plane_span_ops_avx512() noexcept;

}  // namespace lattice::lgca::detail
