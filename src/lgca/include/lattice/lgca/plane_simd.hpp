// Runtime SIMD dispatch for the bit-plane span kernels.
//
// PlaneKernel's inner loops — funnel-shift gather plus boolean-algebra
// collision over whole words — are written once (src/lgca/src/
// plane_span.inc) over a word type and compiled at three widths: the
// portable 64-bit scalar word, an AVX2 vector (256 sites per op) and an
// AVX-512 vector (512 sites per op). All three compute the same
// function bit-for-bit; the vector instances run 4 or 8 lattice words
// per instruction and hand the masked tail word and any sub-vector
// remainder to the scalar instance, so odd widths and guard-halo
// handling never depend on the ISA.
//
// Which variants exist in a binary is a build-time fact (the
// LATTICE_SIMD CMake option; vector TUs are compiled with -mavx2 /
// -mavx512f but only ever *executed* behind the CPU checks here, so
// default builds stay portable). Which variant runs is a runtime fact:
// the process starts at the best level the build and the CPU both
// support, overridable by the LATTICE_SIMD environment variable
// (scalar | avx2 | avx512) or programmatically — tests pin levels with
// ScopedSimdLevel to prove scalar/AVX2/AVX-512 equivalence on the same
// machine.

#pragma once

#include <cstdint>

namespace lattice::lgca {

enum class SimdLevel : int {
  Scalar = 0,  // 64-bit words, always compiled, always supported
  Avx2 = 1,    // 256-bit vectors, 4 words per op
  Avx512 = 2,  // 512-bit vectors, 8 words per op
};

const char* to_string(SimdLevel level) noexcept;

/// Span kernels: compute words [k0, k1) of one destination row from
/// gathered source rows (see PlaneKernel). `last_word`/`tail_mask`
/// identify the row's masked final payload word. HPP has no rest
/// plane and no chirality; FHP takes the rest row plus (y, t) for the
/// per-word chirality hash.
using HppSpanFn = void (*)(const std::uint64_t* const src[6],
                           const int dx[6], const std::uint64_t* obst,
                           std::uint64_t* const out[8], std::int64_t k0,
                           std::int64_t k1, std::int64_t last_word,
                           std::uint64_t tail_mask);
using FhpSpanFn = void (*)(const std::uint64_t* const src[6],
                           const int dx[6], const std::uint64_t* rest,
                           const std::uint64_t* obst,
                           std::uint64_t* const out[8], std::int64_t k0,
                           std::int64_t k1, std::int64_t y, std::int64_t t,
                           std::int64_t last_word, std::uint64_t tail_mask);

/// Population count over `n` consecutive words. The fault detectors'
/// per-plane particle ledgers (docs/ROBUSTNESS.md) popcount every
/// written plane row once per generation, so this rides the same
/// dispatch: one word at a time through __builtin_popcountll, which the
/// vector TUs' ISA flags turn into the popcnt instruction and the
/// baseline build into a libgcc call. All variants return identical
/// sums.
using PopcountFn = std::uint64_t (*)(const std::uint64_t* words,
                                     std::int64_t n);

/// One ISA variant of the full span-kernel family. PlaneKernel calls
/// through the *active* ops table; tests call specific tables to pin
/// cross-ISA equivalence.
struct PlaneSpanOps {
  const char* name;  // "scalar64" | "avx2" | "avx512"
  int width_bits;    // sites per vector op: 64 | 256 | 512
  HppSpanFn hpp;
  FhpSpanFn fhp1;  // FHP-I: rest plane never gathered
  FhpSpanFn fhp2;  // FHP-II: rest rules live
  PopcountFn popcount;
};

/// Variant compiled into this binary (Scalar is always true; the
/// vector levels depend on the LATTICE_SIMD build option and the
/// compiler).
bool simd_compiled(SimdLevel level) noexcept;

/// Compiled *and* executable on this CPU.
bool simd_supported(SimdLevel level) noexcept;

/// Highest supported level, after applying the LATTICE_SIMD
/// environment override (scalar | avx2 | avx512; an unsupported or
/// unrecognized value is ignored). This is the process's initial
/// active level.
SimdLevel simd_best() noexcept;

/// The span-op table for `level`; throws lattice::Error if the level
/// is not supported (not compiled in, or the CPU lacks it).
const PlaneSpanOps& plane_span_ops(SimdLevel level);

/// The level PlaneKernel currently dispatches to (process-wide).
SimdLevel plane_simd_active() noexcept;

/// Set the active level; returns the previous one. Throws
/// lattice::Error for unsupported levels. Not meant to be raced
/// against in-flight updates — switch between runs.
SimdLevel plane_simd_set_active(SimdLevel level);

/// RAII pin of the active level (tests, benches).
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : previous_(plane_simd_set_active(level)) {}
  ~ScopedSimdLevel() { plane_simd_set_active(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel previous_;
};

}  // namespace lattice::lgca
