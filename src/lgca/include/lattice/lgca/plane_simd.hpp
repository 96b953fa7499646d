// Runtime SIMD dispatch for the bit-plane span kernels.
//
// The plane kernels' inner loops — funnel-shift gather plus boolean-
// algebra collision over whole words, for the 2-D gases (PlaneKernel)
// and the cubic 3-D gas (lgca3d::PlaneKernel3) — are written once
// (src/lgca/src/plane_span.inc) over a word type and compiled at three
// widths: the portable 64-bit scalar word, an AVX2 vector (256 sites
// per op) and an AVX-512 vector (512 sites per op). All three compute
// the same function bit-for-bit. A span covers one wide row (a row
// span) or compact rows as one flat range of their dense words (a run;
// SpanRun below). The vector instances run 4 or 8 lattice words per
// instruction and hand a wide row's masked tail word and any
// sub-vector remainder, or a run shorter than one vector, to the
// scalar instance, so odd widths never depend on the ISA.
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

/// Longest row stride a run may have: compact rows (fewer than
/// PlaneLattice::kRowPad payload words) are stored dense, at stride
/// words <= 7, and every wider row has a stride of at least 17. Bounds
/// the span's per-position scratch, which lives on its stack.
inline constexpr std::int64_t kMaxRunStride = 7;

/// The work of one span call: `rows` consecutive rows of a plane
/// lattice, row r of every plane `stride` words after row r - 1. The
/// stride alone picks the form:
///
///   stride >  kMaxRunStride   a row span: words [k0, k1) of one wide
///                             row (rows == 1), its shifts reading the
///                             row's guard halo;
///   stride <= kMaxRunStride   a run over compact rows: all rows *
///                             words dense word positions, from row 0's
///                             word 0 to the last row's last word
///                             (k0 and k1 unused). A shift that crosses
///                             a row end takes the row's other end,
///                             shifted into place, under Periodic, and
///                             zero under Null; tail bits are stored as
///                             zero. A one-row run serves the lattice's
///                             edge rows and a trapezoid tile's window
///                             rows.
///
/// Channel i gathers from src[i] + position shifted by dx[y & 1][i],
/// where y is the semantic row (the cubic gas ignores dx: its ±x
/// shifts are fixed by its channel order); a tap's row offset (dy, or a
/// 3-D dz plane) is folded into src[i], so in a run it is one offset
/// for every row, and the edge rows' taps are resolved (wrapped, or the
/// zero row) before the call. HPP reads neither `rest` nor the
/// chirality; FHP-I never loads `rest`; the cubic gas reads no `rest`
/// and writes out[0..5] only. (y, z, t) are row 0's semantic
/// coordinates, z = 0 in 2-D: they key the per-word chirality hash of
/// every gas that has one.
struct SpanRun {
  const std::uint64_t* src[6];  // gather source of each channel, row 0
  const std::uint64_t* rest;    // rest plane, row 0
  const std::uint64_t* obst;    // obstacle plane, row 0
  std::uint64_t* out[8];        // destination planes, row 0
  int dx[2][6];                 // column shift per [row parity][channel]
  std::int64_t rows;
  std::int64_t stride;
  std::int64_t words;           // payload words per row
  std::uint64_t tail_mask;      // valid bits of a row's last word
  bool periodic;                // a run's rows wrap at their ends
  std::int64_t k0, k1;          // a row span's word range
  std::int64_t y, z, t;
};

/// A gas's span kernel over one SpanRun.
using SpanFn = void (*)(const SpanRun& run);

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
  SpanFn hpp;
  SpanFn fhp1;   // FHP-I: rest plane never gathered
  SpanFn fhp2;   // FHP-II: rest rules live
  SpanFn cubic;  // the 3-D six-velocity gas (lgca3d::PlaneKernel3)
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
