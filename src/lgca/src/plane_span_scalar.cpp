// Scalar (64-bit word) instance of the bit-plane spans
// (plane_span.inc), and the masked last word of every instance: the
// vector spans hand a wide row's, with any sub-vector remainder, to the
// detail::*_span_scalar loops below, and a run shorter than one vector
// goes here whole. Every step is word algebra: even the chirality, the
// one stochastic input, arrives as a whole word from chirality_mix.

#include "plane_span.hpp"

#include "lattice/lgca/gas_model.hpp"

namespace lattice::lgca::detail {

namespace {
using W = std::uint64_t;
#include "plane_span.inc"

/// Words [from, k1) of a wide row's span with every word masked, or
/// the whole of a run.
template <class Span, class Word>
void masked_words(const SpanRun& run, std::int64_t from, Span whole,
                  Word word) {
  if (run.stride > kMaxRunStride) {
    masked_row(run, from, word);
  } else {
    whole(run);
  }
}

}  // namespace

void hpp_span_scalar(const SpanRun& run, std::int64_t from) {
  masked_words(run, from, hpp_span,
               [](const RowTaps& taps, std::int64_t k, W m) {
                 hpp_word(taps, k, m);
               });
}

void fhp1_span_scalar(const SpanRun& run, std::int64_t from) {
  masked_words(run, from, fhp1_span,
               [](const RowTaps& taps, std::int64_t k, W m) {
                 fhp_word<false>(taps, k, m);
               });
}

void fhp2_span_scalar(const SpanRun& run, std::int64_t from) {
  masked_words(run, from, fhp2_span,
               [](const RowTaps& taps, std::int64_t k, W m) {
                 fhp_word<true>(taps, k, m);
               });
}

void cubic_span_scalar(const SpanRun& run, std::int64_t from) {
  masked_words(run, from, cubic_span,
               [](const RowTaps& taps, std::int64_t k, W m) {
                 cubic_word(taps, k, m);
               });
}

const PlaneSpanOps& plane_span_ops_scalar() noexcept {
  static const PlaneSpanOps ops{"scalar64",  64,         &hpp_span,
                                &fhp1_span,  &fhp2_span, &cubic_span,
                                &popcount_words};
  return ops;
}

}  // namespace lattice::lgca::detail
