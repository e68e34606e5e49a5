#pragma once

/// \file dissimilarity.h
/// \brief Huang's categorical mismatch measure d(X, Y) (Eqs. 1-2) — the
/// inner loop of every assignment step.
///
/// The kernels themselves live in src/simd/ behind runtime CPU dispatch
/// (scalar / SSE4.2 / AVX2 / AVX-512); this header is the thin
/// domain-facing wrapper of the row kernels. The block kernel
/// (`mismatch_block16`: one row against 16 modes at once) is driven by the
/// exhaustive nearest-mode scan, AssignNearestModes in clustering/modes.h.
/// Historically the bounded scan relied on a `[[gnu::noinline]]` 32-element
/// block helper to keep GCC's auto-vectorizer engaged between the
/// early-exit branches; the dispatched kernels vectorize explicitly, so
/// that workaround is gone (bench/ablation_design_choices.cpp still
/// measures the historical shape for the before/after record).

#include <cstdint>
#include <span>

#include "simd/dispatch.h"

namespace lshclust {

/// Counts attribute positions where `a` and `b` differ. Both spans must
/// have equal length m; the result is in [0, m].
inline uint32_t MismatchDistance(std::span<const uint32_t> a,
                                 std::span<const uint32_t> b) {
  return simd::ActiveKernels().mismatch(a.data(), b.data(),
                                        static_cast<uint32_t>(a.size()));
}

/// Mismatch count with early exit: returns any value >= `bound` as soon as
/// the running count reaches `bound` (the caller is looking for distances
/// strictly below `bound`, so the exact value past it is irrelevant).
/// Every dispatch tier scans 32-attribute blocks with a bound check after
/// each, so even the early-exit partial value is tier-identical.
inline uint32_t BoundedMismatchDistance(const uint32_t* a, const uint32_t* b,
                                        uint32_t m, uint32_t bound) {
  return simd::ActiveKernels().bounded_mismatch(a, b, m, bound);
}

namespace internal {

/// Squared Euclidean distance with early exit at `bound` (the numeric twin
/// of BoundedMismatchDistance), shared by the K-Means and K-Prototypes
/// distance traits so both families run the identical kernel. All dispatch
/// tiers accumulate in the same fixed 4-lane x 8-element blocked order with
/// a bound check after each block, so the returned double — including the
/// early-exit partial — is bit-identical across tiers.
inline double BoundedSquaredL2(const double* a, const double* b, uint32_t d,
                               double bound) {
  return simd::ActiveKernels().bounded_sql2(a, b, d, bound);
}

/// Plain squared Euclidean distance (used by cost evaluation, where the
/// exact unblocked summation order is part of the reported number).
inline double SquaredL2(std::span<const double> a, std::span<const double> b) {
  double sum = 0;
  for (size_t j = 0; j < a.size(); ++j) {
    const double diff = a[j] - b[j];
    sum += diff * diff;
  }
  return sum;
}

}  // namespace internal

/// Jaccard similarity of two items' *present-token sets* when every
/// attribute is present: q matching attributes of m give |X∩Y| = q and
/// |X∪Y| = 2m - q, hence s = q / (2m - q). With at least one match,
/// s >= 1/(2m-1) — the quantity behind the paper's §III-C error bound.
inline double JaccardFromMatches(uint32_t matches, uint32_t m) {
  if (m == 0) return 0.0;
  return static_cast<double>(matches) /
         static_cast<double>(2 * m - matches);
}

}  // namespace lshclust
