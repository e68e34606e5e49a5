#pragma once

/// \file routing.h
/// \brief The shared routed-query path: sign query (SignQuery) -> probe
/// buckets, dedup and sketch-screen (the library's one probe kernel,
/// CollectShortlist in core/shortlist_provider.h) -> exact distance over
/// the sorted shortlist (the engine's scorer, BestClusterOf in
/// clustering/engine.h), exhaustive fallback on an empty probe.
///
/// This is the per-item body of the facade's PredictRouted factored into
/// one place so the serving layer's FrozenModel::Route executes *the same
/// code* against its snapshotted state — routed results from a snapshot
/// are bit-identical to PredictRouted on the live Clusterer by
/// construction, not by parallel maintenance of two loops. The probe and
/// scoring steps are in turn the ones engine refinement and streaming
/// ingest run, so a probe or screen change lands everywhere at once.
///
/// The kernel is pure per item and reads only immutable state through
/// RoutedStateView, so any number of threads may route concurrently as
/// long as each owns its RoutedScratch.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "clustering/engine.h"
#include "core/shortlist_provider.h"
#include "data/categorical_dataset.h"
#include "data/mixed_dataset.h"
#include "lsh/banded_index.h"
#include "lsh/bit_sketch.h"

namespace lshclust::serving {

/// \brief Per-worker scratch of a routed-query pass: epoch-stamped cluster
/// dedup, the query-signature buffer, and family-specific signing scratch
/// (token list for MinHash, centered vector for the mixed family) — one
/// per worker, so the hot loop never allocates.
struct RoutedScratch {
  ClusterDedupScratch dedup;
  std::vector<uint64_t> signature;
  std::vector<uint64_t> query_sketch;
  std::vector<uint32_t> shortlist;
  std::vector<uint32_t> tokens;
  std::vector<double> centered;
};

/// A scratch sized for `num_clusters` clusters, a `signature_width`-wide
/// signature and (when the sketch screen is on) `sketch_words` packed
/// sketch words. The shortlist/token buffers grow lazily on first use and
/// keep their capacity, so steady-state routing through a warmed scratch
/// performs no allocation.
inline RoutedScratch MakeRoutedScratch(uint32_t num_clusters,
                                       uint32_t signature_width,
                                       uint32_t sketch_words) {
  RoutedScratch scratch;
  scratch.dedup = MakeClusterDedupScratch(num_clusters);
  scratch.signature.resize(signature_width);
  scratch.query_sketch.resize(sketch_words);
  return scratch;
}

/// \brief Read-only view of the routed-query state: the banded buckets
/// over the fitted items' signatures, the fitted assignment as the
/// cluster-reference store, and the optional bit-sketch screen. Built by
/// the facade over its retained provider and by FrozenModel over its
/// snapshot copies — both views route identically over identical state.
struct RoutedStateView {
  const BandedIndex* index = nullptr;
  std::span<const uint32_t> fit_assignment;
  const BitSketchTable* sketches = nullptr;  ///< required; table may be empty
  bool sketch_on = false;
  uint64_t sketch_max_hamming = 0;
};

/// Signs query `item` of a categorical dataset into `scratch.signature`
/// with `family` (a MinHash family): presence-filtered tokens, then the
/// family's query signature. One overload per dataset modality; the
/// facade's PredictRouted and FrozenModel::Route both sign through here.
template <typename Family>
void SignQuery(const Family& family, const CategoricalDataset& queries,
               uint32_t item, RoutedScratch& scratch) {
  queries.PresentTokens(item, &scratch.tokens);
  family.ComputeQuerySignature(scratch.tokens, scratch.signature.data());
}

/// Numeric overload (SimHash family): signs the query's row.
template <typename Family>
void SignQuery(const Family& family, const NumericDataset& queries,
               uint32_t item, RoutedScratch& scratch) {
  family.ComputeQuerySignature(queries.Row(item), scratch.signature.data());
}

/// Mixed overload (concatenated family): tokens of the categorical half
/// plus the numeric row, centered through `scratch.centered`.
template <typename Family>
void SignQuery(const Family& family, const MixedDataset& queries,
               uint32_t item, RoutedScratch& scratch) {
  queries.categorical().PresentTokens(item, &scratch.tokens);
  family.ComputeQuerySignature(scratch.tokens, queries.numeric().Row(item),
                               &scratch.centered, scratch.signature.data());
}

/// Routes one already-signed query (scratch.signature holds the query's
/// signature) through `view`: probe the fit-time buckets, dereference
/// candidate clusters through the fitted assignment (screening candidate
/// peers' packed sketches against the query's when the view carries a
/// sketch table), and return the nearest candidate — with the engine's
/// exhaustive argmin kernel as the fallback for an empty probe, so no
/// query goes unanswered. Candidates are scored in ascending cluster-id
/// order with strict improvement, which is the exhaustive scan's
/// lowest-id tie-breaking: a probe containing the true argmin yields
/// exactly Predict's answer.
template <typename Traits>
uint32_t RouteSignedQuery(const typename Traits::Dataset& dataset,
                          const typename Traits::Centroids& model,
                          const typename Traits::Options& options,
                          const RoutedStateView& view, uint32_t item,
                          RoutedScratch& scratch) {
  const uint32_t k = options.num_clusters;
  if (view.sketch_on) {
    PackSketchBits(scratch.signature.data(), view.index->signature_width(),
                   scratch.query_sketch.data());
  }
  CollectShortlistSketched(
      [&](auto&& sink) {
        view.index->VisitCandidatesOfSignature(scratch.signature, sink);
      },
      view.fit_assignment, scratch.dedup, &scratch.shortlist, kNoSeedCluster,
      *view.sketches, view.sketch_on ? scratch.query_sketch.data() : nullptr,
      view.sketch_max_hamming);
  if (scratch.shortlist.empty()) {
    // External queries, unlike fitted items, share no bucket with
    // themselves, so an empty probe is possible: fall back to the
    // exhaustive kernel Predict uses, same seed, same tie-breaking.
    return BestClusterExhaustive<Traits, /*EarlyExit=*/true>(
        dataset, model, options, item, /*seed_cluster=*/0, k);
  }
  std::sort(scratch.shortlist.begin(), scratch.shortlist.end());
  return BestClusterOf<Traits, /*EarlyExit=*/true>(dataset, model, options,
                                                   item, scratch.shortlist);
}

}  // namespace lshclust::serving
