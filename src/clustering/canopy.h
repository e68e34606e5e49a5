#pragma once

/// \file canopy.h
/// \brief Canopy clustering (McCallum, Nigam & Ungar 2000 — the paper's
/// related-work ref [15]): overlapping coarse groups built with a cheap
/// distance, inside which exact distances are computed.
///
/// The paper positions canopies as the classic alternative to its LSH
/// index for pruning the cluster search space; this module implements
/// them so the two accelerators can be compared head-to-head
/// (core/canopy_shortlist_index.h plugs canopies into the same engine
/// hook as the MinHash index, and bench/ext_related_baselines.cpp runs the
/// fight).
///
/// Construction (the original algorithm):
///   while candidate centers remain:
///     pick a center c at random;
///     its canopy = all items with cheap_distance(x, c) < T1;
///     items with cheap_distance(x, c) < T2 stop being candidate centers.
/// T1 > T2; items may belong to several canopies.
///
/// The cheap distance for categorical data is the mismatch count over a
/// fixed random subset of attributes — a handful of comparisons instead
/// of m.

#include <cstdint>
#include <span>
#include <vector>

#include "data/categorical_dataset.h"
#include "util/result.h"
#include "util/rng.h"

namespace lshclust {

/// \brief Options for canopy construction.
struct CanopyOptions {
  /// Attributes sampled for the cheap distance (clamped to m).
  uint32_t cheap_attributes = 8;
  /// Loose threshold T1 as a fraction of the sampled attributes: items
  /// mismatching on fewer than T1 * cheap_attributes sampled positions
  /// join the canopy.
  double loose_fraction = 0.75;
  /// Tight threshold T2 (< T1): items inside it stop being candidate
  /// centers.
  double tight_fraction = 0.4;
  /// RNG seed (center order and attribute sample).
  uint64_t seed = 42;
};

/// Validates the dataset-independent canopy invariants as a returned
/// Status. CanopyIndex::Build re-checks them, so direct callers keep the
/// historical behaviour; the front door (api/clusterer.h) reports them at
/// Clusterer::Create time instead of mid-run.
[[nodiscard]] inline Status ValidateCanopyOptions(const CanopyOptions& options) {
  if (!(options.tight_fraction > 0.0 &&
        options.tight_fraction <= options.loose_fraction &&
        options.loose_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "thresholds must satisfy 0 < tight <= loose <= 1");
  }
  if (options.cheap_attributes == 0) {
    return Status::InvalidArgument("cheap_attributes must be positive");
  }
  return Status::OK();
}

/// \brief Immutable canopy cover of a dataset: every item belongs to at
/// least one canopy; canopies overlap.
class CanopyIndex {
 public:
  /// Builds the cover. Fails on an empty dataset or thresholds violating
  /// 0 < tight <= loose <= 1.
  static Result<CanopyIndex> Build(const CategoricalDataset& dataset,
                                   const CanopyOptions& options);

  /// Number of canopies.
  uint32_t num_canopies() const {
    return static_cast<uint32_t>(canopy_offsets_.size() - 1);
  }
  /// Number of covered items (= dataset size).
  uint32_t num_items() const { return num_items_; }

  /// The items of canopy `canopy`.
  std::span<const uint32_t> CanopyMembers(uint32_t canopy) const {
    LSHC_DCHECK(canopy < num_canopies());
    return {canopy_items_.data() + canopy_offsets_[canopy],
            canopy_offsets_[canopy + 1] - canopy_offsets_[canopy]};
  }

  /// The canopies containing `item` (at least one).
  std::span<const uint32_t> CanopiesOf(uint32_t item) const {
    LSHC_DCHECK(item < num_items_);
    return {item_canopies_.data() + item_offsets_[item],
            item_offsets_[item + 1] - item_offsets_[item]};
  }

  /// Invokes `visit(other_item)` for every item sharing a canopy with
  /// `item` (repeats across canopies possible; includes `item` itself).
  template <typename Visitor>
  void VisitCanopyPeers(uint32_t item, Visitor&& visit) const {
    for (const uint32_t canopy : CanopiesOf(item)) {
      for (const uint32_t other : CanopyMembers(canopy)) {
        visit(other);
      }
    }
  }

  /// Mean canopy size (items appear once per containing canopy).
  double MeanCanopySize() const {
    return num_canopies() == 0
               ? 0.0
               : static_cast<double>(canopy_items_.size()) / num_canopies();
  }

 private:
  CanopyIndex() = default;

  uint32_t num_items_ = 0;
  // canopy -> items (CSR).
  std::vector<uint32_t> canopy_offsets_;
  std::vector<uint32_t> canopy_items_;
  // item -> canopies (CSR).
  std::vector<uint32_t> item_offsets_;
  std::vector<uint32_t> item_canopies_;
};

}  // namespace lshclust
