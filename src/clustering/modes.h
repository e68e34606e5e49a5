#pragma once

/// \file modes.h
/// \brief Cluster mode (categorical centroid) computation.
///
/// A mode of a cluster is the vector of per-attribute most frequent codes
/// among its members; Theorem 1 of Huang (1998), restated in §III-A1 of the
/// paper, shows this minimises D(X, Q) = Σ d(X_i, Q). Ties break towards
/// the smallest code so runs are reproducible.
///
/// The update is grouped by cluster: a counting sort orders the items by
/// cluster, then each (cluster, attribute) counts its member codes in a
/// hash table sized to the largest cluster and keeps the majority code,
/// smallest on ties.
///
/// BlockedModes is the other layout of the same modes: a pass-local,
/// attribute-major copy in 16-cluster blocks, the operand of the block
/// mismatch kernel (simd/kernel_table.h `mismatch_block16`) that the
/// exhaustive nearest-mode scan (AssignNearestModes) runs on.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "clustering/types.h"
#include "data/categorical_dataset.h"
#include "simd/kernel_table.h"
#include "util/rng.h"

namespace lshclust {

namespace internal {

/// One slot of the mode update's code-count hash table; empty when
/// `count` is 0.
struct CodeCount {
  uint32_t code = 0;
  uint32_t count = 0;
};

}  // namespace internal

/// \brief Owns the k x m mode matrix and recomputes it from an assignment.
class ModeTable {
 public:
  /// \param num_clusters k
  /// \param num_attributes m
  ModeTable(uint32_t num_clusters, uint32_t num_attributes);

  /// k.
  uint32_t num_clusters() const { return num_clusters_; }
  /// m.
  uint32_t num_attributes() const { return num_attributes_; }

  /// The mode of `cluster`, length m.
  std::span<const uint32_t> Mode(uint32_t cluster) const {
    LSHC_DCHECK(cluster < num_clusters_) << "cluster index out of range";
    return {codes_.data() + static_cast<size_t>(cluster) * num_attributes_,
            num_attributes_};
  }

  /// Raw pointer to the mode of `cluster` (hot path).
  const uint32_t* ModeData(uint32_t cluster) const {
    return codes_.data() + static_cast<size_t>(cluster) * num_attributes_;
  }

  /// Sets the mode of `cluster` to the codes of a dataset row (seeding).
  void SetModeFromItem(uint32_t cluster, const CategoricalDataset& dataset,
                       uint32_t item);

  /// Overwrites one component of a mode (used by incremental maintainers
  /// such as core/streaming.h).
  void SetModeCode(uint32_t cluster, uint32_t attribute, uint32_t code) {
    LSHC_DCHECK(cluster < num_clusters_ && attribute < num_attributes_);
    codes_[static_cast<size_t>(cluster) * num_attributes_ + attribute] = code;
  }

  /// Recomputes every non-empty cluster's mode as the per-attribute
  /// majority code of its members. Empty clusters follow `policy`:
  /// kKeepPreviousMode leaves their row untouched, kReseedRandomItem copies
  /// a random item drawn from `rng`.
  ///
  /// \param dataset the items
  /// \param assignment item -> cluster, size n, all entries < k
  /// \param policy empty-cluster handling
  /// \param rng used only by kReseedRandomItem
  void RecomputeFromAssignment(const CategoricalDataset& dataset,
                               std::span<const uint32_t> assignment,
                               EmptyClusterPolicy policy, Rng& rng);

  /// Number of members per cluster after the last Recompute (size k).
  const std::vector<uint32_t>& cluster_sizes() const { return sizes_; }

 private:
  /// Buffers reused across recomputes so steady-state updates do not
  /// allocate. They hold no state between calls, so a copied table (a
  /// published snapshot, say) starts with empty ones instead of paying
  /// for an n-sized copy.
  struct UpdateScratch {
    UpdateScratch() = default;
    UpdateScratch(const UpdateScratch&) {}
    UpdateScratch& operator=(const UpdateScratch&) { return *this; }
    UpdateScratch(UpdateScratch&&) = default;
    UpdateScratch& operator=(UpdateScratch&&) = default;

    /// Members of cluster c are order[offsets[c] .. offsets[c + 1]).
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> order;
    /// One attribute's member codes of the cluster being updated, the
    /// table slot each was counted in, and the (all-empty) count table.
    std::vector<uint32_t> column;
    std::vector<uint32_t> slot_of;
    std::vector<internal::CodeCount> table;
  };

  uint32_t num_clusters_;
  uint32_t num_attributes_;
  std::vector<uint32_t> codes_;  // row-major k x m
  std::vector<uint32_t> sizes_;
  UpdateScratch scratch_;
};

/// \brief The modes of a ModeTable copied into 16-cluster blocks, each
/// stored attribute-major (`Block(b)[j * 16 + lane]` is attribute j of
/// cluster 16 * b + lane). Lanes past k in the last block are padding and
/// excluded by LaneMask. An exhaustive pass builds it once (k * m word
/// copies) and its workers share it read-only; it is never stored with the
/// modes, so snapshots and model files stay one copy.
class BlockedModes {
 public:
  static constexpr uint32_t kLanes = simd::kModeBlockLanes;

  /// Re-blocks `modes`, reusing the storage when the shape is unchanged.
  void Build(const ModeTable& modes);

  uint32_t num_blocks() const { return num_blocks_; }

  /// The m x 16 codes of block `block`, 64-byte aligned as built.
  const uint32_t* Block(uint32_t block) const {
    return storage_.data() + offset_ +
           static_cast<size_t>(block) * num_attributes_ * kLanes;
  }

  /// Bit `lane` set iff lane `lane` of block `block` is a real cluster.
  uint32_t LaneMask(uint32_t block) const {
    const uint32_t lanes =
        std::min(kLanes, num_clusters_ - block * kLanes);
    return lanes == kLanes ? 0xFFFFu : (1u << lanes) - 1;
  }

 private:
  uint32_t num_clusters_ = 0;
  uint32_t num_attributes_ = 0;
  uint32_t num_blocks_ = 0;
  /// Blocks start offset_ words into storage_, on a 64-byte boundary.
  std::vector<uint32_t> storage_;
  size_t offset_ = 0;
};

/// Exhaustive nearest-mode assignment of items [begin, end). Each item's
/// `assignment` entry is its seed cluster on entry and its nearest mode on
/// exit. The seed is scored first, then every cluster in ascending order
/// with strict improvement — exactly BestClusterExhaustive's argmin (ties
/// keep the seed, then the lowest id), for any early-exit setting, since
/// the block kernel's bound check never drops a lane that could win.
/// Items are scanned in tiles against one block at a time, so a block
/// stays in L1 while the tile's rows stream past it. Every item costs k
/// exact distances. Returns the number of items whose cluster changed.
uint64_t AssignNearestModes(const CategoricalDataset& dataset,
                            const ModeTable& modes,
                            const BlockedModes& blocked,
                            std::span<uint32_t> assignment, uint32_t begin,
                            uint32_t end);

}  // namespace lshclust
