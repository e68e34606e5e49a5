#include "clustering/modes.h"

#include <algorithm>

#include "simd/dispatch.h"
#include "util/rng.h"

namespace lshclust {

namespace {

/// Majority code of `codes[0, count)`, smallest code on ties, counted in
/// `table`: open addressing over a power-of-two number of slots, at least
/// 2 * count, all empty (count 0) on entry and again on return. A code's
/// count only grows, so the running best (higher count, or equal count and
/// smaller code) ends as the smallest code of maximal count. `slot_of`
/// (count entries) remembers each code's slot for the reset.
uint32_t MajorityCode(const uint32_t* codes, uint32_t count,
                      std::span<internal::CodeCount> table,
                      uint32_t* slot_of) {
  const uint32_t mask = static_cast<uint32_t>(table.size()) - 1;
  uint32_t best_code = ~0u;
  uint32_t best_count = 0;
  for (uint32_t t = 0; t < count; ++t) {
    const uint32_t code = codes[t];
    uint32_t slot = static_cast<uint32_t>(Mix64(code)) & mask;
    while (table[slot].count != 0 && table[slot].code != code) {
      slot = (slot + 1) & mask;
    }
    table[slot].code = code;
    const uint32_t seen = ++table[slot].count;
    slot_of[t] = slot;
    if (seen > best_count || (seen == best_count && code < best_code)) {
      best_count = seen;
      best_code = code;
    }
  }
  for (uint32_t t = 0; t < count; ++t) table[slot_of[t]].count = 0;
  return best_code;
}

}  // namespace

ModeTable::ModeTable(uint32_t num_clusters, uint32_t num_attributes)
    : num_clusters_(num_clusters), num_attributes_(num_attributes) {
  LSHC_CHECK_GE(num_clusters, 1u) << "need at least one cluster";
  LSHC_CHECK_GE(num_attributes, 1u) << "need at least one attribute";
  codes_.resize(static_cast<size_t>(num_clusters) * num_attributes, 0);
  sizes_.resize(num_clusters, 0);
}

void ModeTable::SetModeFromItem(uint32_t cluster,
                                const CategoricalDataset& dataset,
                                uint32_t item) {
  LSHC_CHECK_LT(cluster, num_clusters_);
  LSHC_CHECK_EQ(dataset.num_attributes(), num_attributes_);
  const auto row = dataset.Row(item);
  std::copy(row.begin(), row.end(),
            codes_.begin() + static_cast<size_t>(cluster) * num_attributes_);
}

void ModeTable::RecomputeFromAssignment(const CategoricalDataset& dataset,
                                        std::span<const uint32_t> assignment,
                                        EmptyClusterPolicy policy, Rng& rng) {
  const uint32_t n = dataset.num_items();
  const uint32_t m = num_attributes_;
  const uint32_t k = num_clusters_;
  LSHC_CHECK_EQ(assignment.size(), static_cast<size_t>(n))
      << "assignment must map every item";
  LSHC_CHECK_EQ(dataset.num_attributes(), m);

  std::fill(sizes_.begin(), sizes_.end(), 0);
  uint32_t largest = 0;
  for (const uint32_t cluster : assignment) {
    LSHC_DCHECK(cluster < k) << "assignment out of range";
    largest = std::max(largest, ++sizes_[cluster]);
  }

  // Counting sort of the items by cluster. offsets[c + 1] starts as the
  // first slot of cluster c and advances as its members are placed, so it
  // ends as the first slot of cluster c + 1.
  std::vector<uint32_t>& offsets = scratch_.offsets;
  std::vector<uint32_t>& order = scratch_.order;
  offsets.assign(static_cast<size_t>(k) + 1, 0);
  for (uint32_t cluster = 0; cluster + 1 < k; ++cluster) {
    offsets[cluster + 2] = offsets[cluster + 1] + sizes_[cluster];
  }
  order.resize(n);
  for (uint32_t item = 0; item < n; ++item) {
    order[offsets[assignment[item] + 1]++] = item;
  }

  // Per cluster and attribute, gather the member codes into `column` and
  // count them in a hash table of at least twice the largest cluster's
  // size (MajorityCode).
  std::vector<uint32_t>& column = scratch_.column;
  std::vector<uint32_t>& slot_of = scratch_.slot_of;
  std::vector<internal::CodeCount>& table = scratch_.table;
  column.resize(largest);
  slot_of.resize(largest);
  size_t slots = 1;
  while (slots < 2 * static_cast<size_t>(largest)) slots *= 2;
  table.assign(slots, internal::CodeCount{});
  const uint32_t* codes = dataset.codes().data();
  for (uint32_t cluster = 0; cluster < k; ++cluster) {
    const uint32_t* members = order.data() + offsets[cluster];
    const uint32_t size = sizes_[cluster];
    if (size == 0) continue;
    uint32_t* mode = codes_.data() + static_cast<size_t>(cluster) * m;
    for (uint32_t attribute = 0; attribute < m; ++attribute) {
      for (uint32_t t = 0; t < size; ++t) {
        column[t] = codes[static_cast<size_t>(members[t]) * m + attribute];
      }
      mode[attribute] =
          MajorityCode(column.data(), size, table, slot_of.data());
    }
  }

  if (policy == EmptyClusterPolicy::kReseedRandomItem && n > 0) {
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      if (sizes_[cluster] == 0) {
        const uint32_t item = static_cast<uint32_t>(rng.Below(n));
        SetModeFromItem(cluster, dataset, item);
      }
    }
  }
}

void BlockedModes::Build(const ModeTable& modes) {
  num_clusters_ = modes.num_clusters();
  num_attributes_ = modes.num_attributes();
  num_blocks_ = (num_clusters_ + kLanes - 1) / kLanes;
  // One extra block row of slack lets the blocks start on a 64-byte
  // boundary, so every 16-code block row is a single cache line.
  const size_t words =
      static_cast<size_t>(num_blocks_) * num_attributes_ * kLanes;
  storage_.resize(words + kLanes);
  const uintptr_t address = reinterpret_cast<uintptr_t>(storage_.data());
  offset_ = ((64 - address % 64) % 64) / sizeof(uint32_t);
  for (uint32_t block = 0; block < num_blocks_; ++block) {
    uint32_t* out = storage_.data() + offset_ +
                    static_cast<size_t>(block) * num_attributes_ * kLanes;
    for (uint32_t lane = 0; lane < kLanes; ++lane) {
      const uint32_t cluster = block * kLanes + lane;
      if (cluster < num_clusters_) {
        const uint32_t* mode = modes.ModeData(cluster);
        for (uint32_t j = 0; j < num_attributes_; ++j) {
          out[static_cast<size_t>(j) * kLanes + lane] = mode[j];
        }
      } else {
        for (uint32_t j = 0; j < num_attributes_; ++j) {
          out[static_cast<size_t>(j) * kLanes + lane] = 0;
        }
      }
    }
  }
}

uint64_t AssignNearestModes(const CategoricalDataset& dataset,
                            const ModeTable& modes,
                            const BlockedModes& blocked,
                            std::span<uint32_t> assignment, uint32_t begin,
                            uint32_t end) {
  // 32 rows of a 100-attribute dataset (12.8 KB) plus one block (6.4 KB)
  // fit L1 together.
  constexpr uint32_t kTile = 32;
  const simd::KernelTable& kernels = simd::ActiveKernels();
  const uint32_t m = dataset.num_attributes();
  const uint32_t num_blocks = blocked.num_blocks();
  alignas(64) uint32_t counts[BlockedModes::kLanes];
  uint32_t best_distance[kTile];
  uint32_t best_cluster[kTile];
  uint64_t moves = 0;
  for (uint32_t tile = begin; tile < end; tile += kTile) {
    const uint32_t tile_size = std::min(kTile, end - tile);
    for (uint32_t i = 0; i < tile_size; ++i) {
      const uint32_t seed = assignment[tile + i];
      best_cluster[i] = seed;
      best_distance[i] =
          kernels.mismatch(dataset.Row(tile + i).data(), modes.ModeData(seed),
                           m);
    }
    for (uint32_t block = 0; block < num_blocks; ++block) {
      const uint32_t* modes_block = blocked.Block(block);
      const uint32_t lane_mask = blocked.LaneMask(block);
      for (uint32_t i = 0; i < tile_size; ++i) {
        uint32_t below = kernels.mismatch_block16(
                             dataset.Row(tile + i).data(), modes_block, m,
                             best_distance[i], counts) &
                         lane_mask;
        // Lanes in ascending cluster order; the running best can only
        // tighten within the block, so re-test each against it.
        while (below != 0) {
          const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(below));
          below &= below - 1;
          if (counts[lane] < best_distance[i]) {
            best_distance[i] = counts[lane];
            best_cluster[i] = block * BlockedModes::kLanes + lane;
          }
        }
      }
    }
    for (uint32_t i = 0; i < tile_size; ++i) {
      if (best_cluster[i] != assignment[tile + i]) {
        assignment[tile + i] = best_cluster[i];
        ++moves;
      }
    }
  }
  return moves;
}

}  // namespace lshclust
