#pragma once

/// \file shard_executor.h
/// \brief Dispatches the chunks of a ShardPlan to a worker pool (or runs
/// them in-line), preserving the determinism contract.
///
/// The chunk *decomposition* comes from the plan and never from the pool,
/// so which worker runs which chunk is the only thing thread timing can
/// change — callers that write per-chunk results into
/// ShardedAccumulator slots and keep their scratch per worker get
/// bit-identical passes for every pool size, including none.

#include <cstdint>

#include "shard/shard_plan.h"
#include "util/thread_pool.h"

namespace lshclust {

/// Runs `fn(chunk, global_chunk_index, worker_index)` for every chunk of
/// `plan`. With a pool, chunks are dispatched one per work unit across the
/// workers; without one they run in-line in global chunk order with
/// worker_index 0.
template <typename Fn>
void ForEachShardChunk(const ShardPlan& plan, ThreadPool* pool,
                       const Fn& fn) {
  const uint32_t num_chunks = plan.num_chunks();
  if (pool == nullptr) {
    for (uint32_t index = 0; index < num_chunks; ++index) {
      fn(plan.chunk(index), index, 0u);
    }
    return;
  }
  pool->ParallelFor(0, num_chunks, 1,
                    [&](uint32_t begin, uint32_t end, uint32_t worker) {
                      for (uint32_t index = begin; index < end; ++index) {
                        fn(plan.chunk(index), index, worker);
                      }
                    });
}

}  // namespace lshclust
