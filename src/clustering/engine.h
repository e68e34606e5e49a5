#pragma once

/// \file engine.h
/// \brief The unified centroid-clustering refinement engine, templated on
/// the dataset family (via traits) and the candidate provider.
///
/// The paper's framework changes exactly one thing about centroid-based
/// clustering: where the assignment step looks for candidate clusters.
/// Everything else — seeding, the initial exhaustive pass, centroid
/// updates, the convergence test, instrumentation — is shared. The engine
/// therefore factors along two axes:
///
///  * **Traits** describe the dataset family and its dissimilarity:
///    - CategoricalClusteringTraits (here): K-Modes, mismatch counts.
///    - NumericClusteringTraits (clustering/kmeans.h): K-Means, squared L2.
///    - MixedClusteringTraits (clustering/kprototypes.h): K-Prototypes,
///      mismatches + gamma * squared L2.
///  * **Provider** is the candidate policy:
///    - ExhaustiveProvider — every cluster is a candidate: the original
///      algorithm of the family.
///    - ShortlistProvider<Family> (core/shortlist_provider.h) — candidates
///      come from an LSH banding index: the paper's acceleration.
///
/// One engine body serves all six combinations (and more, e.g. the canopy
/// provider), which keeps the paper's efficiency comparisons honest: both
/// sides of every comparison run the same code except candidate
/// generation.
///
/// Phases, timed separately (see ClusteringResult):
///   1. init: seed selection, initial centroids = seed items.
///   2. initial assignment: one exhaustive pass (the paper performs this
///      for MH-K-Modes too, before the index exists — Alg. 2 step 2),
///      then the first centroid update. Exhaustive passes run through
///      AssignExhaustiveRange: K-Modes scans a pass-local blocked copy of
///      the modes 16 clusters per kernel call (AssignNearestModes), the
///      other families score each item with BestClusterExhaustive.
///   3. provider.Prepare(): signature computation + index build
///      (no-op for the baseline). Pool-aware providers receive the worker
///      pool and parallelize signing over items.
///   4. refinement iterations until no item moves or max_iterations.
///
/// ## Shard-aware batch-parallel assignment
///
/// The assignment step — the hot loop the whole paper is about — runs
/// through a two-level decomposition (src/shard/shard_plan.h): the item
/// space is partitioned into `EngineOptions::num_shards` contiguous
/// shards, each shard is cut into `EngineOptions::chunk_size`-item
/// chunks, and the chunks are dispatched to a small worker pool
/// (util/thread_pool.h) when EngineOptions::num_threads > 1. A shard is
/// the slice a future node / NUMA domain would own. Shards share the
/// provider's read-only query state (index, sketches, family) and each
/// worker owns one query scratch and shortlist buffer, so a query's only
/// mutable state is its worker's. Determinism is preserved by
/// construction — every (num_shards x num_threads) combination produces
/// bit-identical
/// assignments, costs and move counts, and `num_shards = 1` *is* the
/// historical flat decomposition, not an emulation of it:
///
///  * Candidate providers dereference a *snapshot* of the assignment taken
///    at the start of the pass (the cluster-reference store of §III-B,
///    frozen per iteration), so an item's shortlist never depends on how
///    many items before it already moved this pass. Each item writes only
///    its own assignment slot. The snapshot buffer is allocated once per
///    run and reused across refinement iterations.
///  * Per-chunk move/shortlist accumulators live in a ShardedAccumulator
///    and are merged in shard order (chunk order within the shard) after
///    the pass.
///  * Centroid updates — including empty-cluster repair — and cost
///    evaluation stay sequential: they are cheap (one scan) and their
///    floating-point summation and RNG draw order is part of the
///    reported numbers.
///
/// Providers that opt into parallel queries expose `MakeScratch()` and a
/// const `GetCandidates(item, assignment, scratch, out)` (the probe kernel
/// of core/shortlist_provider.h, seeded with the item's own cluster); every
/// shard queries the same `const Provider&`, and the engine gives each
/// worker its own scratch — scratch contents never influence results.
/// Every shortlist is scored by BestClusterOf, the scorer routed serving
/// shares (serving/routing.h). Legacy single-threaded providers (a
/// non-const 3-argument `GetCandidates`) still work — the engine detects
/// them and runs their passes sequentially on the live assignment array,
/// preserving their historical in-place semantics (the shard plan has no
/// observable effect there).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "clustering/dissimilarity.h"
#include "clustering/initializers.h"
#include "clustering/modes.h"
#include "clustering/types.h"
#include "data/categorical_dataset.h"
#include "shard/shard_executor.h"
#include "shard/shard_plan.h"
#include "shard/sharded_accumulator.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace lshclust {

/// \brief Options shared by every engine family (K-Modes, K-Means,
/// K-Prototypes and their LSH-accelerated variants).
struct EngineOptions {
  /// Number of clusters k.
  uint32_t num_clusters = 0;
  /// Refinement iteration cap (the paper caps Fig. 10 at 10).
  uint32_t max_iterations = 100;
  /// Empty-cluster handling during centroid updates.
  EmptyClusterPolicy empty_cluster_policy =
      EmptyClusterPolicy::kKeepPreviousMode;
  /// Initial centroid selection method (ignored when initial_seeds given;
  /// kHuang/kCao are categorical-only).
  InitMethod init_method = InitMethod::kRandom;
  /// Explicit seed items; the experiment harness draws these once and
  /// passes the same vector to every variant, as the paper does.
  std::vector<uint32_t> initial_seeds;
  /// Seed for the engine RNG (seed selection, empty-cluster reseeding).
  uint64_t seed = 42;
  /// Use the bounded early-exit distance kernel (ablation switch).
  bool early_exit = true;
  /// Evaluate the cost function after each iteration (Eq. 4 for K-Modes,
  /// inertia for K-Means, the mixed objective for K-Prototypes). Costs one
  /// extra n*m scan per iteration; switch off for pure timing.
  bool compute_cost = true;
  /// Worker threads for the batch-parallel assignment step and the
  /// provider's signature pass. 1 = run in-line on the calling thread
  /// (default); 0 = one per hardware thread. Any value produces
  /// bit-identical results.
  uint32_t num_threads = 1;
  /// Item-space shards of the two-level (shard -> chunk) decomposition.
  /// Each shard owns a contiguous item slice; all shards query the same
  /// read-only provider through per-worker scratch. Must be
  /// >= 1; any value produces bit-identical results (1 = the historical
  /// flat decomposition). Values above the flat chunk count
  /// (ceil(n / chunk_size)) are clamped to it — the excess shards could
  /// not own a whole work unit anyway.
  uint32_t num_shards = 1;
  /// Items per work unit of the parallel assignment step, within a shard.
  /// Must be >= 1. Never derived from the thread count, so the chunk
  /// decomposition — and with it all per-chunk bookkeeping — is identical
  /// for every num_threads; any value produces bit-identical results
  /// (tuning knob for the NUMA/chunk-size study).
  uint32_t chunk_size = 1024;
  /// Invoked after every refinement iteration with that iteration's stats
  /// (the same record appended to ClusteringResult::iterations, cost
  /// included when compute_cost is set). Runs on the calling thread,
  /// outside the iteration clock; keep it cheap. Null = no reporting.
  std::function<void(const IterationStats&)> progress;
  /// Cooperative cancellation hook: polled between refinement iterations,
  /// at shard-chunk boundaries inside every assignment pass, and at
  /// signing-batch boundaries inside the provider's Prepare (cancel-aware
  /// providers; the signature + index-build phase is the most expensive
  /// pre-iteration work); return true to stop the run. An interrupted
  /// pass is rolled back — and an interrupted Prepare installs no index —
  /// so the engine returns the state after the last completed iteration
  /// with ClusteringResult::cancelled set. May be called concurrently
  /// from worker threads — it must be thread-safe (an atomic flag is the
  /// typical implementation). Null = never cancelled.
  std::function<bool()> cancel;
};

/// Validates the dataset-independent EngineOptions invariants as a
/// returned Status — the front door (api/clusterer.h) and the CLI report
/// these as usage errors instead of aborting. Dataset-dependent checks
/// (k <= n, seed items in range) stay in ClusteringEngine::Run, which
/// re-checks these too, so direct engine callers keep the historical
/// behaviour.
[[nodiscard]] inline Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("num_clusters must be >= 1");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.chunk_size == 0) {
    return Status::InvalidArgument("chunk_size must be >= 1");
  }
  if (!options.initial_seeds.empty() &&
      options.initial_seeds.size() != options.num_clusters) {
    return Status::InvalidArgument(
        "initial_seeds has " + std::to_string(options.initial_seeds.size()) +
        " entries, expected k=" + std::to_string(options.num_clusters));
  }
  return Status::OK();
}

/// Best cluster for `item` scanning every cluster — the family's exact
/// argmin semantics: `seed_cluster` is evaluated exactly first (so the
/// early-exit bound starts tight once the clustering stabilises) and
/// skipped in the scan; strict improvement decides, so ties keep the
/// lowest-index candidate. This is the contract of every exhaustive scan:
/// the engine's exhaustive passes and the facade's Predict run it through
/// AssignExhaustiveRange, whose K-Modes scan (AssignNearestModes)
/// reproduces this argmin block by block, and the routed fallback of
/// serving/routing.h calls it per query.
template <typename Traits, bool EarlyExit>
uint32_t BestClusterExhaustive(const typename Traits::Dataset& dataset,
                               const typename Traits::Centroids& centroids,
                               const typename Traits::Options& options,
                               uint32_t item, uint32_t seed_cluster,
                               uint32_t k) {
  uint32_t best_cluster = seed_cluster;
  typename Traits::DistanceType best_distance =
      Traits::template ComputeDistance<false>(dataset, centroids, options,
                                              item, seed_cluster,
                                              Traits::kInfiniteDistance);
  for (uint32_t cluster = 0; cluster < k; ++cluster) {
    if (cluster == seed_cluster) continue;
    const typename Traits::DistanceType distance =
        Traits::template ComputeDistance<EarlyExit>(
            dataset, centroids, options, item, cluster, best_distance);
    if (distance < best_distance) {
      best_distance = distance;
      best_cluster = cluster;
    }
  }
  return best_cluster;
}

/// Best cluster for `item` among a non-empty `shortlist`, scored in order:
/// the first entry exactly (ComputeDistance<false>), the rest with
/// ComputeDistance<EarlyExit> bounded by the best so far; strict
/// improvement decides, so ties keep the earliest entry. The engine's
/// refinement passes (shortlist front = the item's current cluster) and
/// routed serving (shortlist sorted ascending, Predict's lowest-id tie
/// rule) share this one scorer.
template <typename Traits, bool EarlyExit>
uint32_t BestClusterOf(const typename Traits::Dataset& dataset,
                       const typename Traits::Centroids& centroids,
                       const typename Traits::Options& options, uint32_t item,
                       std::span<const uint32_t> shortlist) {
  LSHC_DCHECK(!shortlist.empty()) << "BestClusterOf needs a candidate";
  uint32_t best_cluster = shortlist.front();
  typename Traits::DistanceType best_distance =
      Traits::template ComputeDistance<false>(dataset, centroids, options,
                                              item, best_cluster,
                                              Traits::kInfiniteDistance);
  for (size_t i = 1; i < shortlist.size(); ++i) {
    const uint32_t cluster = shortlist[i];
    const typename Traits::DistanceType distance =
        Traits::template ComputeDistance<EarlyExit>(
            dataset, centroids, options, item, cluster, best_distance);
    if (distance < best_distance) {
      best_distance = distance;
      best_cluster = cluster;
    }
  }
  return best_cluster;
}

namespace internal {

/// The exhaustive view of traits without their own scan: nothing to build.
struct NoExhaustiveView {
  template <typename Centroids>
  void Build(const Centroids&) {}
};

template <typename Traits>
struct ExhaustiveViewType {
  using type = NoExhaustiveView;
};
template <typename Traits>
  requires requires { typename Traits::ExhaustiveView; }
struct ExhaustiveViewType<Traits> {
  using type = typename Traits::ExhaustiveView;
};

}  // namespace internal

/// Pass-local state of an exhaustive scan, rebuilt from the centroids by
/// `view.Build(centroids)` once per pass: the traits' ExhaustiveView when
/// they declare one (K-Modes: BlockedModes), else an empty no-op view.
template <typename Traits>
using ExhaustiveView = typename internal::ExhaustiveViewType<Traits>::type;

/// Exhaustive nearest-centroid assignment of items [begin, end): each
/// item's `assignment` entry is its seed cluster on entry and the
/// BestClusterExhaustive argmin on exit. K-Modes (traits whose
/// ExhaustiveView is BlockedModes) runs the blocked scan
/// AssignNearestModes, which reproduces that argmin for either EarlyExit;
/// the other families run BestClusterExhaustive per item. Returns the
/// number of items whose cluster changed.
template <typename Traits, bool EarlyExit>
uint64_t AssignExhaustiveRange(const typename Traits::Dataset& dataset,
                               const typename Traits::Centroids& centroids,
                               const ExhaustiveView<Traits>& view,
                               const typename Traits::Options& options,
                               std::span<uint32_t> assignment, uint32_t begin,
                               uint32_t end) {
  if constexpr (requires { typename Traits::ExhaustiveView; }) {
    return AssignNearestModes(dataset, centroids, view, assignment, begin,
                              end);
  } else {
    uint64_t moves = 0;
    for (uint32_t item = begin; item < end; ++item) {
      const uint32_t seed_cluster = assignment[item];
      const uint32_t best = BestClusterExhaustive<Traits, EarlyExit>(
          dataset, centroids, options, item, seed_cluster,
          options.num_clusters);
      if (best != seed_cluster) {
        assignment[item] = best;
        ++moves;
      }
    }
    return moves;
  }
}

/// \brief Candidate provider that enumerates every cluster — plugging this
/// into the engine yields the family's original algorithm. One struct
/// serves all dataset families (Prepare is a template; the engine never
/// queries candidates on the exhaustive path).
struct ExhaustiveProvider {
  /// Tells the engine to scan all k clusters without materialising lists.
  static constexpr bool kExhaustive = true;

  /// Nothing to build.
  template <typename Dataset>
  [[nodiscard]] Status Prepare(const Dataset&) {
    return Status::OK();
  }
};

/// \brief Dissimilarity/centroid traits for categorical data (K-Modes).
struct CategoricalClusteringTraits {
  using Dataset = CategoricalDataset;
  using Options = EngineOptions;
  using DistanceType = uint32_t;
  using Centroids = ModeTable;

  /// Bound that never triggers an early exit (mismatches <= m << 2^32).
  static constexpr DistanceType kInfiniteDistance = ~0u;

  [[nodiscard]] static Status ValidateOptions(const Dataset&, const Options&) {
    return Status::OK();
  }

  static Result<std::vector<uint32_t>> SelectSeedItems(const Dataset& dataset,
                                                       const Options& options,
                                                       Rng& rng) {
    return SelectSeeds(dataset, options.num_clusters, options.init_method,
                       rng);
  }

  static Centroids MakeCentroids(const Dataset& dataset,
                                 const Options& options) {
    return ModeTable(options.num_clusters, dataset.num_attributes());
  }

  static void SeedCentroid(Centroids& modes, uint32_t cluster,
                           const Dataset& dataset, uint32_t item) {
    modes.SetModeFromItem(cluster, dataset, item);
  }

  /// Mismatch count of item vs mode. EarlyExit selects the bounded
  /// blockwise kernel (shortlist scoring and the routed fallback); the
  /// plain kernel is kept distinct so the ablation bench's per-item argmin
  /// measures exactly the kernels it names.
  template <bool EarlyExit>
  static DistanceType ComputeDistance(const Dataset& dataset,
                                      const Centroids& modes, const Options&,
                                      uint32_t item, uint32_t cluster,
                                      DistanceType bound) {
    if constexpr (EarlyExit) {
      return BoundedMismatchDistance(dataset.Row(item).data(),
                                     modes.ModeData(cluster),
                                     dataset.num_attributes(), bound);
    } else {
      return MismatchDistance(dataset.Row(item), modes.Mode(cluster));
    }
  }

  /// Exhaustive passes scan a pass-local blocked copy of the modes
  /// (AssignExhaustiveRange -> AssignNearestModes).
  using ExhaustiveView = BlockedModes;

  static void UpdateCentroids(const Dataset& dataset, Centroids& modes,
                              std::span<const uint32_t> assignment,
                              const Options& options, Rng& rng) {
    modes.RecomputeFromAssignment(dataset, assignment,
                                  options.empty_cluster_policy, rng);
  }

  /// Cost P(W, Q) (Eq. 4): summed mismatch of every item to its mode.
  static double ComputeCost(const Dataset& dataset, const Centroids& modes,
                            const Options&,
                            std::span<const uint32_t> assignment) {
    double cost = 0;
    for (uint32_t item = 0; item < dataset.num_items(); ++item) {
      cost +=
          MismatchDistance(dataset.Row(item), modes.Mode(assignment[item]));
    }
    return cost;
  }
};

namespace internal {

/// Scratch type of a provider: providers that support parallel queries
/// expose MakeScratch(); everything else gets an empty placeholder.
template <typename Provider>
struct ProviderScratch {
  struct None {};
  using type = None;
};
template <typename Provider>
  requires requires(const Provider& p) { p.MakeScratch(); }
struct ProviderScratch<Provider> {
  using type = decltype(std::declval<const Provider&>().MakeScratch());
};

}  // namespace internal

/// \brief The unified refinement engine. See the file comment.
template <typename Traits, typename Provider>
class ClusteringEngine {
 public:
  using Dataset = typename Traits::Dataset;
  using Options = typename Traits::Options;
  using DistanceType = typename Traits::DistanceType;
  using Centroids = typename Traits::Centroids;

  /// Runs the full procedure with candidate clusters supplied by
  /// `provider`.
  ///
  /// \param dataset items to cluster
  /// \param options engine options; num_clusters must be in [1, n]
  /// \param provider candidate policy (ExhaustiveProvider for baselines)
  /// \param final_centroids when non-null, receives the centroids as of
  ///        the last completed centroid update (the model the facade's
  ///        Predict assigns out-of-sample items against)
  /// \return per-iteration instrumentation and the final assignment
  static Result<ClusteringResult> Run(const Dataset& dataset,
                                      const Options& options,
                                      Provider& provider,
                                      Centroids* final_centroids = nullptr) {
    const uint32_t n = dataset.num_items();
    const uint32_t k = options.num_clusters;
    if (n == 0) return Status::InvalidArgument("dataset is empty");
    if (k == 0 || k > n) {
      return Status::InvalidArgument(
          "num_clusters must be in [1, n]; got k=" + std::to_string(k) +
          " with n=" + std::to_string(n));
    }
    if (options.num_shards == 0) {
      return Status::InvalidArgument("num_shards must be >= 1");
    }
    if (options.chunk_size == 0) {
      return Status::InvalidArgument("chunk_size must be >= 1");
    }
    LSHC_RETURN_NOT_OK(Traits::ValidateOptions(dataset, options));

    ClusteringResult result;
    Rng rng(options.seed);
    Stopwatch total_watch;

    // Phase 1: seeds -> initial centroids.
    Stopwatch phase_watch;
    std::vector<uint32_t> seeds = options.initial_seeds;
    if (seeds.empty()) {
      LSHC_ASSIGN_OR_RETURN(seeds,
                            Traits::SelectSeedItems(dataset, options, rng));
    } else if (seeds.size() != k) {
      return Status::InvalidArgument(
          "initial_seeds has " + std::to_string(seeds.size()) +
          " entries, expected k=" + std::to_string(k));
    }
    for (const uint32_t seed_item : seeds) {
      if (seed_item >= n) {
        return Status::OutOfRange("seed item " + std::to_string(seed_item) +
                                  " out of range");
      }
    }
    Centroids centroids = Traits::MakeCentroids(dataset, options);
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      Traits::SeedCentroid(centroids, cluster, dataset, seeds[cluster]);
    }
    result.init_seconds = phase_watch.ElapsedSeconds();

    // Worker pool shared by every pass of this run. Legacy providers
    // cannot be queried concurrently, so their shortlist passes run
    // sequentially either way; the exhaustive passes still parallelise.
    const uint32_t num_threads = ResolveThreadCount(options.num_threads);
    std::optional<ThreadPool> pool_storage;
    ThreadPool* pool = nullptr;
    if (num_threads > 1) {
      pool_storage.emplace(num_threads);
      pool = &*pool_storage;
    }

    // The two-level decomposition of this run's item space, and the
    // per-chunk accumulator storage every pass merges in shard order.
    // Both are pure functions of (n, num_shards, chunk_size), never of
    // the pool, which is what keeps every (shards x threads) combination
    // bit-identical. Clamped() caps the shard count at the flat chunk
    // count, so per-shard state stays proportional to actual work units.
    const ShardPlan plan =
        ShardPlan::Clamped(n, options.num_shards, options.chunk_size);
    ShardedAccumulator<ChunkStats> accumulator;

    // Per-worker query state for parallel-capable shortlist providers
    // (see WorkerState); every shard queries the same const provider.
    [[maybe_unused]] std::vector<WorkerState> workers;
    if constexpr (!Provider::kExhaustive && kParallelProvider) {
      workers.resize(num_threads);
    }

    // Cooperative cancellation: one latch shared by every pass of the run.
    // Workers poll it at chunk boundaries; once any poll answers "stop",
    // the remaining chunks are skipped and the interrupted pass is rolled
    // back below, so the reported state is always a completed iteration's.
    std::atomic<bool> cancel_latch{false};
    const CancelPoll cancel{options.cancel ? &options.cancel : nullptr,
                            &cancel_latch};
    const auto finish_cancelled = [&](ClusteringResult&& partial) {
      partial.cancelled = true;
      partial.final_cost =
          partial.iterations.empty() ? 0.0 : partial.iterations.back().cost;
      partial.total_seconds = total_watch.ElapsedSeconds();
      if (final_centroids != nullptr) *final_centroids = std::move(centroids);
      return std::move(partial);
    };

    // Phase 2: initial exhaustive assignment + first centroid update.
    // Every item starts in cluster 0, the seed the first pass scores first.
    phase_watch.Restart();
    result.assignment.assign(n, 0);
    // Rebuilt from the current centroids by every exhaustive pass.
    ExhaustiveView<Traits> exhaustive_view;
    // Evaluations of this pass are deliberately not folded into
    // result.exact_distances_evaluated: the initial exhaustive assignment
    // is common to every method, so the counter tracks the refinement
    // phase, where the providers differ.
    uint64_t initial_evaluated = 0;
    DispatchEarlyExit(options.early_exit, [&](auto early_exit) {
      ExhaustivePass<early_exit.value>(dataset, centroids, exhaustive_view,
                                       options, result.assignment, plan, pool,
                                       accumulator, &initial_evaluated,
                                       cancel);
    });
    if (cancel.Latched()) {
      // The interrupted initial pass has no previous state to roll back
      // to — unprocessed chunks still hold the cluster-0 placeholder —
      // so report no assignment at all rather than a half-applied one.
      result.assignment.clear();
      return finish_cancelled(std::move(result));
    }
    Stopwatch update_watch;
    Traits::UpdateCentroids(dataset, centroids, result.assignment, options,
                            rng);
    result.centroid_update_seconds = update_watch.ElapsedSeconds();
    result.initial_assign_seconds = phase_watch.ElapsedSeconds();
    // Fresh poll before the index build starts: the initial assignment is
    // complete and reportable, and Prepare is the next big work unit.
    if (cancel.Cancelled()) return finish_cancelled(std::move(result));

    // Phase 3: provider preparation (signatures + LSH index). Pool-aware
    // providers parallelize their signing pass over the same workers the
    // assignment step uses; others keep their historical signature.
    // Cancel-aware providers additionally poll the run's hook at
    // signing-batch boundaries — Prepare is the most expensive
    // pre-iteration phase, so a cancel landing here must not wait for the
    // first refinement pass. A Prepare stopped that way reports the same
    // rollback contract as any other cancel point: the state after the
    // completed initial assignment, with no (partial) index installed.
    phase_watch.Restart();
    const std::function<bool()> prepare_cancel = [&cancel] {
      return cancel.Cancelled();
    };
    const std::function<bool()>* prepare_cancel_hook =
        options.cancel ? &prepare_cancel : nullptr;
    Status prepare_status;
    if constexpr (requires {
                    provider.Prepare(dataset, pool, prepare_cancel_hook);
                  }) {
      prepare_status = provider.Prepare(dataset, pool, prepare_cancel_hook);
    } else if constexpr (requires { provider.Prepare(dataset, pool); }) {
      prepare_status = provider.Prepare(dataset, pool);
    } else {
      prepare_status = provider.Prepare(dataset);
    }
    result.index_build_seconds = phase_watch.ElapsedSeconds();
    if (prepare_status.IsCancelled()) {
      return finish_cancelled(std::move(result));
    }
    LSHC_RETURN_NOT_OK(prepare_status);
    if (cancel.Cancelled()) return finish_cancelled(std::move(result));

    // Phase 4: refinement until convergence. The per-pass assignment
    // snapshot is allocated once here and reused by every iteration; it
    // doubles as the rollback buffer for a cancelled pass, so cancellable
    // exhaustive runs keep one too.
    std::vector<uint32_t> snapshot;
    if constexpr (!Provider::kExhaustive && kParallelProvider) {
      snapshot.resize(n);
    } else {
      if (options.cancel) snapshot.resize(n);
    }
    [[maybe_unused]] std::vector<uint32_t> legacy_shortlist;
    for (uint32_t iteration = 1; iteration <= options.max_iterations;
         ++iteration) {
      if (cancel.Cancelled()) {
        result.cancelled = true;
        break;
      }
      phase_watch.Restart();
      uint64_t moves = 0;
      uint64_t shortlist_total = 0;
      uint64_t pass_evaluated = 0;
      uint64_t pass_pruned = 0;
      DispatchEarlyExit(options.early_exit, [&](auto early_exit) {
        constexpr bool kEarlyExit = early_exit.value;
        if constexpr (Provider::kExhaustive) {
          if (!snapshot.empty()) {
            std::copy(result.assignment.begin(), result.assignment.end(),
                      snapshot.begin());
          }
          moves = ExhaustivePass<kEarlyExit>(
              dataset, centroids, exhaustive_view, options,
              result.assignment, plan, pool, accumulator, &pass_evaluated,
              cancel);
          shortlist_total = static_cast<uint64_t>(n) * k;
        } else if constexpr (kParallelProvider) {
          // Freeze the cluster-reference store for this pass: queries see
          // the pre-pass assignment regardless of chunk order, which is
          // what makes the pass thread-count-invariant.
          std::copy(result.assignment.begin(), result.assignment.end(),
                    snapshot.begin());
          moves = ShortlistPass<kEarlyExit>(
              dataset, centroids, options, provider, snapshot,
              result.assignment, plan, pool, workers, accumulator,
              &shortlist_total, &pass_evaluated, &pass_pruned, cancel);
        } else {
          if (!snapshot.empty()) {
            std::copy(result.assignment.begin(), result.assignment.end(),
                      snapshot.begin());
          }
          moves = LegacyShortlistPass<kEarlyExit>(
              dataset, centroids, options, provider, result.assignment,
              legacy_shortlist, &shortlist_total, &pass_evaluated, cancel);
        }
      });
      if (cancel.Latched()) {
        // Some chunk poll answered "stop" mid-pass, so the pass is
        // half-applied: roll it back to the pre-pass assignment. (A hook
        // that first turns true after the pass completed is caught by
        // the next iteration-top poll instead — completed work is never
        // discarded.)
        std::copy(snapshot.begin(), snapshot.end(),
                  result.assignment.begin());
        result.cancelled = true;
        break;
      }
      // Counters are committed only for completed passes, matching the
      // rollback contract: a cancelled pass contributes no state at all.
      result.exact_distances_evaluated += pass_evaluated;
      result.exact_distances_pruned += pass_pruned;
      update_watch.Restart();
      Traits::UpdateCentroids(dataset, centroids, result.assignment, options,
                              rng);

      IterationStats stats;
      stats.update_seconds = update_watch.ElapsedSeconds();
      result.centroid_update_seconds += stats.update_seconds;
      stats.iteration = iteration;
      stats.moves = moves;
      stats.mean_shortlist =
          static_cast<double>(shortlist_total) / static_cast<double>(n);
      // The iteration clock stops before cost evaluation: the cost is
      // instrumentation, not part of any of the algorithms.
      stats.seconds = phase_watch.ElapsedSeconds();
      if (options.compute_cost) {
        stats.cost =
            Traits::ComputeCost(dataset, centroids, options,
                                result.assignment);
      }
      result.iterations.push_back(stats);
      if (options.progress) options.progress(stats);

      if (moves == 0) {
        result.converged = true;
        break;
      }
    }

    result.final_cost =
        result.iterations.empty() ? 0.0 : result.iterations.back().cost;
    result.total_seconds = total_watch.ElapsedSeconds();
    if (final_centroids != nullptr) *final_centroids = std::move(centroids);
    return result;
  }

 private:
  /// Polls the caller's cancellation hook, latching the first "stop"
  /// answer in an atomic so every worker observes it at its next chunk
  /// boundary without re-invoking the hook. A null hook never cancels and
  /// costs one branch per poll.
  struct CancelPoll {
    const std::function<bool()>* hook = nullptr;
    std::atomic<bool>* latch = nullptr;

    bool Cancelled() const {
      if (hook == nullptr) return false;
      if (latch->load(std::memory_order_relaxed)) return true;
      if ((*hook)()) {
        latch->store(true, std::memory_order_relaxed);
        return true;
      }
      return false;
    }

    /// True iff some earlier poll already answered "stop" — used after a
    /// pass to decide whether it was interrupted (chunks were skipped).
    /// Deliberately does NOT re-invoke the hook: a hook that first turns
    /// true after the pass's last chunk completed must not discard that
    /// completed pass; the fresh poll before the next work unit stops
    /// the run instead.
    bool Latched() const {
      return hook != nullptr && latch->load(std::memory_order_relaxed);
    }
  };

  /// True when the provider supports concurrent queries via per-worker
  /// scratch state.
  static constexpr bool kParallelProvider =
      requires(const Provider& p) { p.MakeScratch(); };

  using Scratch = typename internal::ProviderScratch<Provider>::type;

  /// One worker's query state (dedup stamps + shortlist buffer), indexed
  /// by the pool's stable worker id. The scratch is materialised lazily,
  /// on the worker's first chunk: scratch contents never influence results
  /// (queries epoch-reset them), so only workers that actually run pay the
  /// k-sized stamp arrays.
  struct WorkerState {
    std::optional<Scratch> scratch;
    std::vector<uint32_t> shortlist;
  };

  /// Per-chunk accumulator, merged in shard order after a pass (see
  /// shard/sharded_accumulator.h). Passes accumulate into locals and store
  /// here once per chunk: adjacent chunks' slots share cache lines.
  struct ChunkStats {
    uint64_t moves = 0;
    uint64_t shortlist = 0;
    uint64_t evaluated = 0;  ///< exact distance kernel invocations
    uint64_t pruned = 0;     ///< clusters dropped by the sketch prefilter
  };

  /// Hoists the early-exit switch out of the hot loops: a runtime branch
  /// per distance defeats vectorization of both kernels.
  template <typename Fn>
  static void DispatchEarlyExit(bool early_exit, Fn&& fn) {
    if (early_exit) {
      fn(std::bool_constant<true>{});
    } else {
      fn(std::bool_constant<false>{});
    }
  }

  /// Full exhaustive pass over the shard plan: every item is re-assigned
  /// from its current cluster as the seed. `view` is rebuilt from
  /// `centroids` first and then shared read-only by the workers. Each item
  /// touches only its own assignment slot, so in-place parallel writes are
  /// race-free and order-independent; per-chunk stats merge through the
  /// accumulator in shard order.
  template <bool EarlyExit>
  static uint64_t ExhaustivePass(const Dataset& dataset,
                                 const Centroids& centroids,
                                 ExhaustiveView<Traits>& view,
                                 const Options& options,
                                 std::span<uint32_t> assignment,
                                 const ShardPlan& plan, ThreadPool* pool,
                                 ShardedAccumulator<ChunkStats>& accumulator,
                                 uint64_t* evaluated,
                                 const CancelPoll& cancel) {
    view.Build(centroids);
    accumulator.Reset(plan);
    ForEachShardChunk(
        plan, pool,
        [&](const ShardPlan::Chunk& chunk, uint32_t index, uint32_t) {
          if (cancel.Cancelled()) return;
          ChunkStats* stats = accumulator.slot(index);
          stats->moves = AssignExhaustiveRange<Traits, EarlyExit>(
              dataset, centroids, view, options, assignment, chunk.begin,
              chunk.end);
          // Exactly k exact distances per item: the seed cluster once,
          // then the k-1 others.
          stats->evaluated =
              static_cast<uint64_t>(chunk.end - chunk.begin) *
              options.num_clusters;
        });
    uint64_t moves = 0;
    accumulator.MergeInOrder([&](const ChunkStats& stats) {
      moves += stats.moves;
      *evaluated += stats.evaluated;
    });
    return moves;
  }

  /// One shortlist chunk (parallel-capable providers): queries `provider`
  /// against the frozen `reference` snapshot, writes into the live
  /// assignment. Local accumulators, stored once (see ChunkStats).
  template <bool EarlyExit>
  static void ShortlistChunk(const Dataset& dataset,
                             const Centroids& centroids,
                             const Options& options, const Provider& provider,
                             std::span<const uint32_t> reference,
                             std::span<uint32_t> assignment, uint32_t begin,
                             uint32_t end, Scratch& scratch,
                             std::vector<uint32_t>& shortlist,
                             ChunkStats* stats) {
    uint64_t moves = 0;
    uint64_t shortlist_total = 0;
    uint64_t pruned_total = 0;
    for (uint32_t item = begin; item < end; ++item) {
      provider.GetCandidates(item, reference, scratch, &shortlist);
      // Every surviving shortlist entry gets one exact distance: the seed
      // cluster (always the shortlist's first entry) exactly once, the
      // rest in the scan.
      shortlist_total += shortlist.size();
      if constexpr (requires { scratch.last_pruned; }) {
        pruned_total += scratch.last_pruned;
      }
      const uint32_t seed_cluster = assignment[item];
      LSHC_DCHECK(shortlist.front() == seed_cluster)
          << "providers seed the shortlist with the item's own cluster";
      const uint32_t best = BestClusterOf<Traits, EarlyExit>(
          dataset, centroids, options, item, shortlist);
      if (best != seed_cluster) {
        assignment[item] = best;
        ++moves;
      }
    }
    stats->moves = moves;
    stats->shortlist = shortlist_total;
    stats->evaluated = shortlist_total;
    stats->pruned = pruned_total;
  }

  /// Full shortlist pass for parallel-capable providers: every chunk runs
  /// against the shared provider with its worker's scratch, and the
  /// per-chunk stats merge through the accumulator in shard order.
  template <bool EarlyExit>
  static uint64_t ShortlistPass(
      const Dataset& dataset, const Centroids& centroids,
      const Options& options, const Provider& provider,
      std::span<const uint32_t> reference, std::span<uint32_t> assignment,
      const ShardPlan& plan, ThreadPool* pool,
      std::vector<WorkerState>& workers,
      ShardedAccumulator<ChunkStats>& accumulator,
      uint64_t* shortlist_total, uint64_t* evaluated, uint64_t* pruned,
      const CancelPoll& cancel) {
    accumulator.Reset(plan);
    ForEachShardChunk(
        plan, pool,
        [&](const ShardPlan::Chunk& chunk, uint32_t index, uint32_t worker) {
          if (cancel.Cancelled()) return;
          // Lazy scratch materialisation is race-free: state `worker` is
          // only ever touched from that worker, and the vector was sized
          // up front (no reallocation).
          WorkerState& state = workers[worker];
          if (!state.scratch.has_value()) {
            state.scratch.emplace(provider.MakeScratch());
          }
          ShortlistChunk<EarlyExit>(dataset, centroids, options, provider,
                                    reference, assignment, chunk.begin,
                                    chunk.end, *state.scratch,
                                    state.shortlist, accumulator.slot(index));
        });
    uint64_t moves = 0;
    accumulator.MergeInOrder([&](const ChunkStats& stats) {
      moves += stats.moves;
      *shortlist_total += stats.shortlist;
      *evaluated += stats.evaluated;
      *pruned += stats.pruned;
    });
    return moves;
  }

  /// Sequential pass for legacy providers (non-const 3-argument
  /// GetCandidates): queries run in item order against the live
  /// assignment, preserving their historical in-place semantics.
  template <bool EarlyExit>
  static uint64_t LegacyShortlistPass(const Dataset& dataset,
                                      const Centroids& centroids,
                                      const Options& options,
                                      Provider& provider,
                                      std::span<uint32_t> assignment,
                                      std::vector<uint32_t>& shortlist,
                                      uint64_t* shortlist_total,
                                      uint64_t* evaluated,
                                      const CancelPoll& cancel) {
    const uint32_t n = dataset.num_items();
    uint64_t moves = 0;
    for (uint32_t item = 0; item < n; ++item) {
      // The sequential pass has no chunks; poll at the same granularity
      // the chunked passes would (the default chunk size).
      if ((item & 1023u) == 0 && cancel.Cancelled()) break;
      provider.GetCandidates(item, assignment, &shortlist);
      *shortlist_total += shortlist.size();
      *evaluated += shortlist.size();
      // Legacy providers owe no order: move the item's own cluster to the
      // front (entering it if absent) so BestClusterOf scores it first and
      // the rest in the provider's order.
      const uint32_t seed_cluster = assignment[item];
      const auto seed =
          std::find(shortlist.begin(), shortlist.end(), seed_cluster);
      if (seed == shortlist.end()) {
        shortlist.insert(shortlist.begin(), seed_cluster);
      } else {
        std::rotate(shortlist.begin(), seed, seed + 1);
      }
      const uint32_t best = BestClusterOf<Traits, EarlyExit>(
          dataset, centroids, options, item, shortlist);
      if (best != seed_cluster) {
        assignment[item] = best;
        ++moves;
      }
    }
    return moves;
  }
};

/// Runs the categorical (K-Modes) engine with candidate clusters supplied
/// by `provider` — kept as the historical entry point of direct engine
/// callers (the streaming bootstrap, tests and benches).
template <typename Provider>
Result<ClusteringResult> RunEngine(const CategoricalDataset& dataset,
                                   const EngineOptions& options,
                                   Provider& provider,
                                   ModeTable* final_modes = nullptr) {
  return ClusteringEngine<CategoricalClusteringTraits, Provider>::Run(
      dataset, options, provider, final_modes);
}

}  // namespace lshclust
