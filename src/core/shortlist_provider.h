#pragma once

/// \file shortlist_provider.h
/// \brief The generic LSH cluster-shortlist provider — the heart of the
/// paper (Algorithm 2), templated on the hash family.
///
/// All three LSH accelerations (MH-K-Modes, LSH-K-Means,
/// LSH-K-Prototypes) are this one class instantiated with a different
/// signature family:
///
///  * MinHashShortlistFamily (core/cluster_shortlist_index.h) — Jaccard
///    over present tokens, categorical data.
///  * SimHashShortlistFamily (core/simhash_shortlist_index.h) — angular
///    similarity, numeric data.
///  * MixedShortlistFamily (core/mixed_shortlist_index.h) — concatenated
///    MinHash + SimHash signatures over a heterogeneous band layout,
///    mixed data.
///
/// Lifecycle, following §III-B exactly:
///  1. After the initial assignment, one pass over the dataset computes a
///     signature per item (family-specific) and builds the banding index.
///     Items never change, so this happens once.
///  2. During refinement, an item's query walks its own buckets (it was
///     inserted, so the buckets are known — no re-hashing), collects the
///     co-bucketed items, and dereferences their cluster through the
///     `assignment` span the caller passes. The deduplicated cluster set
///     is the shortlist.
///  3. "Updating the index after a move" is writing assignment[item] — an
///     assignment array is the cluster reference store, which is why
///     updates are "a fast operation ... merely update the item's cluster
///     that is stored via a reference or pointer" (§III-B). Note the
///     unified engine passes a snapshot of the assignment taken at the
///     start of each refinement pass (moves become visible to queries at
///     the *next* pass, not mid-pass) — that is what makes its
///     batch-parallel assignment deterministic for every thread count;
///     see clustering/engine.h.
///
/// The item always shares its buckets with itself, so the shortlist always
/// contains its current cluster and is never empty.
///
/// Queries are const and take an explicit Scratch, so the engine can run
/// them from many worker threads at once (one scratch per worker); the
/// scratch-less overload uses a provider-owned scratch for sequential
/// callers.
///
/// Every shortlist in the library — engine refinement here and in the
/// canopy provider, external queries, streaming ingest and routed serving
/// (serving/routing.h) — is built by the one probe kernel below,
/// CollectShortlist: walk the peers, map each to its cluster, deduplicate,
/// optionally sketch-screen.
///
/// The family concept:
/// \code
///   struct SomeFamily {
///     using Dataset = ...;                       // what gets indexed
///     using Options = ...;                       // index configuration
///     explicit SomeFamily(const Options&);
///     // Row-major n x signature_width() matrix of signature components.
///     // Signing is pure per item, so families fan the loop out across
///     // `pool` when one is given (nullptr = sequential) — results are
///     // bit-identical either way. Families may accept a trailing
///     // `const std::function<bool()>* cancel` and poll it at batch
///     // boundaries, returning kCancelled (Prepare forwards the engine's
///     // cooperative-cancel hook to such families).
///     Status ComputeSignatures(const Dataset&, std::vector<uint64_t>*,
///                              ThreadPool* pool);
///     // Rows per band, concatenated over the signature.
///     std::vector<uint32_t> BandLayout() const;
///     uint32_t signature_width() const;
///     bool keep_signatures() const;              // retain the matrix?
///     uint64_t MemoryUsageBytes() const;         // hasher footprint
///   };
/// \endcode
/// Families may additionally expose ComputeQuerySignature(query, out) for
/// external (non-indexed) queries; see GetCandidatesForQuery.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "lsh/banded_index.h"
#include "lsh/bit_sketch.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace lshclust {

/// Items per ParallelFor unit of a parallel signing pass. Fixed (never
/// derived from the thread count) so the decomposition is identical for
/// every pool size; smaller than the engine's assignment chunk because a
/// signature costs far more than a distance.
inline constexpr uint32_t kSignatureChunkSize = 256;

/// \brief Per-caller query state for epoch-stamped cluster deduplication:
/// no per-query allocation, O(1) reset. Shared by every shortlist-style
/// provider (LSH families here, canopies in core/canopy_shortlist_index.h);
/// the engine makes one per worker thread.
struct ClusterDedupScratch {
  std::vector<uint32_t> cluster_stamp;
  /// Second stamp plane for the sketch prefilter: marks clusters that have
  /// so far only been seen through screened-out peers. A cluster counts as
  /// pruned only if *every* peer that would have proposed it failed the
  /// screen (a later surviving peer "resurrects" it).
  std::vector<uint32_t> pruned_stamp;
  uint32_t epoch = 0;
  /// Clusters fully pruned by the sketch screen in the most recent query
  /// through this scratch (0 when screening is off).
  uint64_t last_pruned = 0;
};

/// Returns a scratch sized for `num_clusters` clusters.
inline ClusterDedupScratch MakeClusterDedupScratch(uint32_t num_clusters) {
  ClusterDedupScratch scratch;
  scratch.cluster_stamp.assign(num_clusters, 0);
  scratch.pruned_stamp.assign(num_clusters, 0);
  return scratch;
}

/// Starts a new dedup epoch. After 2^32 queries the epoch counter wraps
/// into values the stamp arrays may still hold from earlier epochs, which
/// would make stale stamps read as "already seen" and silently drop
/// clusters from shortlists — so on wrap the stamps are cleared and the
/// epoch restarts at 1 (stamp 0 = "never stamped"). Every epoch bump in
/// the library must go through here.
inline void BumpDedupEpoch(ClusterDedupScratch& scratch) {
  if (++scratch.epoch == 0) {
    std::fill(scratch.cluster_stamp.begin(), scratch.cluster_stamp.end(), 0u);
    std::fill(scratch.pruned_stamp.begin(), scratch.pruned_stamp.end(), 0u);
    scratch.epoch = 1;
  }
}

/// CollectShortlist seed meaning "no seed": external queries have no own
/// cluster (no real cluster has this id).
inline constexpr uint32_t kNoSeedCluster = ~0u;

/// The unscreened CollectShortlist instantiation: every peer passes.
struct NoScreen {
  constexpr bool operator()(uint32_t /*peer*/) const { return true; }
};

/// Sketch prefilter screen: a peer passes iff the Hamming distance between
/// its packed sketch and the query's is at most `max_hamming`.
struct SketchScreen {
  const BitSketchTable& sketches;
  const uint64_t* query_sketch;  ///< sketches.words() packed words
  uint64_t max_hamming;

  bool operator()(uint32_t peer) const {
    return sketches.HammingTo(query_sketch, peer) <= max_hamming;
  }
};

/// The probe kernel (Alg. 2's shortlist step): collects into `out` the
/// deduplicated clusters (per `assignment`) of the peers `visit_peers`
/// enumerates, in first-seen order. `seed_cluster`, unless kNoSeedCluster,
/// is entered first and unconditionally — item queries pass the item's own
/// cluster, so their shortlist is never empty even for degenerate banding.
///
/// A peer for which `screen(peer)` is false does not propose its cluster;
/// peers of clusters already in `out` skip the screen (it could not change
/// anything). On return `scratch.last_pruned` counts the clusters whose
/// *every* proposing peer was screened out — exactly the clusters whose
/// exact distance evaluations were avoided (0 for NoScreen).
///
/// \param visit_peers callable invoked as visit_peers(sink) where sink is
///        a callable taking a peer item id; peers may repeat freely, and a
///        caller that must skip peers filters them here
template <typename VisitPeersFn, typename ScreenFn = NoScreen>
void CollectShortlist(VisitPeersFn&& visit_peers,
                      std::span<const uint32_t> assignment,
                      ClusterDedupScratch& scratch, std::vector<uint32_t>* out,
                      uint32_t seed_cluster = kNoSeedCluster,
                      ScreenFn screen = {}) {
  constexpr bool kScreened = !std::is_same_v<ScreenFn, NoScreen>;
  out->clear();
  BumpDedupEpoch(scratch);
  const uint32_t epoch = scratch.epoch;
  if (seed_cluster != kNoSeedCluster) {
    scratch.cluster_stamp[seed_cluster] = epoch;
    out->push_back(seed_cluster);
  }
  uint64_t pruned = 0;
  visit_peers([&](uint32_t peer) {
    const uint32_t cluster = assignment[peer];
    if (scratch.cluster_stamp[cluster] == epoch) return;
    if (!screen(peer)) {
      if constexpr (kScreened) {
        if (scratch.pruned_stamp[cluster] != epoch) {
          scratch.pruned_stamp[cluster] = epoch;
          ++pruned;
        }
      }
      return;
    }
    scratch.cluster_stamp[cluster] = epoch;
    out->push_back(cluster);
    if constexpr (kScreened) {
      if (scratch.pruned_stamp[cluster] == epoch) --pruned;
    }
  });
  scratch.last_pruned = pruned;
}

/// CollectShortlist screened against `sketches` when `query_sketch` is
/// non-null and unscreened otherwise: the runtime "is the prefilter on?"
/// switch, hoisted out of the peer loop.
template <typename VisitPeersFn>
void CollectShortlistSketched(VisitPeersFn&& visit_peers,
                              std::span<const uint32_t> assignment,
                              ClusterDedupScratch& scratch,
                              std::vector<uint32_t>* out,
                              uint32_t seed_cluster,
                              const BitSketchTable& sketches,
                              const uint64_t* query_sketch,
                              uint64_t max_hamming) {
  if (query_sketch == nullptr) {
    CollectShortlist(visit_peers, assignment, scratch, out, seed_cluster);
  } else {
    CollectShortlist(
        visit_peers, assignment, scratch, out, seed_cluster,
        SketchScreen{sketches, query_sketch, max_hamming});
  }
}

/// \brief Engine provider (see clustering/engine.h) producing LSH cluster
/// shortlists. Also usable standalone for any "candidate clusters of this
/// item" query.
template <typename Family>
class ShortlistProvider {
 public:
  using Dataset = typename Family::Dataset;
  using Options = typename Family::Options;

  /// \param options family/index configuration
  /// \param num_clusters k — shortlist entries are cluster ids < k
  ShortlistProvider(const Options& options, uint32_t num_clusters)
      : family_(options), num_clusters_(num_clusters) {
    LSHC_DCHECK(num_clusters >= 1) << "need at least one cluster";
    scratch_ = MakeScratch();
  }

  /// Reassembles a provider from persisted parts: a family whose hashers
  /// were already rebuilt from (options, seed), the dumped banded index,
  /// and the sketch table (empty when the fit ran unscreened). No signing
  /// pass runs — `dataset_sign_passes()` stays 0 on the result, which is
  /// how warm-start loaders prove the saved buckets were adopted verbatim
  /// rather than re-hashed. The caller is responsible for cross-checking
  /// index/family shape agreement (persist/model_io.cpp does).
  static ShortlistProvider FromParts(Family family, uint32_t num_clusters,
                                     std::unique_ptr<BandedIndex> index,
                                     BitSketchTable sketches,
                                     uint64_t sketch_max_hamming) {
    ShortlistProvider provider(std::move(family), num_clusters);
    provider.index_ = std::move(index);
    provider.sketches_ = std::move(sketches);
    provider.sketch_max_hamming_ = sketch_max_hamming;
    return provider;
  }

  /// Engine contract: shortlists instead of exhaustive scans.
  static constexpr bool kExhaustive = false;

  /// Per-caller query state (see ClusterDedupScratch).
  using Scratch = ClusterDedupScratch;

  /// A fresh scratch sized for this provider's cluster count.
  Scratch MakeScratch() const { return MakeClusterDedupScratch(num_clusters_); }

  /// Computes all signatures and builds the banding index (the one-time
  /// pass of Alg. 2). Called by the engine after the initial assignment.
  /// Signature computation is embarrassingly parallel over items, so when
  /// the engine hands over its worker pool the signing pass is chunked
  /// across it; the index build stays sequential. Bit-identical for every
  /// pool size including none.
  ///
  /// Cooperative cancellation: when `cancel` is non-null it is polled at
  /// signing-batch boundaries (every kSignatureChunkSize items, from
  /// whichever worker runs the batch — the hook must be thread-safe, same
  /// contract as EngineOptions::cancel) and again between the signing and
  /// index-build phases. A poll answering true aborts with
  /// StatusCode::kCancelled and leaves the provider index-less: any
  /// previous index is dropped on entry and the new one is only installed
  /// on success, so a cancelled Prepare can never leak a stale or partial
  /// index into diagnostics.
  [[nodiscard]] Status Prepare(const Dataset& dataset, ThreadPool* pool = nullptr,
                 const std::function<bool()>* cancel = nullptr) {
    const uint32_t n = dataset.num_items();
    if (n == 0) return Status::InvalidArgument("dataset is empty");

    // Either this Prepare completes and installs a fresh index, or the
    // provider ends up with none — never a half-built or stale one.
    index_.reset();
    signatures_.clear();

    Stopwatch watch;
    std::vector<uint64_t> signatures;
    if constexpr (requires {
                    family_.ComputeSignatures(dataset, &signatures, pool,
                                              cancel);
                  }) {
      LSHC_RETURN_NOT_OK(
          family_.ComputeSignatures(dataset, &signatures, pool, cancel));
    } else {
      if (cancel != nullptr && (*cancel)()) {
        return Status::Cancelled(
            "index preparation stopped by the cancellation hook before "
            "signature computation");
      }
      LSHC_RETURN_NOT_OK(family_.ComputeSignatures(dataset, &signatures,
                                                   pool));
    }
    ++dataset_sign_passes_;
    signature_seconds_ = watch.ElapsedSeconds();

    if (cancel != nullptr && (*cancel)()) {
      return Status::Cancelled(
          "index preparation stopped by the cancellation hook between "
          "signature computation and index construction");
    }

    watch.Restart();
    const std::vector<uint32_t> layout = family_.BandLayout();
    index_ = std::make_unique<BandedIndex>(signatures, n, layout);
    index_seconds_ = watch.ElapsedSeconds();

    // The sketch table packs the same signature matrix the index was just
    // built from — before a family that discards signatures lets go of it —
    // so enabling the prefilter never adds a signing pass.
    const SketchPrefilterOptions sketch = SketchOptions();
    if (sketch.enabled) {
      sketches_.Build(signatures, n, family_.signature_width());
      sketch_max_hamming_ =
          SketchHammingThreshold(sketch, family_.signature_width());
    } else {
      sketches_ = BitSketchTable();
    }

    if (family_.keep_signatures()) {
      signatures_ = std::move(signatures);
    }
    return Status::OK();
  }

  /// Fills `out` with the deduplicated candidate clusters of `item`:
  /// the clusters *currently* containing the items LSH considers similar
  /// to it, plus the item's own current cluster. Reads `assignment` as the
  /// cluster-reference store (the engine passes its per-pass snapshot).
  /// Thread-safe given a private `scratch`.
  void GetCandidates(uint32_t item, std::span<const uint32_t> assignment,
                     Scratch& scratch, std::vector<uint32_t>* out) const {
    LSHC_DCHECK(index_ != nullptr) << "Prepare() must run before queries";
    CollectShortlistSketched(
        [&](auto&& sink) { index_->VisitCandidates(item, sink); }, assignment,
        scratch, out, assignment[item], sketches_,
        sketches_.empty() ? nullptr : sketches_.Row(item),
        sketch_max_hamming_);
  }

  /// Sequential convenience overload using the provider-owned scratch.
  void GetCandidates(uint32_t item, std::span<const uint32_t> assignment,
                     std::vector<uint32_t>* out) {
    GetCandidates(item, assignment, scratch_, out);
  }

  /// As GetCandidates but for an external item given by its
  /// family-specific query representation (e.g. a token set for MinHash, a
  /// vector for SimHash) — a new item arriving after clustering. Only
  /// available for families exposing ComputeQuerySignature.
  template <typename Query>
  void GetCandidatesForQuery(const Query& query,
                             std::span<const uint32_t> assignment,
                             std::vector<uint32_t>* out) {
    LSHC_CHECK(index_ != nullptr) << "Prepare() must run before queries";
    // The signature buffer lives in the provider so repeated queries (the
    // streaming hot path) never allocate.
    query_signature_.resize(family_.signature_width());
    family_.ComputeQuerySignature(query, query_signature_.data());
    if (!sketches_.empty()) {
      query_sketch_.resize(sketches_.words());
      PackSketchBits(query_signature_.data(), sketches_.width(),
                     query_sketch_.data());
    }
    // External queries have no own cluster to seed with, so screening may
    // empty the shortlist; callers already treat an empty shortlist as
    // "fall back to the exhaustive scan".
    CollectShortlistSketched(
        [&](auto&& sink) {
          index_->VisitCandidatesOfSignature(query_signature_, sink);
        },
        assignment, scratch_, out, kNoSeedCluster, sketches_,
        sketches_.empty() ? nullptr : query_sketch_.data(),
        sketch_max_hamming_);
  }

  /// Historical name of the categorical external query: candidates for a
  /// token set in the dataset's code space.
  void GetCandidatesForTokens(std::span<const uint32_t> tokens,
                              std::span<const uint32_t> assignment,
                              std::vector<uint32_t>* out) {
    GetCandidatesForQuery(tokens, assignment, out);
  }

  /// The hash family (hashers + configuration).
  const Family& family() const { return family_; }

  /// The per-item signature matrix computed by Prepare — non-empty only
  /// when the family keeps signatures. Lets callers (e.g. the streaming
  /// bootstrap) reuse the signing pass instead of re-hashing every item.
  std::span<const uint64_t> signatures() const { return signatures_; }

  /// The underlying banding index (null before Prepare).
  const BandedIndex* index() const { return index_.get(); }

  /// The packed bit-sketch table (empty unless the family's sketch
  /// prefilter is enabled and Prepare has run).
  const BitSketchTable& sketches() const { return sketches_; }

  /// True when shortlist queries screen candidates against bit sketches.
  bool sketch_enabled() const { return !sketches_.empty(); }

  /// The screening threshold: candidates whose sketch Hamming distance to
  /// the query exceeds this are dropped. Meaningful only when
  /// sketch_enabled().
  uint64_t sketch_max_hamming() const { return sketch_max_hamming_; }

  /// Heap footprint of the sketch table alone (0 when disabled) — the
  /// memory cost of enabling the prefilter, surfaced through IndexHandle.
  uint64_t SketchMemoryUsageBytes() const {
    return sketches_.MemoryUsageBytes();
  }

  /// Occupancy statistics of the underlying index.
  BandedIndex::Stats IndexStats() const {
    LSHC_CHECK(index_ != nullptr) << "Prepare() must run before IndexStats";
    return index_->ComputeStats();
  }

  /// Approximate heap footprint (index + any kept signatures).
  uint64_t MemoryUsageBytes() const {
    uint64_t bytes = sizeof(*this);
    if (index_ != nullptr) bytes += index_->MemoryUsageBytes();
    bytes += signatures_.size() * sizeof(uint64_t);
    bytes += scratch_.cluster_stamp.size() * sizeof(uint32_t);
    bytes += scratch_.pruned_stamp.size() * sizeof(uint32_t);
    bytes += query_signature_.capacity() * sizeof(uint64_t);
    bytes += query_sketch_.capacity() * sizeof(uint64_t);
    bytes += sketches_.MemoryUsageBytes();
    bytes += family_.MemoryUsageBytes();
    return bytes;
  }

  /// Seconds spent in the last Prepare, split into signature computation
  /// and index construction.
  double signature_seconds() const { return signature_seconds_; }
  double index_seconds() const { return index_seconds_; }

  /// Number of completed full-dataset signing passes this provider has
  /// executed — 1 after one successful Prepare. Query-side work (routed
  /// prediction, GetCandidatesForQuery) signs only the query and never
  /// raises this, which is how callers assert the fitted dataset is never
  /// re-signed when the fit-time index is reused.
  uint64_t dataset_sign_passes() const { return dataset_sign_passes_; }

 private:
  /// For FromParts: adopts an already-built family without signing.
  ShortlistProvider(Family family, uint32_t num_clusters)
      : family_(std::move(family)), num_clusters_(num_clusters) {
    LSHC_DCHECK(num_clusters >= 1) << "need at least one cluster";
    scratch_ = MakeScratch();
  }

  /// The family's sketch configuration, when it has one ({} = disabled for
  /// families predating the prefilter).
  SketchPrefilterOptions SketchOptions() const {
    if constexpr (requires { family_.sketch_options(); }) {
      return family_.sketch_options();
    } else {
      return {};
    }
  }

  Family family_;
  uint32_t num_clusters_;
  std::unique_ptr<BandedIndex> index_;
  std::vector<uint64_t> signatures_;  // kept only if family says so
  Scratch scratch_;                   // for the sequential overloads
  std::vector<uint64_t> query_signature_;  // GetCandidatesForQuery buffer
  std::vector<uint64_t> query_sketch_;     // its packed sketch twin
  BitSketchTable sketches_;           // empty unless the prefilter is on
  uint64_t sketch_max_hamming_ = 0;

  double signature_seconds_ = 0;
  double index_seconds_ = 0;
  uint64_t dataset_sign_passes_ = 0;
};

}  // namespace lshclust
