// Parity tests for the unified clustering engine: the single
// ClusteringEngine body must reproduce the per-algorithm engines it
// replaced bit-for-bit, and the batch-parallel assignment step must be
// invisible — num_threads=1 and num_threads=4 produce identical
// assignments, move counts and costs for every family, exhaustive and
// LSH-accelerated alike.
//
// The golden values below were captured from the pre-unification
// per-algorithm implementations (clustering/engine.h K-Modes,
// clustering/kmeans.h Lloyd, clustering/kprototypes.h) on these exact
// fixtures and seeds. Drift in seeding, distance kernels, update rules
// or iteration structure shows up here. One *deliberate* semantic change
// is invisible on these fixtures: shortlist queries now dereference a
// per-pass snapshot of the assignment instead of the live array (the
// price of thread-count-invariant determinism), which can alter LSH-run
// results on datasets where mid-pass moves would have changed later
// items' shortlists. The exhaustive goldens are exact regardless; the
// LSH goldens double as evidence the fixtures are insensitive to it.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "clustering/kmodes.h"
#include "clustering/kprototypes.h"
#include "core/lsh_kmeans.h"
#include "core/lsh_kprototypes.h"
#include "core/mh_kmodes.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/gaussian_mixture.h"
#include "datagen/mixed_generator.h"

namespace lshclust {
namespace {

// FNV-1a over the assignment vector: a compact bit-for-bit fingerprint.
uint64_t AssignmentFingerprint(const std::vector<uint32_t>& assignment) {
  uint64_t hash = 1469598103934665603ULL;
  for (const uint32_t cluster : assignment) {
    hash ^= cluster;
    hash *= 1099511628211ULL;
  }
  return hash;
}

CategoricalDataset CategoricalFixture() {
  ConjunctiveDataOptions options;
  options.num_items = 300;
  options.num_attributes = 12;
  options.num_clusters = 8;
  options.domain_size = 40;
  options.seed = 17;
  return GenerateConjunctiveRuleData(options).ValueOrDie();
}

NumericDataset NumericFixture() {
  GaussianMixtureOptions options;
  options.num_items = 240;
  options.dimensions = 6;
  options.num_clusters = 6;
  options.stddev = 0.4;
  options.seed = 31;
  return GenerateGaussianMixture(options).ValueOrDie();
}

MixedDataset MixedFixture() {
  MixedDataOptions options;
  options.categorical.num_items = 200;
  options.categorical.num_attributes = 8;
  options.categorical.num_clusters = 5;
  options.categorical.domain_size = 25;
  options.categorical.seed = 41;
  options.numeric_dimensions = 4;
  options.stddev = 0.5;
  return GenerateMixedData(options).ValueOrDie();
}

void ExpectIdenticalRuns(const ClusteringResult& a, const ClusteringResult& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.converged, b.converged);
  // Costs must agree to the bit, not within a tolerance: both runs are
  // required to execute the same floating-point operations in the same
  // order.
  EXPECT_EQ(a.final_cost, b.final_cost);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].moves, b.iterations[i].moves);
    EXPECT_EQ(a.iterations[i].cost, b.iterations[i].cost);
    EXPECT_EQ(a.iterations[i].mean_shortlist, b.iterations[i].mean_shortlist);
  }
}

// ------------------------------------------ golden (pre-refactor) parity --

TEST(EngineGoldenParityTest, KModesReproducesPreUnificationResults) {
  const auto dataset = CategoricalFixture();
  EngineOptions options;
  options.num_clusters = 8;
  options.seed = 21;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_EQ(result.iterations.size(), 2u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 1711.0);
  EXPECT_EQ(result.TotalMoves(), 35u);
  EXPECT_EQ(AssignmentFingerprint(result.assignment), 0x3423685dafce5648ULL);
}

TEST(EngineGoldenParityTest, MHKModesReproducesPreUnificationResults) {
  const auto dataset = CategoricalFixture();
  MHKModesOptions options;
  options.engine.num_clusters = 8;
  options.engine.seed = 21;
  options.index.banding = {8, 2};
  options.index.seed = 77;
  const auto run = RunMHKModes(dataset, options).ValueOrDie();
  EXPECT_EQ(run.result.iterations.size(), 2u);
  EXPECT_TRUE(run.result.converged);
  EXPECT_EQ(run.result.final_cost, 1711.0);
  EXPECT_EQ(run.result.TotalMoves(), 35u);
  EXPECT_EQ(AssignmentFingerprint(run.result.assignment),
            0x3423685dafce5648ULL);
}

TEST(EngineGoldenParityTest, KMeansReproducesPreUnificationResults) {
  const auto dataset = NumericFixture();
  KMeansOptions options;
  options.num_clusters = 6;
  options.seed = 33;
  const auto result = RunKMeans(dataset, options).ValueOrDie();
  EXPECT_EQ(result.iterations.size(), 5u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 3444.6286874818047);
  EXPECT_EQ(result.TotalMoves(), 14u);
  EXPECT_EQ(AssignmentFingerprint(result.assignment), 0x89731a86c434c228ULL);
}

TEST(EngineGoldenParityTest, LshKMeansReproducesPreUnificationResults) {
  const auto dataset = NumericFixture();
  LshKMeansOptions options;
  options.kmeans.num_clusters = 6;
  options.kmeans.seed = 33;
  options.banding = {12, 3};
  options.seed = 55;
  const auto result = RunLshKMeans(dataset, options).ValueOrDie();
  EXPECT_EQ(result.iterations.size(), 5u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 3444.6286874818047);
  EXPECT_EQ(result.TotalMoves(), 14u);
  EXPECT_EQ(AssignmentFingerprint(result.assignment), 0x89731a86c434c228ULL);
}

TEST(EngineGoldenParityTest, KPrototypesReproducesPreUnificationResults) {
  const auto dataset = MixedFixture();
  KPrototypesOptions options;
  options.num_clusters = 5;
  options.seed = 43;
  options.gamma = 0.8;
  const auto result = RunKPrototypes(dataset, options).ValueOrDie();
  EXPECT_EQ(result.iterations.size(), 2u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 1898.1575139585696);
  EXPECT_EQ(result.TotalMoves(), 4u);
  EXPECT_EQ(AssignmentFingerprint(result.assignment), 0x5718db93db6e1fd5ULL);
}

TEST(EngineGoldenParityTest, LshKPrototypesReproducesPreUnificationResults) {
  const auto dataset = MixedFixture();
  LshKPrototypesOptions options;
  options.kprototypes.num_clusters = 5;
  options.kprototypes.seed = 43;
  options.kprototypes.gamma = 0.8;
  options.categorical_banding = {10, 2};
  options.numeric_banding = {6, 8};
  options.seed = 91;
  const auto result = RunLshKPrototypes(dataset, options).ValueOrDie();
  EXPECT_EQ(result.iterations.size(), 2u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 1898.1575139585696);
  EXPECT_EQ(result.TotalMoves(), 4u);
  EXPECT_EQ(AssignmentFingerprint(result.assignment), 0x5718db93db6e1fd5ULL);
}

// -------------------------------------------------- thread-count parity --

TEST(EngineThreadParityTest, KModesExhaustiveAndShortlist) {
  const auto dataset = CategoricalFixture();
  EngineOptions options;
  options.num_clusters = 8;
  options.seed = 21;

  options.num_threads = 1;
  const auto exhaustive_1t = RunKModes(dataset, options).ValueOrDie();
  options.num_threads = 4;
  const auto exhaustive_4t = RunKModes(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(exhaustive_1t, exhaustive_4t);

  MHKModesOptions mh;
  mh.engine = options;
  mh.index.banding = {8, 2};
  mh.index.seed = 77;
  mh.engine.num_threads = 1;
  const auto shortlist_1t = RunMHKModes(dataset, mh).ValueOrDie();
  mh.engine.num_threads = 4;
  const auto shortlist_4t = RunMHKModes(dataset, mh).ValueOrDie();
  ExpectIdenticalRuns(shortlist_1t.result, shortlist_4t.result);
}

TEST(EngineThreadParityTest, KMeansExhaustiveAndShortlist) {
  const auto dataset = NumericFixture();
  KMeansOptions options;
  options.num_clusters = 6;
  options.seed = 33;

  options.num_threads = 1;
  const auto exhaustive_1t = RunKMeans(dataset, options).ValueOrDie();
  options.num_threads = 4;
  const auto exhaustive_4t = RunKMeans(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(exhaustive_1t, exhaustive_4t);

  LshKMeansOptions lsh;
  lsh.kmeans = options;
  lsh.banding = {12, 3};
  lsh.seed = 55;
  lsh.kmeans.num_threads = 1;
  const auto shortlist_1t = RunLshKMeans(dataset, lsh).ValueOrDie();
  lsh.kmeans.num_threads = 4;
  const auto shortlist_4t = RunLshKMeans(dataset, lsh).ValueOrDie();
  ExpectIdenticalRuns(shortlist_1t, shortlist_4t);
}

TEST(EngineThreadParityTest, KPrototypesExhaustiveAndShortlist) {
  const auto dataset = MixedFixture();
  KPrototypesOptions options;
  options.num_clusters = 5;
  options.seed = 43;
  options.gamma = 0.8;

  options.num_threads = 1;
  const auto exhaustive_1t = RunKPrototypes(dataset, options).ValueOrDie();
  options.num_threads = 4;
  const auto exhaustive_4t = RunKPrototypes(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(exhaustive_1t, exhaustive_4t);

  LshKPrototypesOptions lsh;
  lsh.kprototypes = options;
  lsh.categorical_banding = {10, 2};
  lsh.numeric_banding = {6, 8};
  lsh.seed = 91;
  lsh.kprototypes.num_threads = 1;
  const auto shortlist_1t = RunLshKPrototypes(dataset, lsh).ValueOrDie();
  lsh.kprototypes.num_threads = 4;
  const auto shortlist_4t = RunLshKPrototypes(dataset, lsh).ValueOrDie();
  ExpectIdenticalRuns(shortlist_1t, shortlist_4t);
}

// Larger-than-fixture K-Modes run where assignment passes actually split
// into several chunks per worker, with a banding loose enough that
// shortlists stay large and iterations keep moving items — a harder
// determinism target than the tidy fixtures above.
TEST(EngineThreadParityTest, ManyChunksManyMoves) {
  ConjunctiveDataOptions data;
  data.num_items = 5000;
  data.num_attributes = 10;
  data.num_clusters = 40;
  data.domain_size = 25;  // noisy: plenty of moves per iteration
  data.seed = 71;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  MHKModesOptions options;
  options.engine.num_clusters = 40;
  options.engine.seed = 73;
  options.index.banding = {6, 1};  // aggressive recall -> big shortlists
  options.index.seed = 75;

  options.engine.num_threads = 1;
  const auto run_1t = RunMHKModes(dataset, options).ValueOrDie();
  options.engine.num_threads = 4;
  const auto run_4t = RunMHKModes(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(run_1t.result, run_4t.result);
  EXPECT_GT(run_1t.result.TotalMoves(), 0u);
}

// Numeric twin of ManyChunksManyMoves: floating-point distances across
// several chunks per pass, exhaustive and SimHash-shortlist.
TEST(EngineThreadParityTest, ManyChunksNumeric) {
  GaussianMixtureOptions data;
  data.num_items = 4000;
  data.dimensions = 8;
  data.num_clusters = 25;
  data.stddev = 3.0;  // heavy overlap: moves keep happening
  data.seed = 81;
  const auto dataset = GenerateGaussianMixture(data).ValueOrDie();

  KMeansOptions options;
  options.num_clusters = 25;
  options.seed = 83;
  options.max_iterations = 15;

  options.num_threads = 1;
  const auto exhaustive_1t = RunKMeans(dataset, options).ValueOrDie();
  options.num_threads = 4;
  const auto exhaustive_4t = RunKMeans(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(exhaustive_1t, exhaustive_4t);
  EXPECT_GT(exhaustive_1t.TotalMoves(), 0u);

  LshKMeansOptions lsh;
  lsh.kmeans = options;
  lsh.banding = {16, 2};
  lsh.seed = 85;
  lsh.kmeans.num_threads = 1;
  const auto shortlist_1t = RunLshKMeans(dataset, lsh).ValueOrDie();
  lsh.kmeans.num_threads = 4;
  const auto shortlist_4t = RunLshKMeans(dataset, lsh).ValueOrDie();
  ExpectIdenticalRuns(shortlist_1t, shortlist_4t);
}

// --------------------------------------------------------- shard parity --
//
// The two-level (shard -> chunk) decomposition must be invisible in the
// results: every (num_shards x num_threads) combination produces the
// bit-identical run, for exhaustive and shortlist providers alike, and
// S=1 is the historical flat decomposition (the golden tests above pin
// that).

TEST(EngineShardParityTest, ShardSweepMatchesUnshardedAtEveryThreadCount) {
  ConjunctiveDataOptions data;
  data.num_items = 2500;
  data.num_attributes = 10;
  data.num_clusters = 20;
  data.domain_size = 25;  // noisy: plenty of moves per iteration
  data.seed = 91;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  MHKModesOptions options;
  options.engine.num_clusters = 20;
  options.engine.seed = 93;
  options.engine.chunk_size = 256;  // several chunks per shard
  options.index.banding = {6, 1};   // aggressive recall -> big shortlists
  options.index.seed = 95;

  options.engine.num_shards = 1;
  options.engine.num_threads = 1;
  const auto baseline = RunMHKModes(dataset, options).ValueOrDie();
  EXPECT_GT(baseline.result.TotalMoves(), 0u);

  for (const uint32_t shards : {1u, 2u, 3u, 8u}) {
    for (const uint32_t threads : {1u, 2u, 4u}) {
      options.engine.num_shards = shards;
      options.engine.num_threads = threads;
      const auto run = RunMHKModes(dataset, options).ValueOrDie();
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ExpectIdenticalRuns(baseline.result, run.result);
    }
  }
}

TEST(EngineShardParityTest, ExhaustiveNumericShardSweep) {
  const auto dataset = NumericFixture();
  KMeansOptions options;
  options.num_clusters = 6;
  options.seed = 33;
  const auto baseline = RunKMeans(dataset, options).ValueOrDie();

  for (const uint32_t shards : {2u, 3u, 8u}) {
    for (const uint32_t threads : {1u, 2u, 4u}) {
      options.num_shards = shards;
      options.num_threads = threads;
      options.chunk_size = 50;
      const auto run = RunKMeans(dataset, options).ValueOrDie();
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ExpectIdenticalRuns(baseline, run);
    }
  }
}

TEST(EngineShardParityTest, ChunkSizeIsInvisible) {
  // The runtime chunk_size knob (the NUMA/tuning study's subject) must
  // never change results — including chunks of one item and chunks far
  // bigger than the dataset.
  const auto dataset = CategoricalFixture();
  MHKModesOptions options;
  options.engine.num_clusters = 8;
  options.engine.seed = 21;
  options.index.banding = {8, 2};
  options.index.seed = 77;
  const auto baseline = RunMHKModes(dataset, options).ValueOrDie();

  // ~0u is the overflow regression: a near-2^32 chunk size once wrapped
  // the per-shard chunk count to zero, silently skipping every item.
  for (const uint32_t chunk_size : {1u, 7u, 100u, 4096u, 1000000u, ~0u}) {
    for (const uint32_t threads : {1u, 2u}) {
      options.engine.chunk_size = chunk_size;
      options.engine.num_threads = threads;
      options.engine.num_shards = 2;
      const auto run = RunMHKModes(dataset, options).ValueOrDie();
      SCOPED_TRACE("chunk_size=" + std::to_string(chunk_size) +
                   " threads=" + std::to_string(threads));
      ExpectIdenticalRuns(baseline.result, run.result);
    }
  }
}

TEST(EngineShardParityTest, MoreShardsThanItems) {
  // Shard counts beyond the flat chunk count are clamped (a shard
  // smaller than one chunk cannot split further); the run must still be
  // bit-identical to the unsharded one. Genuinely empty shards are
  // covered at the plan level in tests/shard_test.cpp.
  ConjunctiveDataOptions data;
  data.num_items = 5;
  data.num_attributes = 6;
  data.num_clusters = 3;
  data.domain_size = 12;
  data.seed = 101;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  MHKModesOptions options;
  options.engine.num_clusters = 3;
  options.engine.seed = 103;
  options.index.banding = {4, 2};
  const auto baseline = RunMHKModes(dataset, options).ValueOrDie();

  options.engine.num_shards = 8;  // > n = 5
  options.engine.num_threads = 4;
  const auto sharded = RunMHKModes(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(baseline.result, sharded.result);

  // Degenerate-but-legal extreme: 2^32-1 shards must neither overflow
  // the plan (regression: num_shards + 1 wrapped to 0 and wrote out of
  // bounds) nor allocate per-shard state beyond n shards.
  options.engine.num_shards = ~0u;
  const auto extreme = RunMHKModes(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(baseline.result, extreme.result);
}

TEST(EngineShardParityTest, SingleClusterDegenerates) {
  // k=1: every shortlist is {0}, every item stays put after the first
  // pass, and the sharded run must agree with the flat one.
  const auto dataset = CategoricalFixture();
  MHKModesOptions options;
  options.engine.num_clusters = 1;
  options.engine.seed = 7;
  options.index.banding = {4, 2};
  const auto baseline = RunMHKModes(dataset, options).ValueOrDie();
  EXPECT_TRUE(baseline.result.converged);

  options.engine.num_shards = 3;
  options.engine.num_threads = 2;
  options.engine.chunk_size = 64;
  const auto sharded = RunMHKModes(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(baseline.result, sharded.result);
  for (const uint32_t cluster : sharded.result.assignment) {
    EXPECT_EQ(cluster, 0u);
  }
}

TEST(EngineShardParityTest, RejectsZeroShardsAndZeroChunkSize) {
  const auto dataset = CategoricalFixture();
  EngineOptions options;
  options.num_clusters = 8;
  options.num_shards = 0;
  EXPECT_TRUE(RunKModes(dataset, options).status().IsInvalidArgument());
  options.num_shards = 1;
  options.chunk_size = 0;
  EXPECT_TRUE(RunKModes(dataset, options).status().IsInvalidArgument());
}

// The unified engine must also accept an exhaustive provider through the
// generic entry point with threads (regression for the provider concept
// detection: ExhaustiveProvider has no scratch and must not be asked for
// one).
TEST(EngineThreadParityTest, ExhaustiveProviderHasNoScratchRequirement) {
  const auto dataset = NumericFixture();
  KMeansOptions options;
  options.num_clusters = 6;
  options.seed = 33;
  options.num_threads = 3;
  ExhaustiveProvider provider;
  const auto result =
      RunKMeansEngine(dataset, options, provider).ValueOrDie();
  EXPECT_EQ(AssignmentFingerprint(result.assignment), 0x89731a86c434c228ULL);
}

// ------------------------------------------ blocked K-Modes exhaustive scan --
//
// K-Modes exhaustive passes and Predict run the blocked 16-cluster scan
// (AssignNearestModes); per-item BestClusterExhaustive is the argmin it
// must reproduce. A three-code domain puts many items at equal distance
// from several modes; 40 attributes take the block kernel past its first
// 32-attribute bound check; k = 15, 16, 17 straddle one block.

using Categorical = CategoricalClusteringTraits;

const uint32_t kBlockedKs[] = {1, 15, 16, 17, 100};

CategoricalDataset TieHeavyFixture() {
  const uint32_t n = 400;
  const uint32_t m = 40;
  Rng rng(91);
  std::vector<uint32_t> codes(static_cast<size_t>(n) * m);
  for (auto& code : codes) code = static_cast<uint32_t>(rng.Below(3));
  return CategoricalDataset::FromCodes(n, m, 3, codes).ValueOrDie();
}

TEST(BlockedExhaustiveScanTest, MatchesPerItemArgminWithTies) {
  const auto dataset = TieHeavyFixture();
  const uint32_t n = dataset.num_items();
  for (const uint32_t k : kBlockedKs) {
    // Every fifth mode duplicates the one before it: exact ties between
    // clusters, some of them across a block boundary (k = 16 -> 15, 16).
    ModeTable modes(k, dataset.num_attributes());
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      const uint32_t source = cluster % 5 == 0 && cluster > 0 ? cluster - 1
                                                               : cluster;
      modes.SetModeFromItem(cluster, dataset, (source * 37) % n);
    }
    BlockedModes blocked;
    blocked.Build(modes);
    EngineOptions options;
    options.num_clusters = k;
    Rng rng(k);
    for (const bool seeded : {false, true}) {
      // First pass: every item starts in cluster 0; later passes: its own.
      std::vector<uint32_t> seeds(n, 0);
      if (seeded) {
        for (auto& seed : seeds) seed = static_cast<uint32_t>(rng.Below(k));
      }
      const auto check = [&](auto early_exit) {
        constexpr bool kEarlyExit = decltype(early_exit)::value;
        std::vector<uint32_t> expected = seeds;
        uint64_t expected_moves = 0;
        // A range that starts and ends mid-tile; items outside it keep
        // their seed.
        const uint32_t begin = 7;
        const uint32_t end = 301;
        for (uint32_t item = begin; item < end; ++item) {
          expected[item] = BestClusterExhaustive<Categorical, kEarlyExit>(
              dataset, modes, options, item, seeds[item], k);
          expected_moves += expected[item] != seeds[item] ? 1 : 0;
        }
        std::vector<uint32_t> got = seeds;
        const uint64_t moves = AssignExhaustiveRange<Categorical, kEarlyExit>(
            dataset, modes, blocked, options, got, begin, end);
        EXPECT_EQ(got, expected) << "k=" << k << " seeded=" << seeded
                                 << " early_exit=" << kEarlyExit;
        EXPECT_EQ(moves, expected_moves);
      };
      check(std::false_type{});
      check(std::true_type{});
    }
  }
}

TEST(BlockedExhaustiveScanTest, KModesRunMatchesPerItemReference) {
  const auto dataset = TieHeavyFixture();
  const uint32_t n = dataset.num_items();
  for (const uint32_t k : kBlockedKs) {
    EngineOptions options;
    options.num_clusters = k;
    options.max_iterations = 20;
    options.chunk_size = 64;
    Rng seed_rng(500 + k);
    options.initial_seeds = seed_rng.SampleWithoutReplacement(n, k);

    // The engine's procedure spelled out with the per-item argmin.
    ModeTable modes(k, dataset.num_attributes());
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      modes.SetModeFromItem(cluster, dataset, options.initial_seeds[cluster]);
    }
    Rng rng(options.seed);
    std::vector<uint32_t> assignment(n, 0);
    for (uint32_t item = 0; item < n; ++item) {
      assignment[item] = BestClusterExhaustive<Categorical, true>(
          dataset, modes, options, item, 0, k);
    }
    modes.RecomputeFromAssignment(dataset, assignment,
                                  options.empty_cluster_policy, rng);
    std::vector<uint64_t> expected_moves;
    for (uint32_t iteration = 1; iteration <= options.max_iterations;
         ++iteration) {
      uint64_t moves = 0;
      for (uint32_t item = 0; item < n; ++item) {
        const uint32_t best = BestClusterExhaustive<Categorical, true>(
            dataset, modes, options, item, assignment[item], k);
        if (best != assignment[item]) {
          assignment[item] = best;
          ++moves;
        }
      }
      modes.RecomputeFromAssignment(dataset, assignment,
                                    options.empty_cluster_policy, rng);
      expected_moves.push_back(moves);
      if (moves == 0) break;
    }

    for (const uint32_t threads : {1u, 3u}) {
      options.num_threads = threads;
      const auto result = RunKModes(dataset, options).ValueOrDie();
      EXPECT_EQ(result.assignment, assignment)
          << "k=" << k << " threads=" << threads;
      ASSERT_EQ(result.iterations.size(), expected_moves.size())
          << "k=" << k << " threads=" << threads;
      for (size_t i = 0; i < expected_moves.size(); ++i) {
        EXPECT_EQ(result.iterations[i].moves, expected_moves[i])
            << "k=" << k << " threads=" << threads << " iteration=" << i + 1;
      }
    }
  }
}

}  // namespace
}  // namespace lshclust
