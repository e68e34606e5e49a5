// Unit tests for src/clustering: dissimilarity kernels, mode computation,
// initializers, K-Modes, K-Means and mini-batch K-Means.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "clustering/dissimilarity.h"
#include "clustering/initializers.h"
#include "clustering/kmeans.h"
#include "clustering/kmodes.h"
#include "clustering/modes.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/gaussian_mixture.h"

namespace lshclust {
namespace {

// ---------------------------------------------------------- dissimilarity --

TEST(DissimilarityTest, CountsMismatches) {
  const std::vector<uint32_t> a{1, 2, 3, 4};
  const std::vector<uint32_t> b{1, 9, 3, 8};
  EXPECT_EQ(MismatchDistance(a, b), 2u);
  EXPECT_EQ(MismatchDistance(a, a), 0u);
}

TEST(DissimilarityTest, SymmetricAndBounded) {
  const std::vector<uint32_t> a{1, 2, 3};
  const std::vector<uint32_t> b{4, 5, 6};
  EXPECT_EQ(MismatchDistance(a, b), MismatchDistance(b, a));
  EXPECT_EQ(MismatchDistance(a, b), 3u);  // max = m
}

TEST(DissimilarityTest, BoundedKernelAgreesBelowBound) {
  // For distances strictly below the bound, the early-exit kernel must
  // return the exact count.
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t m = 1 + static_cast<uint32_t>(rng.Below(64));
    std::vector<uint32_t> a(m), b(m);
    for (uint32_t j = 0; j < m; ++j) {
      a[j] = static_cast<uint32_t>(rng.Below(4));
      b[j] = rng.Bernoulli(0.3) ? a[j] : a[j] + 10;
    }
    const uint32_t exact = MismatchDistance(a, b);
    const uint32_t bounded =
        BoundedMismatchDistance(a.data(), b.data(), m, m + 1);
    EXPECT_EQ(bounded, exact);
    // With bound <= exact, the kernel must return something >= bound.
    if (exact > 0) {
      EXPECT_GE(BoundedMismatchDistance(a.data(), b.data(), m, exact), exact);
    }
  }
}

TEST(DissimilarityTest, BoundedKernelHandlesNonMultipleOf16Lengths) {
  for (uint32_t m : {1u, 15u, 16u, 17u, 31u, 33u, 100u}) {
    std::vector<uint32_t> a(m, 1), b(m, 2);
    EXPECT_EQ(BoundedMismatchDistance(a.data(), b.data(), m, m + 1), m);
  }
}

TEST(DissimilarityTest, JaccardFromMatches) {
  // q matches of m attributes: s = q / (2m - q).
  EXPECT_DOUBLE_EQ(JaccardFromMatches(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(JaccardFromMatches(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(JaccardFromMatches(1, 100), 1.0 / 199.0);
  EXPECT_DOUBLE_EQ(JaccardFromMatches(50, 100), 50.0 / 150.0);
}

// ------------------------------------------------------------------ modes --

CategoricalDataset SmallDataset() {
  // 6 items x 2 attributes; codes chosen by hand.
  return CategoricalDataset::FromCodes(
             6, 2, 10,
             {1, 5,   // cluster 0
              1, 6,   // cluster 0
              1, 5,   // cluster 0
              2, 7,   // cluster 1
              3, 7,   // cluster 1
              2, 7})  // cluster 1
      .ValueOrDie();
}

TEST(ModeTableTest, ComputesPerAttributeMajority) {
  const auto dataset = SmallDataset();
  ModeTable modes(2, 2);
  Rng rng(1);
  const std::vector<uint32_t> assignment{0, 0, 0, 1, 1, 1};
  modes.RecomputeFromAssignment(dataset, assignment,
                                EmptyClusterPolicy::kKeepPreviousMode, rng);
  EXPECT_EQ(modes.Mode(0)[0], 1u);  // 1 appears 3x
  EXPECT_EQ(modes.Mode(0)[1], 5u);  // 5 appears 2x, 6 once
  EXPECT_EQ(modes.Mode(1)[0], 2u);  // 2 appears 2x, 3 once
  EXPECT_EQ(modes.Mode(1)[1], 7u);
  EXPECT_EQ(modes.cluster_sizes(), (std::vector<uint32_t>{3, 3}));
}

TEST(ModeTableTest, ModeMinimizesTotalDissimilarity) {
  // Theorem: the per-attribute majority minimises D(X, Q). Verify by
  // exhaustive search on a random small instance.
  Rng rng(5);
  const uint32_t n = 40, m = 3, domain = 4;
  std::vector<uint32_t> codes(n * m);
  for (auto& code : codes) code = static_cast<uint32_t>(rng.Below(domain));
  const auto dataset =
      CategoricalDataset::FromCodes(n, m, domain, codes).ValueOrDie();

  ModeTable modes(1, m);
  const std::vector<uint32_t> assignment(n, 0);
  modes.RecomputeFromAssignment(dataset, assignment,
                                EmptyClusterPolicy::kKeepPreviousMode, rng);
  uint64_t mode_cost = 0;
  for (uint32_t i = 0; i < n; ++i) {
    mode_cost += MismatchDistance(dataset.Row(i), modes.Mode(0));
  }
  // Exhaustive: every candidate mode in domain^m.
  for (uint32_t c0 = 0; c0 < domain; ++c0) {
    for (uint32_t c1 = 0; c1 < domain; ++c1) {
      for (uint32_t c2 = 0; c2 < domain; ++c2) {
        const std::vector<uint32_t> candidate{c0, c1, c2};
        uint64_t cost = 0;
        for (uint32_t i = 0; i < n; ++i) {
          cost += MismatchDistance(dataset.Row(i), candidate);
        }
        EXPECT_GE(cost, mode_cost);
      }
    }
  }
}

TEST(ModeTableTest, TieBreaksToSmallestCode) {
  const auto dataset =
      CategoricalDataset::FromCodes(2, 1, 5, {4, 2}).ValueOrDie();
  ModeTable modes(1, 1);
  Rng rng(1);
  modes.RecomputeFromAssignment(dataset, std::vector<uint32_t>{0, 0},
                                EmptyClusterPolicy::kKeepPreviousMode, rng);
  EXPECT_EQ(modes.Mode(0)[0], 2u);  // both appear once; smaller code wins
}

TEST(ModeTableTest, EmptyClusterKeepsPreviousMode) {
  const auto dataset = SmallDataset();
  ModeTable modes(3, 2);
  modes.SetModeFromItem(2, dataset, 5);
  const std::vector<uint32_t> before(modes.Mode(2).begin(),
                                     modes.Mode(2).end());
  Rng rng(1);
  const std::vector<uint32_t> assignment{0, 0, 0, 1, 1, 1};  // cluster 2 empty
  modes.RecomputeFromAssignment(dataset, assignment,
                                EmptyClusterPolicy::kKeepPreviousMode, rng);
  EXPECT_EQ(std::vector<uint32_t>(modes.Mode(2).begin(), modes.Mode(2).end()),
            before);
  EXPECT_EQ(modes.cluster_sizes()[2], 0u);
}

TEST(ModeTableTest, EmptyClusterReseedsFromItem) {
  const auto dataset = SmallDataset();
  ModeTable modes(3, 2);
  Rng rng(1);
  const std::vector<uint32_t> assignment{0, 0, 0, 1, 1, 1};
  modes.RecomputeFromAssignment(dataset, assignment,
                                EmptyClusterPolicy::kReseedRandomItem, rng);
  // The reseeded mode must equal some item's row.
  bool matches_an_item = false;
  for (uint32_t i = 0; i < dataset.num_items(); ++i) {
    if (MismatchDistance(dataset.Row(i), modes.Mode(2)) == 0) {
      matches_an_item = true;
    }
  }
  EXPECT_TRUE(matches_an_item);
}

TEST(ModeTableTest, SetModeFromItemCopiesRow) {
  const auto dataset = SmallDataset();
  ModeTable modes(1, 2);
  modes.SetModeFromItem(0, dataset, 3);
  EXPECT_EQ(MismatchDistance(modes.Mode(0), dataset.Row(3)), 0u);
}

// The per-attribute majority computed the obvious way: count codes in an
// ordered map and keep the first strict maximum, i.e. the smallest code on
// ties. Empty clusters keep `previous` or, under kReseedRandomItem, copy
// the row of the item `rng` draws, in ascending cluster order.
std::vector<uint32_t> ReferenceModes(const CategoricalDataset& dataset,
                                     const std::vector<uint32_t>& assignment,
                                     uint32_t k,
                                     const std::vector<uint32_t>& previous,
                                     EmptyClusterPolicy policy, Rng& rng) {
  const uint32_t m = dataset.num_attributes();
  std::vector<uint32_t> modes = previous;
  std::vector<uint32_t> sizes(k, 0);
  for (const uint32_t cluster : assignment) ++sizes[cluster];
  for (uint32_t cluster = 0; cluster < k; ++cluster) {
    if (sizes[cluster] == 0) continue;
    for (uint32_t j = 0; j < m; ++j) {
      std::map<uint32_t, uint32_t> counts;
      for (uint32_t item = 0; item < dataset.num_items(); ++item) {
        if (assignment[item] == cluster) ++counts[dataset.Row(item)[j]];
      }
      uint32_t best_code = 0;
      uint32_t best_count = 0;
      for (const auto& [code, count] : counts) {
        if (count > best_count) {
          best_count = count;
          best_code = code;
        }
      }
      modes[static_cast<size_t>(cluster) * m + j] = best_code;
    }
  }
  if (policy == EmptyClusterPolicy::kReseedRandomItem) {
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      if (sizes[cluster] != 0) continue;
      const auto row =
          dataset.Row(static_cast<uint32_t>(rng.Below(dataset.num_items())));
      std::copy(row.begin(), row.end(),
                modes.begin() + static_cast<size_t>(cluster) * m);
    }
  }
  return modes;
}

TEST(ModeTableTest, RandomizedUpdateMatchesMapReference) {
  // Three-code domains make ties common; m = 3, 16 and 37 vary the row
  // width; k = 1 and k = 6 give clusters far above 16 members, k = 90
  // mostly tiny ones. Only every other cluster id is used, so half the
  // clusters are empty under both policies.
  uint64_t seed = 1;
  for (const uint32_t m : {3u, 16u, 37u}) {
    for (const uint32_t k : {1u, 6u, 90u}) {
      for (const EmptyClusterPolicy policy :
           {EmptyClusterPolicy::kKeepPreviousMode,
            EmptyClusterPolicy::kReseedRandomItem}) {
        ++seed;
        Rng data_rng(seed);
        const uint32_t n = 300;
        std::vector<uint32_t> codes(static_cast<size_t>(n) * m);
        for (auto& code : codes) {
          code = static_cast<uint32_t>(data_rng.Below(3)) * 1000;
        }
        const auto dataset =
            CategoricalDataset::FromCodes(n, m, 3000, codes).ValueOrDie();
        std::vector<uint32_t> assignment(n);
        for (auto& cluster : assignment) {
          cluster = k == 1 ? 0
                           : static_cast<uint32_t>(
                                 data_rng.Below((k + 1) / 2)) * 2;
        }
        ModeTable modes(k, m);
        for (uint32_t cluster = 0; cluster < k; ++cluster) {
          modes.SetModeFromItem(cluster, dataset, (cluster * 7) % n);
        }
        std::vector<uint32_t> previous;
        for (uint32_t cluster = 0; cluster < k; ++cluster) {
          const auto mode = modes.Mode(cluster);
          previous.insert(previous.end(), mode.begin(), mode.end());
        }
        Rng rng(seed * 31);
        Rng reference_rng(seed * 31);
        // Twice, so the second update runs on warm scratch.
        for (int round = 0; round < 2; ++round) {
          modes.RecomputeFromAssignment(dataset, assignment, policy, rng);
          const auto expected = ReferenceModes(dataset, assignment, k,
                                               previous, policy,
                                               reference_rng);
          for (uint32_t cluster = 0; cluster < k; ++cluster) {
            const auto mode = modes.Mode(cluster);
            ASSERT_TRUE(std::equal(
                mode.begin(), mode.end(),
                expected.begin() + static_cast<size_t>(cluster) * m))
                << "m=" << m << " k=" << k << " cluster=" << cluster
                << " round=" << round;
          }
          previous = expected;
          // Move a third of the items before the next round.
          for (uint32_t item = 0; item < n; item += 3) {
            assignment[item] = assignment[(item * 13) % n];
          }
        }
        uint32_t largest = 0;
        for (const uint32_t size : modes.cluster_sizes()) {
          largest = std::max(largest, size);
        }
        if (k <= 6) {
          EXPECT_GT(largest, 16u);
        }
      }
    }
  }
}

// ----------------------------------------------------------- initializers --

CategoricalDataset InitDataset() {
  ConjunctiveDataOptions options;
  options.num_items = 200;
  options.num_attributes = 8;
  options.num_clusters = 10;
  options.domain_size = 6;
  options.seed = 3;
  return GenerateConjunctiveRuleData(options).ValueOrDie();
}

TEST(InitializerTest, RandomSeedsDistinctAndInRange) {
  const auto dataset = InitDataset();
  Rng rng(9);
  const auto seeds = SelectRandomSeeds(dataset, 20, rng).ValueOrDie();
  EXPECT_EQ(seeds.size(), 20u);
  std::set<uint32_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const uint32_t seed : seeds) EXPECT_LT(seed, dataset.num_items());
}

TEST(InitializerTest, RejectsBadK) {
  const auto dataset = InitDataset();
  Rng rng(9);
  EXPECT_TRUE(SelectRandomSeeds(dataset, 0, rng).status().IsInvalidArgument());
  EXPECT_TRUE(SelectRandomSeeds(dataset, dataset.num_items() + 1, rng)
                  .status().IsInvalidArgument());
}

TEST(InitializerTest, HuangSeedsAreDistinctItems) {
  const auto dataset = InitDataset();
  Rng rng(9);
  const auto seeds = SelectHuangSeeds(dataset, 10, rng).ValueOrDie();
  EXPECT_EQ(seeds.size(), 10u);
  std::set<uint32_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(InitializerTest, CaoIsDeterministicAndSpreadsSeeds) {
  const auto dataset = InitDataset();
  Rng rng1(9), rng2(42);
  const auto a = SelectCaoSeeds(dataset, 8, rng1).ValueOrDie();
  const auto b = SelectCaoSeeds(dataset, 8, rng2).ValueOrDie();
  EXPECT_EQ(a, b);  // density-distance method ignores the RNG
  std::set<uint32_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), 8u);
  // Consecutive Cao seeds must not be identical items.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(MismatchDistance(dataset.Row(a[i]), dataset.Row(a[0])), 0u);
  }
}

TEST(InitializerTest, DispatchMatchesDirectCalls) {
  const auto dataset = InitDataset();
  Rng rng1(5), rng2(5);
  EXPECT_EQ(SelectSeeds(dataset, 6, InitMethod::kRandom, rng1).ValueOrDie(),
            SelectRandomSeeds(dataset, 6, rng2).ValueOrDie());
}

// ----------------------------------------------------------------- kmodes --

CategoricalDataset EasyClusters(uint32_t per_cluster = 20) {
  // 4 well-separated clusters over 6 attributes: rule fixes everything.
  ConjunctiveDataOptions options;
  options.num_items = per_cluster * 4;
  options.num_attributes = 6;
  options.num_clusters = 4;
  options.domain_size = 50;
  options.min_rule_fraction = 1.0;  // all attributes fixed: zero noise
  options.max_rule_fraction = 1.0;
  options.seed = 77;
  return GenerateConjunctiveRuleData(options).ValueOrDie();
}

TEST(KModesTest, RecoversWellSeparatedClusters) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 4;
  // Items are dealt to clusters round-robin, so 0..3 cover all clusters;
  // with fully-fixed rules random seeds could start all in one cluster.
  options.initial_seeds = {0, 1, 2, 3};
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 0.0);  // pure clusters have zero mismatch
  // All items with equal labels share a cluster.
  for (uint32_t i = 0; i < dataset.num_items(); ++i) {
    for (uint32_t j = i + 1; j < dataset.num_items(); ++j) {
      if (dataset.labels()[i] == dataset.labels()[j]) {
        EXPECT_EQ(result.assignment[i], result.assignment[j]);
      }
    }
  }
}

TEST(KModesTest, CostIsMonotoneNonIncreasing) {
  ConjunctiveDataOptions data;
  data.num_items = 300;
  data.num_attributes = 12;
  data.num_clusters = 15;
  data.domain_size = 8;  // noisy, overlapping clusters
  data.seed = 13;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  EngineOptions options;
  options.num_clusters = 15;
  options.seed = 21;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  ASSERT_GE(result.iterations.size(), 1u);
  for (size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_LE(result.iterations[i].cost, result.iterations[i - 1].cost)
        << "iteration " << i;
  }
}

TEST(KModesTest, ConvergedRunEndsWithZeroMoves) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 4;
  options.seed = 5;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.iterations.back().moves, 0u);
}

TEST(KModesTest, RespectsMaxIterations) {
  ConjunctiveDataOptions data;
  data.num_items = 400;
  data.num_attributes = 10;
  data.num_clusters = 40;
  data.domain_size = 4;  // heavy overlap: slow convergence
  data.seed = 17;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  EngineOptions options;
  options.num_clusters = 40;
  options.max_iterations = 2;
  options.seed = 3;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_LE(result.iterations.size(), 2u);
}

TEST(KModesTest, ExplicitSeedsAreUsed) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 4;
  options.initial_seeds = {0, 1, 2, 3};  // one item of each cluster
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 0.0);
}

TEST(KModesTest, BaselineShortlistEqualsK) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 4;
  options.seed = 5;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  for (const auto& iteration : result.iterations) {
    EXPECT_DOUBLE_EQ(iteration.mean_shortlist, 4.0);
  }
}

TEST(KModesTest, ValidatesOptions) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 0;
  EXPECT_TRUE(RunKModes(dataset, options).status().IsInvalidArgument());
  options.num_clusters = dataset.num_items() + 1;
  EXPECT_TRUE(RunKModes(dataset, options).status().IsInvalidArgument());
  options.num_clusters = 4;
  options.initial_seeds = {0, 1};  // wrong arity
  EXPECT_TRUE(RunKModes(dataset, options).status().IsInvalidArgument());
  options.initial_seeds = {0, 1, 2, 1000000};  // out of range
  EXPECT_TRUE(RunKModes(dataset, options).status().IsOutOfRange());
}

TEST(KModesTest, KEqualsNGivesZeroCost) {
  const auto dataset = EasyClusters(/*per_cluster=*/3);
  EngineOptions options;
  options.num_clusters = dataset.num_items();
  std::vector<uint32_t> seeds(dataset.num_items());
  for (uint32_t i = 0; i < dataset.num_items(); ++i) seeds[i] = i;
  options.initial_seeds = seeds;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_EQ(result.final_cost, 0.0);
}

TEST(KModesTest, KEqualsOnePutsEverythingTogether) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 1;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_TRUE(result.converged);
  for (const uint32_t cluster : result.assignment) EXPECT_EQ(cluster, 0u);
}

TEST(KModesTest, EarlyExitMatchesExactKernel) {
  ConjunctiveDataOptions data;
  data.num_items = 250;
  data.num_attributes = 10;
  data.num_clusters = 12;
  data.domain_size = 6;
  data.seed = 29;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  EngineOptions options;
  options.num_clusters = 12;
  options.seed = 31;
  options.early_exit = true;
  const auto fast = RunKModes(dataset, options).ValueOrDie();
  options.early_exit = false;
  const auto slow = RunKModes(dataset, options).ValueOrDie();
  EXPECT_EQ(fast.assignment, slow.assignment);
  EXPECT_EQ(fast.final_cost, slow.final_cost);
  EXPECT_EQ(fast.iterations.size(), slow.iterations.size());
}

TEST(KModesTest, DeterministicPerSeed) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 4;
  options.seed = 11;
  const auto a = RunKModes(dataset, options).ValueOrDie();
  const auto b = RunKModes(dataset, options).ValueOrDie();
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.final_cost, b.final_cost);
}

TEST(KModesTest, EmptyDatasetRejected) {
  auto dataset = CategoricalDataset::FromCodes(0, 1, 1, {});
  ASSERT_TRUE(dataset.ok());
  EngineOptions options;
  options.num_clusters = 1;
  EXPECT_TRUE(RunKModes(*dataset, options).status().IsInvalidArgument());
}

// ----------------------------------------------------------------- kmeans --

NumericDataset EasyBlobs() {
  GaussianMixtureOptions options;
  options.num_items = 300;
  options.dimensions = 4;
  options.num_clusters = 3;
  options.center_box = 50.0;
  options.stddev = 0.5;  // tiny spread: trivially separable
  options.seed = 19;
  return GenerateGaussianMixture(options).ValueOrDie();
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  const auto dataset = EasyBlobs();
  KMeansOptions options;
  options.num_clusters = 3;
  options.initial_seeds = {0, 1, 2};  // one per blob (round-robin labels)
  const auto result = RunKMeans(dataset, options).ValueOrDie();
  EXPECT_TRUE(result.converged);
  for (uint32_t i = 0; i < dataset.num_items(); ++i) {
    for (uint32_t j = i + 1; j < dataset.num_items(); ++j) {
      if (dataset.labels()[i] == dataset.labels()[j]) {
        EXPECT_EQ(result.assignment[i], result.assignment[j]);
      }
    }
  }
}

TEST(KMeansTest, InertiaMonotoneNonIncreasing) {
  GaussianMixtureOptions data;
  data.num_items = 500;
  data.dimensions = 6;
  data.num_clusters = 10;
  data.center_box = 3.0;  // overlapping blobs
  data.stddev = 2.0;
  data.seed = 23;
  const auto dataset = GenerateGaussianMixture(data).ValueOrDie();

  KMeansOptions options;
  options.num_clusters = 10;
  options.seed = 7;
  const auto result = RunKMeans(dataset, options).ValueOrDie();
  for (size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_LE(result.iterations[i].cost, result.iterations[i - 1].cost + 1e-9);
  }
}

TEST(KMeansTest, EarlyExitMatchesExactKernel) {
  const auto dataset = EasyBlobs();
  KMeansOptions options;
  options.num_clusters = 3;
  options.seed = 13;
  options.early_exit = true;
  const auto fast = RunKMeans(dataset, options).ValueOrDie();
  options.early_exit = false;
  const auto slow = RunKMeans(dataset, options).ValueOrDie();
  EXPECT_EQ(fast.assignment, slow.assignment);
  EXPECT_DOUBLE_EQ(fast.final_cost, slow.final_cost);
}

TEST(KMeansTest, ValidatesOptions) {
  const auto dataset = EasyBlobs();
  KMeansOptions options;
  options.num_clusters = 0;
  EXPECT_TRUE(RunKMeans(dataset, options).status().IsInvalidArgument());
}

TEST(MiniBatchKMeansTest, ConvergesToReasonableInertia) {
  const auto dataset = EasyBlobs();

  KMeansOptions exact_options;
  exact_options.num_clusters = 3;
  exact_options.initial_seeds = {0, 1, 2};
  const auto exact = RunKMeans(dataset, exact_options).ValueOrDie();

  MiniBatchKMeansOptions options;
  options.num_clusters = 3;
  options.batch_size = 64;
  options.num_batches = 200;
  options.seed = 3;
  const auto result = RunMiniBatchKMeans(dataset, options).ValueOrDie();
  EXPECT_EQ(result.assignment.size(), dataset.num_items());
  // Mini-batch pays an inertia penalty but must stay in the ballpark.
  EXPECT_LT(result.final_cost, std::max(exact.final_cost * 3.0,
                                        exact.final_cost + 100.0));
}

TEST(MiniBatchKMeansTest, ValidatesOptions) {
  const auto dataset = EasyBlobs();
  MiniBatchKMeansOptions options;
  options.num_clusters = 0;
  EXPECT_TRUE(RunMiniBatchKMeans(dataset, options).status()
                  .IsInvalidArgument());
  options.num_clusters = 3;
  options.batch_size = 0;
  EXPECT_TRUE(RunMiniBatchKMeans(dataset, options).status()
                  .IsInvalidArgument());
}

TEST(NumericDatasetTest, FromValuesValidates) {
  EXPECT_TRUE(NumericDataset::FromValues(2, 3, {1.0, 2.0})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(NumericDataset::FromValues(2, 1, {1.0, 2.0}, {0})
                  .status().IsInvalidArgument());
  auto ok = NumericDataset::FromValues(2, 1, {1.0, 2.0}, {0, 1});
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok->Row(1)[0], 2.0);
}

}  // namespace
}  // namespace lshclust
