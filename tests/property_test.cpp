// Parameterized property sweeps over the whole stack: invariants that must
// hold for every configuration of (n, m, k, banding, seed).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "clustering/kmodes.h"
#include "core/mh_kmodes.h"
#include "datagen/conjunctive_generator.h"
#include "metrics/metrics.h"

namespace lshclust {
namespace {

struct Shape {
  uint32_t items;
  uint32_t attributes;
  uint32_t clusters;
  uint32_t domain;
  uint32_t bands;
  uint32_t rows;
  uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const Shape& s) {
    return os << "n" << s.items << "_m" << s.attributes << "_k" << s.clusters
              << "_d" << s.domain << "_" << s.bands << "b" << s.rows << "r_s"
              << s.seed;
  }
};

CategoricalDataset MakeData(const Shape& shape) {
  ConjunctiveDataOptions options;
  options.num_items = shape.items;
  options.num_attributes = shape.attributes;
  options.num_clusters = shape.clusters;
  options.domain_size = shape.domain;
  options.seed = shape.seed;
  return GenerateConjunctiveRuleData(options).ValueOrDie();
}

class ClusteringPropertyTest : public ::testing::TestWithParam<Shape> {};

TEST_P(ClusteringPropertyTest, InvariantsHoldForBothAlgorithms) {
  const Shape shape = GetParam();
  const auto dataset = MakeData(shape);

  EngineOptions engine;
  engine.num_clusters = shape.clusters;
  engine.seed = shape.seed * 31 + 7;
  engine.max_iterations = 30;

  const auto baseline = RunKModes(dataset, engine).ValueOrDie();

  MHKModesOptions mh_options;
  mh_options.engine = engine;
  mh_options.index.banding = {shape.bands, shape.rows};
  const auto mh = RunMHKModes(dataset, mh_options).ValueOrDie();

  for (const ClusteringResult* result :
       {&baseline, &mh.result}) {
    // 1. Every item is assigned a valid cluster.
    ASSERT_EQ(result->assignment.size(), dataset.num_items());
    for (const uint32_t cluster : result->assignment) {
      ASSERT_LT(cluster, shape.clusters);
    }
    // 2. Cost is monotone non-increasing across iterations.
    for (size_t i = 1; i < result->iterations.size(); ++i) {
      EXPECT_LE(result->iterations[i].cost, result->iterations[i - 1].cost)
          << "iteration " << i;
    }
    // 3. Convergence implies a final zero-move iteration.
    if (result->converged) {
      EXPECT_EQ(result->iterations.back().moves, 0u);
    }
    // 4. Iteration numbering is 1..T.
    for (size_t i = 0; i < result->iterations.size(); ++i) {
      EXPECT_EQ(result->iterations[i].iteration, i + 1);
    }
    // 5. Phase timings are non-negative and total covers the phases.
    EXPECT_GE(result->init_seconds, 0.0);
    EXPECT_GE(result->initial_assign_seconds, 0.0);
    EXPECT_GE(result->index_build_seconds, 0.0);
    EXPECT_GE(result->total_seconds,
              result->init_seconds + result->initial_assign_seconds +
                  result->index_build_seconds + result->RefinementSeconds() -
                  1e-6);
    // 5b. Centroid-update timers nest inside their phases: each
    //     iteration's update inside the iteration, the run's total inside
    //     the initial assignment plus the iterations.
    double iteration_updates = 0;
    for (const auto& iteration : result->iterations) {
      EXPECT_GE(iteration.update_seconds, 0.0);
      EXPECT_LE(iteration.update_seconds, iteration.seconds);
      iteration_updates += iteration.update_seconds;
    }
    EXPECT_GE(result->centroid_update_seconds, iteration_updates - 1e-9);
    EXPECT_LE(result->centroid_update_seconds,
              result->initial_assign_seconds + iteration_updates + 1e-9);
  }

  // 6. Baseline scans k clusters per item; MH must not exceed it.
  for (const auto& iteration : baseline.iterations) {
    EXPECT_DOUBLE_EQ(iteration.mean_shortlist,
                     static_cast<double>(shape.clusters));
  }
  for (const auto& iteration : mh.result.iterations) {
    EXPECT_GE(iteration.mean_shortlist, 1.0);  // current cluster always in
    EXPECT_LE(iteration.mean_shortlist,
              static_cast<double>(shape.clusters));
  }

  // 7. Determinism: re-running either algorithm reproduces it bit-for-bit.
  const auto baseline2 = RunKModes(dataset, engine).ValueOrDie();
  EXPECT_EQ(baseline.assignment, baseline2.assignment);
  const auto mh2 = RunMHKModes(dataset, mh_options).ValueOrDie();
  EXPECT_EQ(mh.result.assignment, mh2.result.assignment);

  // 8. Purity is a valid probability for both.
  if (dataset.has_labels()) {
    const double purity_baseline =
        ComputePurity(baseline.assignment, dataset.labels()).ValueOrDie();
    const double purity_mh =
        ComputePurity(mh.result.assignment, dataset.labels()).ValueOrDie();
    EXPECT_GE(purity_baseline, 0.0);
    EXPECT_LE(purity_baseline, 1.0);
    EXPECT_GE(purity_mh, 0.0);
    EXPECT_LE(purity_mh, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClusteringPropertyTest,
    ::testing::Values(
        // Vary items.
        Shape{150, 10, 10, 100, 10, 2, 1},
        Shape{600, 10, 10, 100, 10, 2, 2},
        // Vary clusters (the paper's main axis).
        Shape{400, 12, 8, 200, 20, 5, 3},
        Shape{400, 12, 80, 200, 20, 5, 4},
        // Vary attributes.
        Shape{300, 6, 15, 150, 20, 2, 5},
        Shape{300, 48, 15, 150, 20, 2, 6},
        // Vary banding extremes.
        Shape{300, 16, 20, 300, 1, 1, 7},
        Shape{300, 16, 20, 300, 50, 5, 8},
        Shape{300, 16, 20, 300, 4, 10, 9},
        // Small domain: heavy value collisions.
        Shape{250, 12, 12, 3, 10, 2, 10},
        // k = 1 and k = n edge shapes.
        Shape{100, 8, 1, 50, 8, 2, 11},
        Shape{60, 8, 60, 50, 8, 2, 12}));

// The error-bound direction of the framework: raising b (with r fixed)
// cannot make shortlists smaller on the same data/seeds.
class BandMonotonicityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BandMonotonicityTest, MoreBandsGrowShortlists) {
  const uint32_t rows = GetParam();
  ConjunctiveDataOptions data;
  data.num_items = 400;
  data.num_attributes = 16;
  data.num_clusters = 40;
  data.domain_size = 30;  // noisy enough for real collisions
  data.seed = 13;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  double previous_mean = 0;
  for (const uint32_t bands : {1u, 5u, 20u, 50u}) {
    MHKModesOptions options;
    options.engine.num_clusters = 40;
    options.engine.seed = 17;
    options.engine.max_iterations = 3;
    options.index.banding = {bands, rows};
    const auto run = RunMHKModes(dataset, options).ValueOrDie();
    double mean = 0;
    for (const auto& it : run.result.iterations) mean += it.mean_shortlist;
    mean /= static_cast<double>(run.result.iterations.size());
    EXPECT_GE(mean + 1e-9, previous_mean * 0.8)
        << bands << " bands, " << rows << " rows";
    previous_mean = std::max(previous_mean, mean);
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, BandMonotonicityTest,
                         ::testing::Values(1u, 2u, 5u));

// More rows (b fixed) make banding stricter: shortlists shrink.
TEST(BandMonotonicityTest, MoreRowsShrinkShortlists) {
  ConjunctiveDataOptions data;
  data.num_items = 400;
  data.num_attributes = 16;
  data.num_clusters = 40;
  data.domain_size = 30;
  data.seed = 19;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  double loose_mean = 0, strict_mean = 0;
  for (auto [rows, mean_out] :
       {std::pair<uint32_t, double*>{1, &loose_mean},
        std::pair<uint32_t, double*>{8, &strict_mean}}) {
    MHKModesOptions options;
    options.engine.num_clusters = 40;
    options.engine.seed = 23;
    options.engine.max_iterations = 3;
    options.index.banding = {10, rows};
    const auto run = RunMHKModes(dataset, options).ValueOrDie();
    double mean = 0;
    for (const auto& it : run.result.iterations) mean += it.mean_shortlist;
    *mean_out = mean / static_cast<double>(run.result.iterations.size());
  }
  EXPECT_LE(strict_mean, loose_mean);
}

}  // namespace
}  // namespace lshclust
