#include "ml/grid_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "data/split.h"
#include "datagen/synthetic.h"
#include "fairness/diversity.h"
#include "ml/adaboost.h"
#include "ml/serialize.h"
#include "util/parallel.h"

namespace falcc {
namespace {

TrainValTest MakeSplits() {
  SyntheticConfig cfg;
  cfg.num_samples = 1500;
  cfg.seed = 3;
  const Dataset d = GenerateImplicitBias(cfg).value();
  return SplitDatasetDefault(d, 11).value();
}

TEST(DiverseTrainerTest, ProducesRequestedPoolSize) {
  const TrainValTest s = MakeSplits();
  DiverseTrainerOptions opt;
  opt.pool_size = 5;
  opt.accuracy_tolerance = 1.0;  // no pruning
  Result<DiversePool> pool = TrainDiversePool(s.train, s.validation, opt);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool.value().models.size(), 5u);
}

TEST(DiverseTrainerTest, PoolSizeCappedByGrid) {
  const TrainValTest s = MakeSplits();
  DiverseTrainerOptions opt;
  opt.pool_size = 100;  // grid has 2*2*2 = 8 candidates
  opt.accuracy_tolerance = 1.0;
  Result<DiversePool> pool = TrainDiversePool(s.train, s.validation, opt);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool.value().models.size(), 8u);
}

TEST(DiverseTrainerTest, AccuracyTolerancePrunesWeakCandidates) {
  const TrainValTest s = MakeSplits();
  DiverseTrainerOptions opt;
  opt.pool_size = 8;
  opt.accuracy_tolerance = 0.0;  // only ties with the best survive
  const DiversePool pool =
      TrainDiversePool(s.train, s.validation, opt).value();
  ASSERT_GE(pool.models.size(), 1u);
  // Every surviving model matches the best candidate's accuracy.
  double best = 0.0;
  for (const auto& m : pool.models) {
    best = std::max(best, Accuracy(*m, s.validation));
  }
  for (const auto& m : pool.models) {
    EXPECT_NEAR(Accuracy(*m, s.validation), best, 1e-12);
  }
}

TEST(DiverseTrainerTest, EntropyMatchesSelectedPool) {
  const TrainValTest s = MakeSplits();
  DiverseTrainerOptions opt;
  opt.pool_size = 4;
  const DiversePool pool =
      TrainDiversePool(s.train, s.validation, opt).value();
  std::vector<std::vector<int>> votes;
  for (const auto& m : pool.models) {
    votes.push_back(PredictAll(*m, s.validation));
  }
  EXPECT_NEAR(pool.entropy, EnsembleEntropy(votes).value(), 1e-12);
}

TEST(DiverseTrainerTest, LargerPoolNeverLessDiverseThanGreedyPrefix) {
  // The greedy selection grows entropy-maximally: adding the 4th model to
  // the 3-pool should not reduce the entropy the search reports vs a
  // 3-pool run with identical candidates.
  const TrainValTest s = MakeSplits();
  DiverseTrainerOptions small;
  small.pool_size = 3;
  DiverseTrainerOptions large;
  large.pool_size = 6;
  const double e_small =
      TrainDiversePool(s.train, s.validation, small).value().entropy;
  const double e_large =
      TrainDiversePool(s.train, s.validation, large).value().entropy;
  // Entropy is not monotone in pool size in general, but both must be
  // valid entropies.
  EXPECT_GE(e_small, 0.0);
  EXPECT_LE(e_small, 1.0);
  EXPECT_GE(e_large, 0.0);
  EXPECT_LE(e_large, 1.0);
}

std::string Bytes(const Classifier& model) {
  std::ostringstream out;
  EXPECT_TRUE(SerializeClassifier(model, &out).ok());
  return out.str();
}

// AdaBoost cells are boosted once per (depth, criterion) and cut to
// their estimator counts, runs claimed largest first, not in grid order;
// each cell still lands in its grid slot with its grid seed, so the
// thread count changes nothing, and every cell equals a fresh fit of its
// own. The estimator grid is unsorted, so the claim order differs from
// it, and repeats a count, so two cells cut the same prefix under
// different seeds.
TEST(DiverseTrainerTest, ClaimOrderIndependentOfThreadCount) {
  const TrainValTest s = MakeSplits();
  DiverseTrainerOptions opt;
  opt.estimator_grid = {4, 12, 8, 4};
  opt.depth_grid = {5, 2};
  opt.pool_size = 16;
  opt.accuracy_tolerance = 1.0;  // keep every cell selectable
  const size_t restore = Parallelism();
  SetParallelism(1);
  const DiversePool serial =
      TrainDiversePool(s.train, s.validation, opt).value();
  SetParallelism(4);
  const DiversePool parallel =
      TrainDiversePool(s.train, s.validation, opt).value();
  SetParallelism(restore);
  ASSERT_EQ(serial.models.size(), 16u);
  ASSERT_EQ(parallel.models.size(), serial.models.size());
  for (size_t m = 0; m < serial.models.size(); ++m) {
    EXPECT_EQ(Bytes(*serial.models[m]), Bytes(*parallel.models[m]))
        << "pool model " << m;
  }
  EXPECT_EQ(serial.entropy, parallel.entropy);

  // The pool holds every cell, each equal to a fresh fit with the seed of
  // its grid position (estimators, then depth, then gini before entropy).
  std::multiset<std::string> expected;
  uint64_t seed = opt.seed;
  for (size_t estimators : opt.estimator_grid) {
    for (size_t depth : opt.depth_grid) {
      for (SplitCriterion criterion :
           {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
        AdaBoostOptions cell;
        cell.num_estimators = estimators;
        cell.base.max_depth = depth;
        cell.base.criterion = criterion;
        cell.base.seed = seed++;
        AdaBoost model(cell);
        ASSERT_TRUE(model.Fit(s.train).ok());
        expected.insert(Bytes(model));
      }
    }
  }
  EXPECT_EQ(expected.size(), 16u);
  for (const DiversePool* pool : {&serial, &parallel}) {
    std::multiset<std::string> pooled;
    for (const auto& m : pool->models) pooled.insert(Bytes(*m));
    EXPECT_TRUE(pooled == expected);
  }
}

TEST(DiverseTrainerTest, RandomForestFamilyWorks) {
  const TrainValTest s = MakeSplits();
  DiverseTrainerOptions opt;
  opt.family = TrainerFamily::kRandomForest;
  opt.pool_size = 3;
  Result<DiversePool> pool = TrainDiversePool(s.train, s.validation, opt);
  ASSERT_TRUE(pool.ok());
  EXPECT_GE(pool.value().models.size(), 1u);
  EXPECT_LE(pool.value().models.size(), 3u);
  for (const auto& m : pool.value().models) {
    EXPECT_NE(m->Name().find("RandomForest"), std::string::npos);
  }
}

TEST(DiverseTrainerTest, ModelsAreReasonablyAccurate) {
  const TrainValTest s = MakeSplits();
  DiverseTrainerOptions opt;
  const DiversePool pool =
      TrainDiversePool(s.train, s.validation, opt).value();
  // The anchor (first selected) is the most accurate candidate; it must
  // beat chance clearly on this separable dataset.
  EXPECT_GT(Accuracy(*pool.models[0], s.validation), 0.7);
}

TEST(DiverseTrainerTest, RejectsEmptyGrid) {
  const TrainValTest s = MakeSplits();
  DiverseTrainerOptions opt;
  opt.estimator_grid.clear();
  EXPECT_FALSE(TrainDiversePool(s.train, s.validation, opt).ok());
  opt = {};
  opt.try_gini = false;
  opt.try_entropy = false;
  EXPECT_FALSE(TrainDiversePool(s.train, s.validation, opt).ok());
  opt = {};
  opt.pool_size = 0;
  EXPECT_FALSE(TrainDiversePool(s.train, s.validation, opt).ok());
  // A zero estimator count fails as AdaBoost::Fit does, even beside a
  // larger count of the same (depth, criterion).
  opt = {};
  opt.estimator_grid = {5, 0};
  EXPECT_FALSE(TrainDiversePool(s.train, s.validation, opt).ok());
}

TEST(StandardPoolTest, TrainsFiveModels) {
  const TrainValTest s = MakeSplits();
  Result<std::vector<std::unique_ptr<Classifier>>> pool =
      TrainStandardPool(s.train, 1);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool.value().size(), 5u);
  for (const auto& m : pool.value()) {
    EXPECT_GT(Accuracy(*m, s.validation), 0.55) << m->Name();
  }
}

}  // namespace
}  // namespace falcc
