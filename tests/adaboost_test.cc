#include "ml/adaboost.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/feature_columns.h"
#include "util/binary.h"
#include "util/rng.h"

namespace falcc {
namespace {

// XOR-style data a depth-1 stump cannot solve alone but boosted deeper
// trees can: y = 1 iff x0 * x1 > 0.
Dataset MakeXor(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> features;
  std::vector<int> labels;
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(-1.0, 1.0);
    const double x1 = rng.Uniform(-1.0, 1.0);
    features.push_back(x0);
    features.push_back(x1);
    labels.push_back(x0 * x1 > 0.0 ? 1 : 0);
  }
  return Dataset::Create({"x0", "x1"}, std::move(features), 2,
                         std::move(labels), {})
      .value();
}

TEST(AdaBoostTest, LearnsXorWithDepthTwoTrees) {
  const Dataset d = MakeXor(1000, 1);
  AdaBoostOptions opt;
  opt.num_estimators = 20;
  opt.base.max_depth = 2;
  AdaBoost model(opt);
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_GT(Accuracy(model, d), 0.95);
}

TEST(AdaBoostTest, BoostingBeatsSingleStump) {
  const Dataset d = MakeXor(1000, 2);
  AdaBoostOptions stump_opt;
  stump_opt.num_estimators = 1;
  stump_opt.base.max_depth = 1;
  AdaBoost single(stump_opt);
  ASSERT_TRUE(single.Fit(d).ok());

  AdaBoostOptions boost_opt;
  boost_opt.num_estimators = 50;
  boost_opt.base.max_depth = 2;
  AdaBoost boosted(boost_opt);
  ASSERT_TRUE(boosted.Fit(d).ok());
  EXPECT_GT(Accuracy(boosted, d), Accuracy(single, d) + 0.2);
}

TEST(AdaBoostTest, StopsEarlyOnPerfectFit) {
  // Trivially separable data: the first depth-7 tree is perfect.
  Dataset d = Dataset::Create({"x"}, {1, 2, 3, 4, 10, 11, 12, 13}, 1,
                              {0, 0, 0, 0, 1, 1, 1, 1}, {})
                  .value();
  AdaBoostOptions opt;
  opt.num_estimators = 20;
  AdaBoost model(opt);
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_EQ(model.num_fitted(), 1u);
  EXPECT_DOUBLE_EQ(Accuracy(model, d), 1.0);
}

TEST(AdaBoostTest, ProbaWithinUnitInterval) {
  const Dataset d = MakeXor(300, 3);
  AdaBoost model;
  ASSERT_TRUE(model.Fit(d).ok());
  for (size_t i = 0; i < d.num_rows(); ++i) {
    const double p = model.PredictProba(d.Row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(AdaBoostTest, PredictConsistentWithProba) {
  const Dataset d = MakeXor(300, 4);
  AdaBoost model;
  ASSERT_TRUE(model.Fit(d).ok());
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_EQ(model.Predict(d.Row(i)),
              model.PredictProba(d.Row(i)) >= 0.5 ? 1 : 0);
  }
}

TEST(AdaBoostTest, RespectsSampleWeights) {
  // Conflicting labels at identical points decided by weights.
  Dataset d = Dataset::Create({"x"}, {1.0, 1.0}, 1, {0, 1}, {}).value();
  AdaBoost model;
  const std::vector<double> w = {0.1, 0.9};
  ASSERT_TRUE(model.Fit(d, w).ok());
  EXPECT_EQ(model.Predict(d.Row(0)), 1);
}

TEST(AdaBoostTest, DeterministicForConfig) {
  const Dataset d = MakeXor(500, 5);
  AdaBoost a, b;
  ASSERT_TRUE(a.Fit(d).ok());
  ASSERT_TRUE(b.Fit(d).ok());
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(a.PredictProba(d.Row(i)), b.PredictProba(d.Row(i)));
  }
}

TEST(AdaBoostTest, CloneKeepsFittedState) {
  const Dataset d = MakeXor(300, 6);
  AdaBoost model;
  ASSERT_TRUE(model.Fit(d).ok());
  const std::unique_ptr<Classifier> clone = model.Clone();
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(model.PredictProba(d.Row(i)),
                     clone->PredictProba(d.Row(i)));
  }
}

TEST(AdaBoostTest, RejectsBadConfig) {
  const Dataset d = MakeXor(50, 7);
  AdaBoostOptions opt;
  opt.num_estimators = 0;
  AdaBoost model(opt);
  EXPECT_FALSE(model.Fit(d).ok());
  Dataset empty;
  AdaBoost model2;
  EXPECT_FALSE(model2.Fit(empty).ok());
}

// Non-finite weights, or finite ones whose sum overflows, would
// normalize every boosting weight to NaN and train a broken model.
TEST(AdaBoostTest, RejectsNonFiniteWeights) {
  const Dataset d = MakeXor(50, 7);
  AdaBoost model;
  std::vector<double> nan(50, 1.0);
  nan[10] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(model.Fit(d, nan).ok());
  std::vector<double> inf(50, 1.0);
  inf[20] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(model.Fit(d, inf).ok());
  std::vector<double> overflow(50, 0.0);
  overflow[0] = overflow[1] = 1e308;
  EXPECT_FALSE(model.Fit(d, overflow).ok());
  // The same guard holds for the column-cache overload.
  EXPECT_FALSE(model.Fit(FeatureColumns(d), overflow).ok());
}

TEST(AdaBoostTest, NameReflectsOptions) {
  AdaBoostOptions opt;
  opt.num_estimators = 5;
  opt.base.max_depth = 1;
  EXPECT_EQ(AdaBoost(opt).Name(), "AdaBoost(T=5,depth=1,gini)");
}

std::string BinaryBytes(const AdaBoost& model) {
  std::string bytes;
  io::BinaryWriter writer(&bytes);
  model.SerializeBinary(&writer);
  return bytes;
}

// For every k <= `rounds`, the k-round prefix of one `rounds`-round fit
// serializes byte-identically to a fresh k-round fit under a different
// cell seed, which the prefix's trees must carry. Returns the run's
// fitted count.
size_t ExpectPrefixesMatchFreshFits(const Dataset& d, size_t depth,
                                    size_t rounds) {
  AdaBoostOptions run_opt;
  run_opt.num_estimators = rounds;
  run_opt.base.max_depth = depth;
  run_opt.base.seed = 7;
  AdaBoost run(run_opt);
  EXPECT_TRUE(run.Fit(d).ok());
  for (size_t k = 1; k <= rounds; ++k) {
    AdaBoostOptions cell = run_opt;
    cell.num_estimators = k;
    cell.base.seed = 40 + k;
    AdaBoost fresh(cell);
    EXPECT_TRUE(fresh.Fit(d).ok());
    EXPECT_EQ(BinaryBytes(run.Prefix(cell)), BinaryBytes(fresh)) << "k=" << k;
  }
  return run.num_fitted();
}

TEST(AdaBoostPrefixTest, MatchesFreshFitsOnOrdinaryData) {
  EXPECT_EQ(ExpectPrefixesMatchFreshFits(MakeXor(400, 9), 2, 12), 12u);
}

// A perfect tree (err <= 0) stops the run, and with it every longer cell;
// shorter cells keep their own counts.
TEST(AdaBoostPrefixTest, PerfectFitStopCarriesOver) {
  // The first tree is perfect: the stop precedes every count but 1.
  const Dataset separable =
      Dataset::Create({"x"}, {1, 2, 3, 4, 10, 11, 12, 13}, 1,
                      {0, 0, 0, 0, 1, 1, 1, 1}, {})
          .value();
  EXPECT_EQ(ExpectPrefixesMatchFreshFits(separable, 7, 6), 1u);
  // Depth-2 trees on this small XOR sample reach a perfect tree in round
  // 8 of 12: between the counts 7 and 9.
  const Dataset xor_sample = MakeXor(16, 4);
  EXPECT_EQ(ExpectPrefixesMatchFreshFits(xor_sample, 2, 12), 8u);
}

// Round 0 at chance (err >= 0.5) keeps its one tree with alpha 1.0, for
// every count.
TEST(AdaBoostPrefixTest, ChanceFirstRoundCarriesOver) {
  const Dataset coin =
      Dataset::Create({"x"}, {1, 1, 1, 1}, 1, {0, 1, 0, 1}, {}).value();
  EXPECT_EQ(ExpectPrefixesMatchFreshFits(coin, 7, 5), 1u);
  AdaBoostOptions opt;
  opt.num_estimators = 3;
  AdaBoost run(opt);
  ASSERT_TRUE(run.Fit(coin).ok());
  const AdaBoost reference = AdaBoost::FromParts(
      opt, {DecisionTree::FromParts(opt.base, {TreeNode{}}, 0)}, {1.0});
  EXPECT_EQ(BinaryBytes(run.Prefix(opt)), BinaryBytes(reference));
}

TEST(AdaBoostPrefixTest, SharesRoundsIgnoresCountAndUnreadSeed) {
  AdaBoostOptions a;
  AdaBoostOptions b = a;
  b.num_estimators = a.num_estimators + 5;
  b.base.seed = a.base.seed + 1;
  EXPECT_TRUE(AdaBoost::SharesRounds(a, b));
  AdaBoostOptions subsampled_a = a;
  AdaBoostOptions subsampled_b = b;
  subsampled_a.base.max_features = subsampled_b.base.max_features = 1;
  EXPECT_FALSE(AdaBoost::SharesRounds(subsampled_a, subsampled_b));
  b = a;
  b.base.criterion = SplitCriterion::kEntropy;
  EXPECT_FALSE(AdaBoost::SharesRounds(a, b));
  b = a;
  b.base.max_depth = a.base.max_depth + 1;
  EXPECT_FALSE(AdaBoost::SharesRounds(a, b));
  b = a;
  b.learning_rate = 0.5;
  EXPECT_FALSE(AdaBoost::SharesRounds(a, b));
}

class AdaBoostGridSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(AdaBoostGridSweep, AllPaperGridConfigsTrainAndPredict) {
  const auto [estimators, depth] = GetParam();
  const Dataset d = MakeXor(400, 8);
  AdaBoostOptions opt;
  opt.num_estimators = estimators;
  opt.base.max_depth = depth;
  AdaBoost model(opt);
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_GE(Accuracy(model, d), 0.45);  // never worse than chance-ish
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, AdaBoostGridSweep,
                         ::testing::Combine(::testing::Values(5, 20),
                                            ::testing::Values(1, 7)));

}  // namespace
}  // namespace falcc
