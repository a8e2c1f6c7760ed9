#include "ml/decision_tree.h"

#include <limits>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "util/rng.h"

namespace falcc {
namespace {

// Axis-separable toy data: y = 1 iff feature0 > 0.
Dataset MakeSeparable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> features;
  std::vector<int> labels;
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(-1.0, 1.0);
    const double x1 = rng.Uniform(-1.0, 1.0);
    features.push_back(x0);
    features.push_back(x1);
    labels.push_back(x0 > 0.0 ? 1 : 0);
  }
  return Dataset::Create({"x0", "x1"}, std::move(features), 2,
                         std::move(labels), {})
      .value();
}

TEST(DecisionTreeTest, LearnsSeparableData) {
  const Dataset d = MakeSeparable(500, 1);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(d).ok());
  EXPECT_GT(Accuracy(tree, d), 0.99);
}

TEST(DecisionTreeTest, GeneralizesToFreshData) {
  const Dataset train = MakeSeparable(500, 1);
  const Dataset test = MakeSeparable(500, 2);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(train).ok());
  EXPECT_GT(Accuracy(tree, test), 0.97);
}

TEST(DecisionTreeTest, DepthZeroIsMajorityVote) {
  const Dataset d = MakeSeparable(100, 3);
  DecisionTreeOptions opt;
  opt.max_depth = 0;
  DecisionTree tree(opt);
  ASSERT_TRUE(tree.Fit(d).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.depth(), 0u);
  // Every sample gets the same probability.
  EXPECT_DOUBLE_EQ(tree.PredictProba(d.Row(0)), tree.PredictProba(d.Row(1)));
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  const Dataset d = MakeSeparable(500, 4);
  DecisionTreeOptions opt;
  opt.max_depth = 2;
  DecisionTree tree(opt);
  ASSERT_TRUE(tree.Fit(d).ok());
  EXPECT_LE(tree.depth(), 2u);
}

TEST(DecisionTreeTest, PureNodeStops) {
  // All labels equal -> single leaf.
  Dataset d =
      Dataset::Create({"x"}, {1.0, 2.0, 3.0}, 1, {1, 1, 1}, {}).value();
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(d).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.PredictProba(d.Row(0)), 1.0);
}

TEST(DecisionTreeTest, WeightsShiftPrediction) {
  // Two identical points with conflicting labels: weights decide.
  Dataset d =
      Dataset::Create({"x"}, {1.0, 1.0}, 1, {0, 1}, {}).value();
  DecisionTree tree;
  const std::vector<double> w = {1.0, 9.0};
  ASSERT_TRUE(tree.Fit(d, w).ok());
  EXPECT_EQ(tree.Predict(d.Row(0)), 1);
  const std::vector<double> w2 = {9.0, 1.0};
  ASSERT_TRUE(tree.Fit(d, w2).ok());
  EXPECT_EQ(tree.Predict(d.Row(0)), 0);
}

TEST(DecisionTreeTest, EntropyCriterionAlsoLearns) {
  const Dataset d = MakeSeparable(300, 5);
  DecisionTreeOptions opt;
  opt.criterion = SplitCriterion::kEntropy;
  DecisionTree tree(opt);
  ASSERT_TRUE(tree.Fit(d).ok());
  EXPECT_GT(Accuracy(tree, d), 0.98);
}

TEST(DecisionTreeTest, MinSamplesLeafLimitsSplits) {
  const Dataset d = MakeSeparable(100, 6);
  DecisionTreeOptions opt;
  opt.min_samples_leaf = 60;  // no split can satisfy both sides
  DecisionTree tree(opt);
  ASSERT_TRUE(tree.Fit(d).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(DecisionTreeTest, FeatureSubsamplingStillWorks) {
  const Dataset d = MakeSeparable(500, 7);
  DecisionTreeOptions opt;
  opt.max_features = 1;
  opt.seed = 3;
  DecisionTree tree(opt);
  ASSERT_TRUE(tree.Fit(d).ok());
  // With only 2 features and the informative one being x0, random
  // subsampling still finds it at some depth.
  EXPECT_GT(Accuracy(tree, d), 0.8);
}

TEST(DecisionTreeTest, DeterministicForSeed) {
  const Dataset d = MakeSeparable(300, 8);
  DecisionTreeOptions opt;
  opt.max_features = 1;
  opt.seed = 42;
  DecisionTree a(opt), b(opt);
  ASSERT_TRUE(a.Fit(d).ok());
  ASSERT_TRUE(b.Fit(d).ok());
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_EQ(a.Predict(d.Row(i)), b.Predict(d.Row(i)));
  }
}

TEST(DecisionTreeTest, CloneKeepsFittedState) {
  const Dataset d = MakeSeparable(300, 9);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(d).ok());
  const std::unique_ptr<Classifier> clone = tree.Clone();
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(tree.Predict(d.Row(i)), clone->Predict(d.Row(i)));
  }
}

TEST(DecisionTreeTest, RejectsEmptyData) {
  Dataset d;
  DecisionTree tree;
  EXPECT_FALSE(tree.Fit(d).ok());
}

TEST(DecisionTreeTest, RejectsBadWeights) {
  const Dataset d = MakeSeparable(10, 10);
  DecisionTree tree;
  const std::vector<double> neg = {1, 1, 1, 1, 1, 1, 1, 1, 1, -1};
  EXPECT_FALSE(tree.Fit(d, neg).ok());
  const std::vector<double> wrong_size = {1.0};
  EXPECT_FALSE(tree.Fit(d, wrong_size).ok());
  // NaN and +inf slip past `w < 0` and `sum <= 0`; so does a finite set
  // whose sum overflows.
  std::vector<double> nan(10, 1.0);
  nan[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(tree.Fit(d, nan).ok());
  std::vector<double> inf(10, 1.0);
  inf[5] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(tree.Fit(d, inf).ok());
  std::vector<double> overflow(10, 0.0);
  overflow[0] = overflow[1] = 1e308;
  EXPECT_FALSE(tree.Fit(d, overflow).ok());
}

TEST(DecisionTreeTest, ProbaIsLeafPositiveFraction) {
  // 4 points in one leaf region (depth 0): proba = 3/4.
  Dataset d = Dataset::Create({"x"}, {1, 1, 1, 1}, 1, {1, 1, 1, 0}, {})
                  .value();
  DecisionTreeOptions opt;
  opt.max_depth = 0;
  DecisionTree tree(opt);
  ASSERT_TRUE(tree.Fit(d).ok());
  EXPECT_DOUBLE_EQ(tree.PredictProba(d.Row(0)), 0.75);
}

TEST(DecisionTreeTest, NameReflectsOptions) {
  DecisionTreeOptions opt;
  opt.max_depth = 3;
  opt.criterion = SplitCriterion::kEntropy;
  EXPECT_EQ(DecisionTree(opt).Name(), "DecisionTree(depth=3,entropy)");
}

}  // namespace
}  // namespace falcc
