#include "core/model_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "datagen/synthetic.h"
#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "util/rng.h"

namespace falcc {
namespace {

Dataset MakeData() {
  return Dataset::Create({"x", "s"}, {1, 0, 2, 1, 3, 0, 4, 1}, 2,
                         {0, 0, 1, 1}, {1})
      .value();
}

std::unique_ptr<Classifier> TrainedTree(const Dataset& d, uint64_t seed) {
  DecisionTreeOptions opt;
  opt.seed = seed;
  auto tree = std::make_unique<DecisionTree>(opt);
  EXPECT_TRUE(tree->Fit(d).ok());
  return tree;
}

TEST(ModelPoolTest, AddAndAccess) {
  const Dataset d = MakeData();
  ModelPool pool;
  pool.Add(TrainedTree(d, 1));
  pool.Add(TrainedTree(d, 2), {0});
  EXPECT_EQ(pool.size(), 2u);
}

TEST(ModelPoolTest, ApplicabilityDefaultsToAllGroups) {
  const Dataset d = MakeData();
  ModelPool pool;
  pool.Add(TrainedTree(d, 1));
  EXPECT_TRUE(pool.Applicable(0, 0));
  EXPECT_TRUE(pool.Applicable(0, 99));
}

TEST(ModelPoolTest, RestrictedApplicability) {
  const Dataset d = MakeData();
  ModelPool pool;
  pool.Add(TrainedTree(d, 1), {1});
  EXPECT_FALSE(pool.Applicable(0, 0));
  EXPECT_TRUE(pool.Applicable(0, 1));
}

// PredictMatrix runs each model through the pool's one prediction path:
// the kernel of a model that lowers (AdaBoost), the interpreted model of
// one that does not (logistic regression). Either way its votes are
// exactly PredictAll of the interpreted model.
TEST(ModelPoolTest, PredictMatrixShape) {
  SyntheticConfig config;
  config.num_samples = 300;
  config.seed = 5;
  const Dataset d = GenerateImplicitBias(config).value();
  AdaBoostOptions boost;
  boost.num_estimators = 10;
  boost.base.max_depth = 5;
  auto boosted = std::make_unique<AdaBoost>(boost);
  ASSERT_TRUE(boosted->Fit(d).ok());
  auto logistic = std::make_unique<LogisticRegression>();
  ASSERT_TRUE(logistic->Fit(d).ok());
  ModelPool pool;
  pool.Add(std::move(boosted));
  pool.Add(std::move(logistic));
  ASSERT_NE(pool.kernel(0), nullptr);
  ASSERT_EQ(pool.kernel(1), nullptr);

  const auto votes = pool.PredictMatrix(d.features(), d.num_features());
  ASSERT_EQ(votes.size(), 2u);
  for (size_t m = 0; m < pool.size(); ++m) {
    SCOPED_TRACE(m);
    EXPECT_EQ(votes[m], PredictAll(pool.model(m), d));
    // Both labels occur, so the comparison is not vacuous.
    EXPECT_NE(std::count(votes[m].begin(), votes[m].end(), 1), 0);
    EXPECT_NE(std::count(votes[m].begin(), votes[m].end(), 0), 0);
  }
}

// --- Binary pool layout ------------------------------------------------

// A double drawn across signs and magnitudes, zeros of both signs
// included (every value the text format round-trips exactly).
double RandomDouble(Rng* rng) {
  switch (rng->UniformInt(5)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return rng->Uniform(-1.0, 1.0);
    case 3: return rng->Normal(0.0, 1e6);
    default: return std::ldexp(rng->Uniform(-1.0, 1.0), -300);
  }
}

// A random valid tree: children appended after their parent, arbitrary
// leaf fields (the readers accept any feature < 0 and any in-range
// child index on a leaf), random options.
DecisionTree RandomTree(Rng* rng) {
  DecisionTreeOptions options;
  options.max_depth = rng->UniformInt(20);
  options.min_samples_split = rng->UniformInt(10);
  options.min_samples_leaf = rng->UniformInt(10);
  options.criterion =
      rng->Bernoulli(0.5) ? SplitCriterion::kGini : SplitCriterion::kEntropy;
  options.max_features = rng->UniformInt(5);
  options.seed = rng->Next();
  std::vector<TreeNode> nodes(1);
  const size_t limit = 1 + rng->UniformInt(40);
  for (size_t i = 0; i < nodes.size(); ++i) {
    TreeNode& node = nodes[i];
    node.proba = rng->Uniform();
    node.threshold = RandomDouble(rng);
    if (nodes.size() + 2 <= limit && rng->Bernoulli(0.6)) {
      node.feature = static_cast<int>(rng->UniformInt(12));
      node.left = static_cast<int>(nodes.size());
      node.right = node.left + 1;
      nodes.resize(nodes.size() + 2);
    } else {
      node.feature = -1 - static_cast<int>(rng->UniformInt(3));
      node.left = static_cast<int>(rng->UniformInt(i + 1)) - 1;
      node.right = -1;
    }
  }
  return DecisionTree::FromParts(options, std::move(nodes),
                                 rng->UniformInt(30));
}

std::vector<DecisionTree> RandomTrees(Rng* rng, size_t count) {
  std::vector<DecisionTree> trees;
  for (size_t t = 0; t < count; ++t) trees.push_back(RandomTree(rng));
  return trees;
}

// Every model's text record (SerializeClassifier, the per-model text the
// goldens pin), in pool order.
std::string TextOf(const ModelPool& pool) {
  std::ostringstream out;
  for (size_t m = 0; m < pool.size(); ++m) {
    EXPECT_TRUE(SerializeClassifier(pool.model(m), &out).ok());
  }
  return out.str();
}

// The binary layout stores exactly what the text records store: a pool
// decoded from binary re-serializes through SerializeClassifier to the
// same text bytes as the original pool, for random trees, AdaBoost
// ensembles (zero trees included), forests and a model kept as a text
// record.
TEST(BinaryPoolTest, DecodesToTheSameTextAsTheOriginalPool) {
  const Dataset d = MakeData();
  LogisticRegression logistic;
  ASSERT_TRUE(logistic.Fit(d).ok());
  Rng rng(20240611);
  for (int round = 0; round < 40; ++round) {
    ModelPool pool;
    const size_t num_models = 1 + rng.UniformInt(5);
    for (size_t m = 0; m < num_models; ++m) {
      std::vector<size_t> groups(rng.UniformInt(3));
      for (size_t& g : groups) g = rng.UniformInt(4);
      switch (rng.UniformInt(4)) {
        case 0:
          pool.Add(std::make_unique<DecisionTree>(RandomTree(&rng)), groups);
          break;
        case 1: {
          AdaBoostOptions options;
          options.num_estimators = rng.UniformInt(50);
          options.learning_rate = RandomDouble(&rng);
          const size_t count = rng.UniformInt(4);
          std::vector<double> alphas(count);
          for (double& alpha : alphas) alpha = RandomDouble(&rng);
          pool.Add(std::make_unique<AdaBoost>(AdaBoost::FromParts(
                       options, RandomTrees(&rng, count), alphas)),
                   groups);
          break;
        }
        case 2: {
          RandomForestOptions options;
          options.num_trees = rng.UniformInt(50);
          options.max_features = rng.UniformInt(5);
          options.seed = rng.Next();
          pool.Add(std::make_unique<RandomForest>(RandomForest::FromParts(
                       options, RandomTrees(&rng, 1 + rng.UniformInt(4)))),
                   groups);
          break;
        }
        default:
          pool.Add(logistic.Clone(), groups);
      }
    }
    SCOPED_TRACE("round " + std::to_string(round));
    std::string binary;
    ASSERT_TRUE(pool.SerializeBinary(&binary).ok());
    ASSERT_TRUE(binary.starts_with("falcc-p1"));
    EXPECT_EQ(binary.size() % 8, 0u);
    const Result<ModelPool> from_binary = ModelPool::DeserializeBinary(binary);
    ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();

    EXPECT_EQ(TextOf(from_binary.value()), TextOf(pool));
    std::string again;
    ASSERT_TRUE(from_binary.value().SerializeBinary(&again).ok());
    EXPECT_EQ(again, binary);
  }
}

// Every strict prefix of a binary pool is rejected, and so is a text
// pool.
TEST(BinaryPoolTest, RejectsEveryTruncation) {
  const Dataset d = MakeData();
  ModelPool pool;
  pool.Add(TrainedTree(d, 1), {1});
  pool.Add(TrainedTree(d, 2));
  std::string binary;
  ASSERT_TRUE(pool.SerializeBinary(&binary).ok());
  for (size_t cut = 0; cut < binary.size(); ++cut) {
    EXPECT_FALSE(ModelPool::DeserializeBinary(binary.substr(0, cut)).ok())
        << cut;
  }
  EXPECT_FALSE(ModelPool::DeserializeBinary(TextOf(pool)).ok());
  EXPECT_FALSE(
      ModelPool::DeserializeBinary(binary + std::string(8, '\0')).ok());
}

TEST(EnumerateCombinationsTest, FullCrossProduct) {
  const Dataset d = MakeData();
  ModelPool pool;
  pool.Add(TrainedTree(d, 1));
  pool.Add(TrainedTree(d, 2));
  pool.Add(TrainedTree(d, 3));
  const auto combos = EnumerateCombinations(pool, 2).value();
  EXPECT_EQ(combos.size(), 9u);  // 3^2
  // All combinations distinct.
  for (size_t i = 0; i < combos.size(); ++i) {
    for (size_t j = i + 1; j < combos.size(); ++j) {
      EXPECT_NE(combos[i], combos[j]);
    }
  }
}

TEST(EnumerateCombinationsTest, RespectsApplicability) {
  const Dataset d = MakeData();
  ModelPool pool;
  pool.Add(TrainedTree(d, 1));       // all groups
  pool.Add(TrainedTree(d, 2), {0});  // group 0 only
  const auto combos = EnumerateCombinations(pool, 2).value();
  // Group 0: 2 options; group 1: 1 option -> 2 combos.
  EXPECT_EQ(combos.size(), 2u);
  for (const auto& combo : combos) {
    EXPECT_EQ(combo[1], 0u);  // group 1 must use model 0
  }
}

TEST(EnumerateCombinationsTest, FailsWhenGroupUncovered) {
  const Dataset d = MakeData();
  ModelPool pool;
  pool.Add(TrainedTree(d, 1), {0});
  Result<std::vector<ModelCombination>> combos =
      EnumerateCombinations(pool, 2);
  EXPECT_FALSE(combos.ok());
  EXPECT_EQ(combos.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EnumerateCombinationsTest, EnforcesCombinationLimit) {
  const Dataset d = MakeData();
  ModelPool pool;
  for (int i = 0; i < 10; ++i) pool.Add(TrainedTree(d, i));
  // 10^6 combinations exceed a limit of 1000.
  EXPECT_FALSE(EnumerateCombinations(pool, 6, 1000).ok());
}

TEST(EnumerateCombinationsTest, RejectsEmptyInputs) {
  ModelPool pool;
  EXPECT_FALSE(EnumerateCombinations(pool, 1).ok());
  const Dataset d = MakeData();
  ModelPool pool2;
  pool2.Add(TrainedTree(d, 1));
  EXPECT_FALSE(EnumerateCombinations(pool2, 0).ok());
}

}  // namespace
}  // namespace falcc
