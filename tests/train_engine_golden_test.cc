// Golden-equivalence tests of the presorted split engine.
//
// The engine (ml/tree_builder.h) must reproduce the seed trainer's
// models exactly — same split ties, same midpoint thresholds, same node
// order — not just approximately. Three equivalences are asserted per
// case:
//
//  1. the new engine's serialized bytes equal the frozen seed trainer's
//     (ml/reference_trainer.h) serialized bytes, and
//  2. both equal the golden file checked in under tests/golden/ (which
//     pins today's behaviour against future drift in either trainer),
//  3. per-row probabilities of the new model equal the model
//     deserialized from the golden file, bit for bit, on held-out data.
//
// The cases cover weighted samples, duplicate feature values (tied
// thresholds), max_features subsampling, and min-leaf constraints. A
// second group checks engine == reference only, with no golden file:
// duplicated columns (gains tied across features), a 60-round depth-9
// entropy AdaBoost, both criteria under min_samples_leaf and
// max_features, and the splits whose list partition is skipped (large
// min_samples_split, max_depth 1 and 2).
//
// Regenerate the golden files after an *intentional* behaviour change
// with: FALCC_REGEN_GOLDENS=1 ./train_engine_golden_test

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "data/feature_columns.h"
#include "datagen/synthetic.h"
#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "ml/reference_trainer.h"
#include "ml/serialize.h"
#include "ml/tree_builder.h"

namespace falcc {
namespace {

// Quantizes every feature to one decimal so columns are full of
// duplicate values — the regime where threshold scans must skip equal
// neighbours and tie-break identically to the seed.
Dataset Quantize(Dataset data) {
  for (size_t i = 0; i < data.num_rows(); ++i) {
    for (double& v : data.MutableRow(i)) {
      v = std::round(v * 10.0) / 10.0;
    }
  }
  return data;
}

Dataset Implicit(size_t n, uint64_t seed) {
  SyntheticConfig config;
  config.num_samples = n;
  config.seed = seed;
  return GenerateImplicitBias(config).value();
}

Dataset Social(size_t n, uint64_t seed) {
  SyntheticConfig config;
  config.num_samples = n;
  config.seed = seed;
  return GenerateSocialBias(config).value();
}

// Exactly representable non-uniform weights (…, 1.0, 1.25, 1.5, …).
std::vector<double> PatternWeights(size_t n) {
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 + static_cast<double>(i % 7) * 0.25;
  }
  return weights;
}

std::string Bytes(const Classifier& model) {
  std::ostringstream out;
  EXPECT_TRUE(SerializeClassifier(model, &out).ok());
  return out.str();
}

// Compares serialized bytes against tests/golden/<name>.txt, writing the
// file instead when FALCC_REGEN_GOLDENS is set. Returns the golden
// bytes (== `bytes` on success).
std::string CheckGolden(const std::string& name, const std::string& bytes) {
  const std::string path = std::string(FALCC_GOLDEN_DIR) + "/" + name + ".txt";
  if (std::getenv("FALCC_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    out << bytes;
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    return bytes;
  }
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with FALCC_REGEN_GOLDENS=1 to create)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), bytes) << "golden mismatch for " << name;
  return golden.str();
}

// Full three-way check: engine bytes == reference bytes == golden file,
// and bit-identical probabilities vs the deserialized golden model on
// `probe`.
void ExpectGoldenEquivalence(const std::string& name,
                             const Classifier& engine_model,
                             const Classifier& reference_model,
                             const Dataset& probe) {
  const std::string engine_bytes = Bytes(engine_model);
  const std::string reference_bytes = Bytes(reference_model);
  EXPECT_EQ(engine_bytes, reference_bytes)
      << name << ": engine diverges from the seed trainer";
  const std::string golden_bytes = CheckGolden(name, reference_bytes);

  std::istringstream in(golden_bytes);
  Result<std::unique_ptr<Classifier>> golden = DeserializeClassifier(&in);
  ASSERT_TRUE(golden.ok()) << golden.status().message();
  for (size_t i = 0; i < probe.num_rows(); ++i) {
    const double expected = golden.value()->PredictProba(probe.Row(i));
    ASSERT_EQ(engine_model.PredictProba(probe.Row(i)), expected)
        << name << ": probability diverges at probe row " << i;
  }
  const std::vector<int> engine_preds = PredictAll(engine_model, probe);
  const std::vector<int> golden_preds = PredictAll(*golden.value(), probe);
  EXPECT_EQ(engine_preds, golden_preds) << name;
}

TEST(TrainEngineGolden, TreeGiniWithDuplicateValues) {
  const Dataset train = Quantize(Implicit(600, 21));
  const Dataset probe = Quantize(Implicit(300, 22));
  DecisionTreeOptions opt;
  opt.max_depth = 7;
  DecisionTree tree(opt);
  ASSERT_TRUE(tree.Fit(train).ok());
  Result<DecisionTree> reference = reference::TrainTree(train, {}, opt);
  ASSERT_TRUE(reference.ok());
  ExpectGoldenEquivalence("tree_gini_duplicates", tree, reference.value(),
                          probe);
}

TEST(TrainEngineGolden, TreeEntropyWeighted) {
  const Dataset train = Social(500, 31);
  const Dataset probe = Social(250, 32);
  const std::vector<double> weights = PatternWeights(train.num_rows());
  DecisionTreeOptions opt;
  opt.max_depth = 6;
  opt.criterion = SplitCriterion::kEntropy;
  DecisionTree tree(opt);
  ASSERT_TRUE(tree.Fit(train, weights).ok());
  Result<DecisionTree> reference = reference::TrainTree(train, weights, opt);
  ASSERT_TRUE(reference.ok());
  ExpectGoldenEquivalence("tree_entropy_weighted", tree, reference.value(),
                          probe);
}

TEST(TrainEngineGolden, TreeMaxFeaturesSubsampling) {
  const Dataset train = Implicit(400, 41);
  const Dataset probe = Implicit(200, 42);
  DecisionTreeOptions opt;
  opt.max_depth = 5;
  opt.max_features = 3;
  opt.seed = 11;
  DecisionTree tree(opt);
  ASSERT_TRUE(tree.Fit(train).ok());
  Result<DecisionTree> reference = reference::TrainTree(train, {}, opt);
  ASSERT_TRUE(reference.ok());
  ExpectGoldenEquivalence("tree_max_features", tree, reference.value(),
                          probe);
}

TEST(TrainEngineGolden, TreeMinLeafConstraints) {
  const Dataset train = Quantize(Social(400, 51));
  const Dataset probe = Quantize(Social(200, 52));
  DecisionTreeOptions opt;
  opt.max_depth = 8;
  opt.min_samples_leaf = 20;
  opt.min_samples_split = 10;
  DecisionTree tree(opt);
  ASSERT_TRUE(tree.Fit(train).ok());
  Result<DecisionTree> reference = reference::TrainTree(train, {}, opt);
  ASSERT_TRUE(reference.ok());
  ExpectGoldenEquivalence("tree_min_leaf", tree, reference.value(), probe);
}

TEST(TrainEngineGolden, AdaBoostWeightedRounds) {
  const Dataset train = Quantize(Implicit(500, 61));
  const Dataset probe = Quantize(Implicit(250, 62));
  const std::vector<double> weights = PatternWeights(train.num_rows());
  AdaBoostOptions opt;
  opt.num_estimators = 10;
  opt.base.max_depth = 3;
  AdaBoost boost(opt);
  ASSERT_TRUE(boost.Fit(train, weights).ok());
  Result<AdaBoost> reference = reference::TrainAdaBoost(train, weights, opt);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(boost.num_fitted(), reference.value().num_fitted());
  ExpectGoldenEquivalence("adaboost_weighted", boost, reference.value(),
                          probe);
}

TEST(TrainEngineGolden, RandomForestBootstrap) {
  const Dataset train = Social(400, 71);
  const Dataset probe = Social(200, 72);
  RandomForestOptions opt;
  opt.num_trees = 10;
  opt.base.max_depth = 5;
  opt.seed = 7;
  RandomForest forest(opt);
  ASSERT_TRUE(forest.Fit(train, {}).ok());
  Result<RandomForest> reference = reference::TrainRandomForest(train, {}, opt);
  ASSERT_TRUE(reference.ok());
  ExpectGoldenEquivalence("random_forest_bootstrap", forest,
                          reference.value(), probe);
}

// Engine-vs-reference identity without golden files: the engine's
// serialized bytes and probe predictions must equal the frozen seed
// trainer's (ml/reference_trainer.h). These cases stress the two-pass
// split scan (tree_builder.h): exact gain ties, wide weight ranges, and
// restricted candidate sets.
void ExpectMatchesReference(const std::string& name,
                            const Classifier& engine_model,
                            const Classifier& reference_model,
                            const Dataset& probe) {
  EXPECT_EQ(Bytes(engine_model), Bytes(reference_model))
      << name << ": engine diverges from the seed trainer";
  EXPECT_EQ(PredictAll(engine_model, probe),
            PredictAll(reference_model, probe))
      << name;
}

// Every feature twice, side by side: the copies' thresholds tie exactly
// on gain, so the first candidate feature must win every split.
Dataset DuplicateColumns(const Dataset& data) {
  const size_t d = data.num_features();
  std::vector<std::string> names;
  for (size_t copy = 0; copy < 2; ++copy) {
    for (size_t f = 0; f < d; ++f) {
      names.push_back(data.feature_names()[f] + (copy == 0 ? "" : "_dup"));
    }
  }
  std::vector<double> features;
  std::vector<int> labels;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.Row(i);
    for (size_t copy = 0; copy < 2; ++copy) {
      features.insert(features.end(), row.begin(), row.end());
    }
    labels.push_back(data.Label(i));
  }
  return Dataset::Create(std::move(names), std::move(features), 2 * d,
                         std::move(labels), data.sensitive_features())
      .value();
}

TEST(TrainEngineGolden, DuplicatedColumnsTieAcrossFeatures) {
  const Dataset train = DuplicateColumns(Implicit(800, 91));
  const Dataset probe = DuplicateColumns(Implicit(300, 92));
  const std::vector<double> weights = PatternWeights(train.num_rows());
  for (SplitCriterion criterion :
       {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
    DecisionTreeOptions opt;
    opt.max_depth = 8;
    opt.criterion = criterion;
    DecisionTree tree(opt);
    ASSERT_TRUE(tree.Fit(train, weights).ok());
    Result<DecisionTree> reference = reference::TrainTree(train, weights, opt);
    ASSERT_TRUE(reference.ok());
    ExpectMatchesReference("duplicated_columns", tree, reference.value(),
                           probe);
    // Ties resolve to the first copy: no split ever uses a duplicate.
    for (const TreeNode& node : tree.nodes()) {
      EXPECT_LT(node.feature, static_cast<int>(train.num_features() / 2));
    }
  }
}

// Late boosting rounds put weights across many orders of magnitude —
// the regime where the approximation's scale invariance matters.
TEST(TrainEngineGolden, DeepEntropyAdaBoostSixtyRounds) {
  const Dataset train = Implicit(6000, 101);
  const Dataset probe = Implicit(1000, 102);
  AdaBoostOptions opt;
  opt.num_estimators = 60;
  opt.base.max_depth = 9;
  opt.base.criterion = SplitCriterion::kEntropy;
  AdaBoost boost(opt);
  ASSERT_TRUE(boost.Fit(train).ok());
  Result<AdaBoost> reference = reference::TrainAdaBoost(train, {}, opt);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(boost.num_fitted(), reference.value().num_fitted());
  ExpectMatchesReference("adaboost_entropy_60x9", boost, reference.value(),
                         probe);
}

TEST(TrainEngineGolden, MinLeafAndMaxFeaturesBothCriteria) {
  const Dataset train = Quantize(Social(700, 111));
  const Dataset probe = Quantize(Social(300, 112));
  const std::vector<double> weights = PatternWeights(train.num_rows());
  for (SplitCriterion criterion :
       {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
    DecisionTreeOptions min_leaf;
    min_leaf.max_depth = 9;
    min_leaf.min_samples_leaf = 7;
    min_leaf.criterion = criterion;
    DecisionTree leaf_tree(min_leaf);
    ASSERT_TRUE(leaf_tree.Fit(train, weights).ok());
    Result<DecisionTree> leaf_reference =
        reference::TrainTree(train, weights, min_leaf);
    ASSERT_TRUE(leaf_reference.ok());
    ExpectMatchesReference("min_samples_leaf", leaf_tree,
                           leaf_reference.value(), probe);

    RandomForestOptions forest_opt;
    forest_opt.num_trees = 8;
    forest_opt.base.max_depth = 8;
    forest_opt.base.max_features = 2;
    forest_opt.base.min_samples_leaf = 3;
    forest_opt.base.criterion = criterion;
    forest_opt.seed = 13;
    RandomForest forest(forest_opt);
    ASSERT_TRUE(forest.Fit(train, weights).ok());
    Result<RandomForest> forest_reference =
        reference::TrainRandomForest(train, weights, forest_opt);
    ASSERT_TRUE(forest_reference.ok());
    ExpectMatchesReference("max_features", forest, forest_reference.value(),
                           probe);
  }
}

// The builder partitions its presorted lists only when a child can split
// again. Here min_samples_split is large, so below the top levels both
// children of a split usually hold fewer rows than it and the partition
// is skipped; the leaves still get the seed's statistics.
TEST(TrainEngineGolden, LargeMinSamplesSplitSkipsPartitions) {
  const Dataset train = Quantize(Implicit(900, 121));
  const Dataset probe = Quantize(Implicit(300, 122));
  const std::vector<double> weights = PatternWeights(train.num_rows());
  for (SplitCriterion criterion :
       {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
    for (size_t min_split : {size_t{150}, size_t{400}}) {
      DecisionTreeOptions opt;
      opt.max_depth = 9;
      opt.min_samples_split = min_split;
      opt.criterion = criterion;
      DecisionTree tree(opt);
      ASSERT_TRUE(tree.Fit(train, weights).ok());
      Result<DecisionTree> reference =
          reference::TrainTree(train, weights, opt);
      ASSERT_TRUE(reference.ok());
      ExpectMatchesReference("min_samples_split", tree, reference.value(),
                             probe);

      AdaBoostOptions boost_opt;
      boost_opt.num_estimators = 8;
      boost_opt.base = opt;
      AdaBoost boost(boost_opt);
      ASSERT_TRUE(boost.Fit(train, weights).ok());
      Result<AdaBoost> boost_reference =
          reference::TrainAdaBoost(train, weights, boost_opt);
      ASSERT_TRUE(boost_reference.ok());
      ExpectMatchesReference("min_samples_split_adaboost", boost,
                             boost_reference.value(), probe);
    }
  }
}

// Children at max_depth never scan, so at max_depth 1 (stumps, as in the
// paper's grid) no list is ever partitioned and at max_depth 2 only the
// root's lists are.
TEST(TrainEngineGolden, ShallowTreesSkipPartitions) {
  const Dataset train = Social(800, 131);
  const Dataset probe = Social(300, 132);
  const std::vector<double> weights = PatternWeights(train.num_rows());
  for (SplitCriterion criterion :
       {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
    for (size_t depth : {size_t{1}, size_t{2}}) {
      DecisionTreeOptions opt;
      opt.max_depth = depth;
      opt.criterion = criterion;
      DecisionTree tree(opt);
      ASSERT_TRUE(tree.Fit(train, weights).ok());
      Result<DecisionTree> reference =
          reference::TrainTree(train, weights, opt);
      ASSERT_TRUE(reference.ok());
      ExpectMatchesReference("shallow_tree", tree, reference.value(), probe);

      AdaBoostOptions boost_opt;
      boost_opt.num_estimators = 12;
      boost_opt.base = opt;
      AdaBoost boost(boost_opt);
      ASSERT_TRUE(boost.Fit(train, weights).ok());
      Result<AdaBoost> boost_reference =
          reference::TrainAdaBoost(train, weights, boost_opt);
      ASSERT_TRUE(boost_reference.ok());
      ASSERT_EQ(boost.num_fitted(), boost_reference.value().num_fitted());
      ExpectMatchesReference("shallow_adaboost", boost,
                             boost_reference.value(), probe);
    }
  }
}

// The column-cache Fit overloads must match the Dataset overloads
// exactly: one shared cache and builder across fits changes nothing.
TEST(TrainEngineGolden, SharedColumnsAndBuilderAreTransparent) {
  const Dataset train = Quantize(Implicit(400, 81));
  const FeatureColumns columns(train);
  const std::vector<double> weights = PatternWeights(train.num_rows());

  DecisionTreeOptions opt;
  opt.max_depth = 6;
  TreeBuilder shared;
  DecisionTree from_data(opt);
  DecisionTree from_columns(opt);
  ASSERT_TRUE(from_data.Fit(train, weights).ok());
  ASSERT_TRUE(from_columns.Fit(columns, weights, &shared).ok());
  EXPECT_EQ(Bytes(from_data), Bytes(from_columns));

  AdaBoostOptions boost_opt;
  boost_opt.num_estimators = 5;
  boost_opt.base.max_depth = 3;
  AdaBoost boost_data(boost_opt);
  AdaBoost boost_columns(boost_opt);
  ASSERT_TRUE(boost_data.Fit(train, weights).ok());
  ASSERT_TRUE(boost_columns.Fit(columns, weights).ok());
  EXPECT_EQ(Bytes(boost_data), Bytes(boost_columns));
}

}  // namespace
}  // namespace falcc
