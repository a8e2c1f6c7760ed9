// Round-trip tests for the text serialization of classifiers, the
// supporting structures, and whole FALCC models: a deserialized model
// must predict bit-identically to the original.

#include "ml/serialize.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/falcc.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/knn_classifier.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"

namespace falcc {
namespace {

Dataset MakeData(size_t n = 400, uint64_t seed = 7) {
  SyntheticConfig cfg;
  cfg.num_samples = n;
  cfg.seed = seed;
  return GenerateImplicitBias(cfg).value();
}

// Serializes, deserializes, and checks prediction equality on `data`.
void ExpectRoundTrip(const Classifier& model, const Dataset& data) {
  std::stringstream stream;
  ASSERT_TRUE(SerializeClassifier(model, &stream).ok()) << model.Name();
  Result<std::unique_ptr<Classifier>> loaded =
      DeserializeClassifier(&stream);
  ASSERT_TRUE(loaded.ok()) << model.Name() << ": "
                           << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->TypeTag(), model.TypeTag());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    ASSERT_DOUBLE_EQ(loaded.value()->PredictProba(data.Row(i)),
                     model.PredictProba(data.Row(i)))
        << model.Name() << " row " << i;
  }
}

TEST(SerializeTest, DecisionTreeRoundTrip) {
  const Dataset d = MakeData();
  DecisionTree model;
  ASSERT_TRUE(model.Fit(d).ok());
  ExpectRoundTrip(model, d);
}

TEST(SerializeTest, AdaBoostRoundTrip) {
  const Dataset d = MakeData();
  AdaBoostOptions opt;
  opt.num_estimators = 10;
  opt.base.max_depth = 3;
  AdaBoost model(opt);
  ASSERT_TRUE(model.Fit(d).ok());
  ExpectRoundTrip(model, d);
}

TEST(SerializeTest, RandomForestRoundTrip) {
  const Dataset d = MakeData();
  RandomForestOptions opt;
  opt.num_trees = 8;
  RandomForest model(opt);
  ASSERT_TRUE(model.Fit(d).ok());
  ExpectRoundTrip(model, d);
}

TEST(SerializeTest, LogisticRegressionRoundTrip) {
  const Dataset d = MakeData();
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(d).ok());
  ExpectRoundTrip(model, d);
}

TEST(SerializeTest, GaussianNbRoundTrip) {
  const Dataset d = MakeData();
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(d).ok());
  ExpectRoundTrip(model, d);
}

TEST(SerializeTest, KnnRoundTrip) {
  const Dataset d = MakeData(200);
  KnnClassifier model;
  ASSERT_TRUE(model.Fit(d).ok());
  ExpectRoundTrip(model, d);
}

TEST(SerializeTest, UnsupportedTypeFails) {
  // FairBoost (a baseline) does not opt into serialization.
  class Unsupported final : public Classifier {
   public:
    Status Fit(const Dataset&, std::span<const double>) override {
      return Status::OK();
    }
    double PredictProba(std::span<const double>) const override {
      return 0.5;
    }
    std::unique_ptr<Classifier> Clone() const override {
      return std::make_unique<Unsupported>(*this);
    }
    std::string Name() const override { return "Unsupported"; }
  };
  Unsupported model;
  std::stringstream stream;
  EXPECT_FALSE(SerializeClassifier(model, &stream).ok());
}

TEST(SerializeTest, UnknownTagFails) {
  std::stringstream stream("martian_model 1 2 3");
  EXPECT_FALSE(DeserializeClassifier(&stream).ok());
}

TEST(SerializeTest, TruncatedStreamFails) {
  const Dataset d = MakeData(100);
  DecisionTree model;
  ASSERT_TRUE(model.Fit(d).ok());
  std::stringstream stream;
  ASSERT_TRUE(SerializeClassifier(model, &stream).ok());
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_FALSE(DeserializeClassifier(&truncated).ok());
}

TEST(SerializeTest, FalccModelRoundTrip) {
  const Dataset d = MakeData(1500, 21);
  const TrainValTest s = SplitDatasetDefault(d, 21).value();
  FalccOptions opt;
  opt.seed = 21;
  opt.trainer.estimator_grid = {5};
  opt.trainer.pool_size = 3;
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, opt).value();

  std::ostringstream stream;
  ASSERT_TRUE(model.Save(&stream).ok());
  Result<FalccModel> loaded = FalccModel::LoadBytes(stream.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value().num_clusters(), model.num_clusters());
  EXPECT_EQ(loaded.value().num_groups(), model.num_groups());
  EXPECT_DOUBLE_EQ(loaded.value().pool_entropy(), model.pool_entropy());
  EXPECT_EQ(loaded.value().ClassifyAll(s.test), model.ClassifyAll(s.test));
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(loaded.value().MatchCluster(s.test.Row(i)),
              model.MatchCluster(s.test.Row(i)));
  }
}

TEST(SerializeTest, FalccModelFileRoundTrip) {
  const Dataset d = MakeData(800, 23);
  const TrainValTest s = SplitDatasetDefault(d, 23).value();
  FalccOptions opt;
  opt.seed = 23;
  opt.trainer.estimator_grid = {5};
  opt.trainer.pool_size = 2;
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, opt).value();

  const std::string path = ::testing::TempDir() + "/falcc_model.txt";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  Result<FalccModel> loaded = FalccModel::LoadMapped(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().ClassifyAll(s.test), model.ClassifyAll(s.test));
  std::remove(path.c_str());
}

TEST(SerializeTest, FalccModelLoadRejectsGarbage) {
  EXPECT_FALSE(FalccModel::LoadBytes("not-a-falcc-model").ok());
}

TEST(SerializeTest, MultipleModelsInOneStream) {
  const Dataset d = MakeData(150);
  DecisionTree a;
  GaussianNaiveBayes b;
  ASSERT_TRUE(a.Fit(d).ok());
  ASSERT_TRUE(b.Fit(d).ok());
  std::stringstream stream;
  ASSERT_TRUE(SerializeClassifier(a, &stream).ok());
  ASSERT_TRUE(SerializeClassifier(b, &stream).ok());
  Result<std::unique_ptr<Classifier>> first =
      DeserializeClassifier(&stream);
  Result<std::unique_ptr<Classifier>> second =
      DeserializeClassifier(&stream);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value()->TypeTag(), "decision_tree");
  EXPECT_EQ(second.value()->TypeTag(), "gaussian_nb");
}

}  // namespace
}  // namespace falcc
