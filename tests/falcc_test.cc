#include "core/falcc.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "data/split.h"
#include "datagen/synthetic.h"
#include "fairness/loss.h"
#include "util/parallel.h"

namespace falcc {
namespace {

TrainValTest MakeSplits(uint64_t seed = 11, size_t n = 2000) {
  SyntheticConfig cfg;
  cfg.num_samples = n;
  cfg.seed = 7;
  const Dataset d = GenerateImplicitBias(cfg).value();
  return SplitDatasetDefault(d, seed).value();
}

FalccOptions FastOptions() {
  FalccOptions opt;
  opt.seed = 42;
  opt.trainer.estimator_grid = {5};
  opt.trainer.depth_grid = {1, 4};
  opt.trainer.pool_size = 3;
  return opt;
}

TEST(FalccTest, TrainsAndClassifies) {
  const TrainValTest s = MakeSplits();
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  EXPECT_GE(model.num_clusters(), 1u);
  EXPECT_EQ(model.num_groups(), 2u);
  // Pool size is an upper bound: the accuracy-tolerance pruning may keep
  // fewer (but competent) models.
  EXPECT_GE(model.pool().size(), 1u);
  EXPECT_LE(model.pool().size(), 3u);
  const std::vector<int> preds = model.ClassifyAll(s.test);
  ASSERT_EQ(preds.size(), s.test.num_rows());
  size_t correct = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    correct += preds[i] == s.test.Label(i);
  }
  EXPECT_GT(static_cast<double>(correct) / preds.size(), 0.6);
}

TEST(FalccTest, SelectedCombinationPerCluster) {
  const TrainValTest s = MakeSplits();
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  ASSERT_EQ(model.selected_combinations().size(), model.num_clusters());
  for (const auto& combo : model.selected_combinations()) {
    ASSERT_EQ(combo.size(), model.num_groups());
    for (size_t m : combo) EXPECT_LT(m, model.pool().size());
  }
}

TEST(FalccTest, FixedKIsRespected) {
  const TrainValTest s = MakeSplits();
  FalccOptions opt = FastOptions();
  opt.fixed_k = 4;
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, opt).value();
  EXPECT_EQ(model.num_clusters(), 4u);
}

TEST(FalccTest, KOneRecoversGlobalFairnessMode) {
  // The paper's unification claim (§3.1): k = 1 makes the local region
  // the whole dataset; every sample of a group uses the same model.
  const TrainValTest s = MakeSplits();
  FalccOptions opt = FastOptions();
  opt.fixed_k = 1;
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, opt).value();
  EXPECT_EQ(model.num_clusters(), 1u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(model.MatchCluster(s.test.Row(i)), 0u);
  }
}

TEST(FalccTest, ClassificationIsDeterministic) {
  const TrainValTest s = MakeSplits();
  const FalccModel a =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  const FalccModel b =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  EXPECT_EQ(a.ClassifyAll(s.test), b.ClassifyAll(s.test));
}

// Thread-count determinism of training now lives in invariants_test
// (InvariantsTest.TrainingThreadCountInvariance) via the shared
// CheckTrainingThreadInvariance helper.

TEST(FalccTest, ValidationRowsCoverAllClusters) {
  const TrainValTest s = MakeSplits();
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  const auto& assignment = model.validation_assignment();
  EXPECT_EQ(assignment.size(), s.validation.num_rows());
  for (size_t c : assignment) EXPECT_LT(c, model.num_clusters());
}

TEST(FalccTest, ExternalPoolIsUsed) {
  const TrainValTest s = MakeSplits();
  DiverseTrainerOptions trainer;
  trainer.estimator_grid = {5};
  trainer.depth_grid = {2};
  trainer.pool_size = 2;
  trainer.accuracy_tolerance = 1.0;  // keep both grid candidates
  DiversePool diverse =
      TrainDiversePool(s.train, s.validation, trainer).value();
  ModelPool pool;
  for (auto& m : diverse.models) pool.Add(std::move(m));

  FalccOptions opt = FastOptions();
  const FalccModel model =
      FalccModel::TrainWithPool(std::move(pool), s.validation, opt, 0.77)
          .value();
  EXPECT_EQ(model.pool().size(), 2u);
  EXPECT_DOUBLE_EQ(model.pool_entropy(), 0.77);
}

TEST(FalccTest, ImprovesLocalFairnessOverWorstPoolMember) {
  // FALCC's per-cluster selection should never be drastically worse in
  // local loss than the single worst model applied uniformly.
  const TrainValTest s = MakeSplits(13, 3000);
  FalccOptions opt = FastOptions();
  opt.fixed_k = 5;
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, opt).value();

  const GroupIndex index = GroupIndex::Build(s.test).value();
  const std::vector<size_t> groups = index.GroupsOf(s.test).value();
  std::vector<size_t> regions(s.test.num_rows());
  for (size_t i = 0; i < s.test.num_rows(); ++i) {
    regions[i] = model.MatchCluster(s.test.Row(i));
  }

  auto local_loss = [&](const std::vector<int>& preds) {
    GroupedPredictions in;
    in.labels = s.test.labels();
    in.predictions = preds;
    in.groups = groups;
    in.num_groups = index.num_groups();
    return LocalLoss(in, regions, model.num_clusters(),
                     FairnessMetric::kDemographicParity, 0.5)
        .value()
        .combined;
  };

  const double falcc_loss = local_loss(model.ClassifyAll(s.test));
  double worst_single = 0.0;
  for (size_t m = 0; m < model.pool().size(); ++m) {
    worst_single = std::max(
        worst_single, local_loss(PredictAll(model.pool().model(m), s.test)));
  }
  EXPECT_LE(falcc_loss, worst_single + 0.05);
}

TEST(FalccTest, ProxyStrategiesAllTrain) {
  const TrainValTest s = MakeSplits();
  for (ProxyMitigation strategy :
       {ProxyMitigation::kNone, ProxyMitigation::kReweigh,
        ProxyMitigation::kRemove}) {
    FalccOptions opt = FastOptions();
    opt.proxy.strategy = strategy;
    opt.proxy.removal_threshold = 0.2;
    Result<FalccModel> model =
        FalccModel::Train(s.train, s.validation, opt);
    ASSERT_TRUE(model.ok()) << static_cast<int>(strategy);
    const std::vector<int> preds = model.value().ClassifyAll(s.test);
    EXPECT_EQ(preds.size(), s.test.num_rows());
  }
}

TEST(FalccTest, SplitTrainingAddsRestrictedModels) {
  const TrainValTest s = MakeSplits();
  FalccOptions opt = FastOptions();
  opt.trainer.split_by_group = true;
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, opt).value();
  // The pool contains the shared models plus one per group (2 groups),
  // and the per-group models are not applicable everywhere.
  FalccOptions shared_only = FastOptions();
  const FalccModel baseline =
      FalccModel::Train(s.train, s.validation, shared_only).value();
  EXPECT_EQ(model.pool().size(), baseline.pool().size() + 2);
  bool any_restricted = false;
  for (size_t m = 0; m < model.pool().size(); ++m) {
    if (!model.pool().Applicable(m, 0) || !model.pool().Applicable(m, 1)) {
      any_restricted = true;
    }
  }
  EXPECT_TRUE(any_restricted);
  // And classification still works end-to-end.
  const std::vector<int> preds = model.ClassifyAll(s.test);
  EXPECT_EQ(preds.size(), s.test.num_rows());
}

TEST(FalccTest, ConsistencyAssessmentModeTrains) {
  // §3.6: individual-fairness (consistency) assessment using clusters as
  // kNN substitutes.
  const TrainValTest s = MakeSplits();
  FalccOptions opt = FastOptions();
  opt.assessment_mode = AssessmentMode::kConsistency;
  opt.fixed_k = 4;
  Result<FalccModel> model = FalccModel::Train(s.train, s.validation, opt);
  ASSERT_TRUE(model.ok());
  const std::vector<int> preds = model.value().ClassifyAll(s.test);
  size_t correct = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    correct += preds[i] == s.test.Label(i);
  }
  EXPECT_GT(static_cast<double>(correct) / preds.size(), 0.55);
}

TEST(FalccTest, ConsistencyModeYieldsMoreUniformRegionPredictions) {
  // Under the consistency objective, the chosen combinations should give
  // validation regions more uniform predictions than under the
  // group-fairness objective (that is exactly what they optimize).
  const TrainValTest s = MakeSplits(19, 3000);
  auto mean_region_inconsistency = [&](AssessmentMode mode) {
    FalccOptions opt = FastOptions();
    opt.assessment_mode = mode;
    opt.fixed_k = 6;
    const FalccModel model =
        FalccModel::Train(s.train, s.validation, opt).value();
    const std::vector<int> preds = model.ClassifyAll(s.test);
    // Per-region inconsistency of the test predictions.
    std::vector<double> pos(model.num_clusters(), 0.0);
    std::vector<double> count(model.num_clusters(), 0.0);
    std::vector<size_t> region(s.test.num_rows());
    for (size_t i = 0; i < s.test.num_rows(); ++i) {
      region[i] = model.MatchCluster(s.test.Row(i));
      pos[region[i]] += preds[i];
      count[region[i]] += 1.0;
    }
    double total = 0.0;
    for (size_t i = 0; i < s.test.num_rows(); ++i) {
      const double mean = pos[region[i]] / count[region[i]];
      total += std::abs(static_cast<double>(preds[i]) - mean);
    }
    return total / static_cast<double>(s.test.num_rows());
  };
  EXPECT_LE(mean_region_inconsistency(AssessmentMode::kConsistency),
            mean_region_inconsistency(AssessmentMode::kGroupFairness) + 0.02);
}

TEST(FalccTest, AllKSelectionStrategiesTrain) {
  const TrainValTest s = MakeSplits();
  for (FalccOptions::KSelection selection :
       {FalccOptions::KSelection::kLogMeans,
        FalccOptions::KSelection::kElbow,
        FalccOptions::KSelection::kXMeans}) {
    FalccOptions opt = FastOptions();
    opt.k_selection = selection;
    opt.k_estimation.k_max = 16;
    Result<FalccModel> model =
        FalccModel::Train(s.train, s.validation, opt);
    ASSERT_TRUE(model.ok()) << static_cast<int>(selection);
    EXPECT_GE(model.value().num_clusters(), 1u);
    EXPECT_LE(model.value().num_clusters(), 16u);
  }
}

TEST(FalccTest, RejectsBadOptions) {
  const TrainValTest s = MakeSplits();
  FalccOptions opt = FastOptions();
  opt.lambda = 2.0;
  EXPECT_FALSE(FalccModel::Train(s.train, s.validation, opt).ok());

  ModelPool empty_pool;
  EXPECT_FALSE(
      FalccModel::TrainWithPool(std::move(empty_pool), s.validation, {})
          .ok());
}

TEST(FalccTest, ClassifyProbaConsistentWithClassify) {
  const TrainValTest s = MakeSplits();
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  for (size_t i = 0; i < 50; ++i) {
    const double p = model.ClassifyProba(s.test.Row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_EQ(model.Classify(s.test.Row(i)), p >= 0.5 ? 1 : 0);
  }
}

TEST(FalccTest, OnlineStepsAreExposed) {
  const TrainValTest s = MakeSplits();
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  const auto row = s.test.Row(0);
  const size_t cluster = model.MatchCluster(row);
  EXPECT_LT(cluster, model.num_clusters());
  const Result<size_t> group = model.GroupOf(row);
  ASSERT_TRUE(group.ok());
  EXPECT_LT(group.value(), model.num_groups());
  // Classify is exactly: lookup + predict with the selected model.
  const size_t m = model.selected_combinations()[cluster][group.value()];
  EXPECT_EQ(model.Classify(row), model.pool().model(m).Predict(row));
}

// One ClassifyScratch shared by two models of different widths and
// sensitive columns, alternating batch by batch (and between a full and
// a short batch): each batch reads its own request rows, so every
// decision equals that model's ClassifyAll and every probability its
// ClassifyProba, bit for bit, whichever model used the scratch last.
TEST(FalccTest, ScratchIsSharedAcrossModelsOfDifferentShapes) {
  SyntheticConfig wide_config;
  wide_config.num_samples = 1500;
  wide_config.seed = 7;
  SyntheticConfig narrow_config = wide_config;
  narrow_config.num_features = 5;
  narrow_config.seed = 8;
  const TrainValTest wide =
      SplitDatasetDefault(GenerateImplicitBias(wide_config).value(), 11)
          .value();
  const TrainValTest narrow =
      SplitDatasetDefault(GenerateSocialBias(narrow_config).value(), 12)
          .value();
  const FalccModel wide_model =
      FalccModel::Train(wide.train, wide.validation, FastOptions()).value();
  const FalccModel narrow_model =
      FalccModel::Train(narrow.train, narrow.validation, FastOptions())
          .value();
  ASSERT_NE(wide_model.num_features(), narrow_model.num_features());
  ASSERT_NE(wide.test.sensitive_features(), narrow.test.sensitive_features());

  struct Served {
    const FalccModel& model;
    const Dataset& test;
    std::vector<int> labels;
  };
  const Served served[] = {
      {wide_model, wide.test, wide_model.ClassifyAll(wide.test)},
      {narrow_model, narrow.test, narrow_model.ClassifyAll(narrow.test)}};
  ClassifyScratch scratch;
  for (size_t round = 0; round < 4; ++round) {
    for (const Served& s : served) {
      SCOPED_TRACE("round " + std::to_string(round) + ", width " +
                   std::to_string(s.test.num_features()));
      const size_t width = s.test.num_features();
      const size_t rows = round % 2 == 0 ? s.test.num_rows() : 7;
      const ClassifyRequest request{s.test.features().first(rows * width),
                                    width};
      const Result<ClassifyResponse> response =
          s.model.ClassifyBatch(request, &scratch);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response.value().decisions.size(), rows);
      for (size_t i = 0; i < rows; ++i) {
        const SampleDecision& d = response.value().decisions[i];
        const double reference = s.model.ClassifyProba(s.test.Row(i));
        EXPECT_EQ(d.label, s.labels[i]) << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(d.probability),
                  std::bit_cast<uint64_t>(reference))
            << i;
      }
    }
  }
}

}  // namespace
}  // namespace falcc
