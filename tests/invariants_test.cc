// Metamorphic invariants of the full pipeline, via the shared checks in
// testing/invariants.h. This suite replaces the bit-identity tests that
// were previously duplicated across falcc_test, serve_engine_test, and
// monitor_test with one run of each helper over freshly trained models.

#include "testing/invariants.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/split.h"
#include "datagen/synthetic.h"

namespace falcc {
namespace {

using testing::CheckBatchMatchesSequential;
using testing::CheckClassifyThreadInvariance;
using testing::CheckKernelsMatchInterpreted;
using testing::CheckPermutationInvariance;
using testing::CheckRefreshIsolation;
using testing::CheckRegionsAreLossOptimal;
using testing::CheckSaveLoadSaveIdempotent;
using testing::CheckShardedMatchesSingleLoop;
using testing::CheckTrainingThreadInvariance;
using testing::LoadFromString;
using testing::SaveToString;

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

// One model + splits shared across the whole suite: each invariant is a
// property of the same artifact, and training dominates the runtime.
struct Fixture {
  TrainValTest splits = MakeSplits();
  FalccModel model =
      FalccModel::Train(splits.train, splits.validation, FastOptions())
          .value();
};

Fixture& Shared() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

TEST(InvariantsTest, BatchMatchesSequentialClassify) {
  Fixture& f = Shared();
  const Status st = CheckBatchMatchesSequential(f.model, f.splits.test);
  EXPECT_TRUE(st.ok()) << st.ToString();

  // Decision diagnostics stay consistent with the exposed online steps.
  for (size_t i = 0; i < 50; ++i) {
    const auto row = f.splits.test.Row(i);
    const size_t cluster = f.model.MatchCluster(row);
    const size_t group = f.model.GroupOf(row).value();
    const double p = f.model.ClassifyProba(row);
    EXPECT_EQ(f.model.Classify(row), p >= 0.5 ? 1 : 0) << "row " << i;
    EXPECT_LT(cluster, f.model.num_clusters());
    EXPECT_EQ(f.model.selected_combinations()[cluster].size(),
              f.model.num_groups())
        << "row " << i << " group " << group;
  }
}

TEST(InvariantsTest, RowPermutationInvariance) {
  Fixture& f = Shared();
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Status st = CheckPermutationInvariance(f.model, f.splits.test, seed);
    EXPECT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
  }
}

TEST(InvariantsTest, ClassifyThreadCountInvariance) {
  Fixture& f = Shared();
  const Status st = CheckClassifyThreadInvariance(f.model, f.splits.test);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(InvariantsTest, TrainingThreadCountInvariance) {
  // The parallel runtime's hard contract: the offline phase run on 1 and
  // on 4 threads produces byte-identical serialized models and identical
  // batch predictions. Random forests exercise per-tree parallelism.
  const TrainValTest s = MakeSplits();
  FalccOptions opt = FastOptions();
  opt.trainer.family = TrainerFamily::kRandomForest;
  const Status st =
      CheckTrainingThreadInvariance(s.train, s.validation, s.test, opt);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(InvariantsTest, SaveLoadSaveIsByteIdempotent) {
  Fixture& f = Shared();
  const Status st = CheckSaveLoadSaveIdempotent(f.model);
  EXPECT_TRUE(st.ok()) << st.ToString();

  // And the reloaded model serves identically to the original.
  std::string bytes;
  ASSERT_TRUE(SaveToString(f.model, &bytes).ok());
  const FalccModel reloaded = LoadFromString(bytes).value();
  const Status served = CheckBatchMatchesSequential(reloaded, f.splits.test);
  EXPECT_TRUE(served.ok()) << served.ToString();
  EXPECT_EQ(reloaded.ClassifyAll(f.splits.test),
            f.model.ClassifyAll(f.splits.test));
}

TEST(InvariantsTest, CompiledKernelsMatchInterpretedBitForBit) {
  Fixture& f = Shared();
  ASSERT_NE(f.model.pool().kernel(0), nullptr);
  const Status st = CheckKernelsMatchInterpreted(f.model.pool(), f.splits.test);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(InvariantsTest, RegionsHoldTheirLossOptimalCombination) {
  Fixture& f = Shared();
  const Status st = CheckRegionsAreLossOptimal(f.model, f.splits.validation,
                                               FastOptions());
  EXPECT_TRUE(st.ok()) << st.ToString();

  // A cluster holding any other combination, or its L̂ off by one ulp,
  // is caught.
  ClusterRefresh other;
  other.cluster = 0;
  other.combination = f.model.selected_combinations()[0];
  other.combination[0] = (other.combination[0] + 1) % f.model.pool().size();
  other.baseline_loss = f.model.baseline_losses()[0];
  const FalccModel swapped = f.model.CloneWithRefreshes({&other, 1}).value();
  EXPECT_FALSE(CheckRegionsAreLossOptimal(swapped, f.splits.validation,
                                          FastOptions())
                   .ok());
  ClusterRefresh nudged = other;
  nudged.combination = f.model.selected_combinations()[0];
  nudged.baseline_loss = std::nextafter(f.model.baseline_losses()[0], 1.0);
  const FalccModel off = f.model.CloneWithRefreshes({&nudged, 1}).value();
  EXPECT_FALSE(
      CheckRegionsAreLossOptimal(off, f.splits.validation, FastOptions()).ok());
}

// The same selection under the other assessment settings: another group
// metric and λ, individual fairness (consistency mode), and gap-filled
// regions (many clusters on a small validation split).
TEST(InvariantsTest, RegionsAreLossOptimalUnderEveryAssessmentMode) {
  const TrainValTest s = MakeSplits(13, 900);
  FalccOptions eq_odds = FastOptions();
  eq_odds.metric = FairnessMetric::kEqualizedOdds;
  eq_odds.lambda = 0.3;
  FalccOptions consistency = FastOptions();
  consistency.assessment_mode = AssessmentMode::kConsistency;
  FalccOptions many_regions = FastOptions();
  many_regions.fixed_k = 24;
  many_regions.gap_fill_k = 5;
  for (const FalccOptions& options : {eq_odds, consistency, many_regions}) {
    const FalccModel model =
        FalccModel::Train(s.train, s.validation, options).value();
    const Status st = CheckRegionsAreLossOptimal(model, s.validation, options);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(InvariantsTest, ShardedServingMatchesSingleLoop) {
  // Routing is invisible: 1, 2, and 8 shards all reproduce the
  // single-sample loop bit for bit, under round-robin and keyed routing.
  Fixture& f = Shared();
  const size_t kShardCounts[] = {1, 2, 8};
  testing::ShardedFlushCounts counts;
  const Status st = CheckShardedMatchesSingleLoop(f.model, f.splits.test,
                                                  kShardCounts, &counts);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // The burst reached the shard workers: some flushes were queued batches.
  EXPECT_LT(counts.inline_flushes, counts.flushes);
}

TEST(InvariantsTest, RefreshLeavesUntouchedClustersBitIdentical) {
  Fixture& f = Shared();
  ASSERT_GE(f.model.num_clusters(), 2u);

  // Swap cluster 0 to a combination that differs from the serving one.
  const ModelCombination& current = f.model.selected_combinations()[0];
  ModelCombination replacement = current;
  replacement[0] = (current[0] + 1) % f.model.pool().size();
  ClusterRefresh refresh;
  refresh.cluster = 0;
  refresh.combination = replacement;
  refresh.baseline_loss = 0.123;

  const Status st = CheckRefreshIsolation(f.model, f.splits.test, refresh);
  EXPECT_TRUE(st.ok()) << st.ToString();

  const FalccModel clone = f.model.CloneWithRefreshes({&refresh, 1}).value();
  EXPECT_EQ(clone.baseline_losses()[0], 0.123);

  // Invalid refreshes are rejected.
  ClusterRefresh bad = refresh;
  bad.cluster = f.model.num_clusters();
  EXPECT_FALSE(f.model.CloneWithRefreshes({&bad, 1}).ok());

  bad = refresh;
  bad.combination.push_back(0);
  EXPECT_FALSE(f.model.CloneWithRefreshes({&bad, 1}).ok());

  bad = refresh;
  bad.combination[0] = f.model.pool().size();
  EXPECT_FALSE(f.model.CloneWithRefreshes({&bad, 1}).ok());

  bad = refresh;
  bad.baseline_loss = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(f.model.CloneWithRefreshes({&bad, 1}).ok());
}

}  // namespace
}  // namespace falcc
