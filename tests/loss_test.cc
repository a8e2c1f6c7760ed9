#include "fairness/loss.h"

#include <string>

#include <gtest/gtest.h>

#include "testing/reference_loss.h"
#include "util/rng.h"

namespace falcc {
namespace {

GroupedPredictions Make(const std::vector<int>& labels,
                        const std::vector<int>& predictions,
                        const std::vector<size_t>& groups,
                        size_t num_groups) {
  GroupedPredictions in;
  in.labels = labels;
  in.predictions = predictions;
  in.groups = groups;
  in.num_groups = num_groups;
  return in;
}

TEST(CombinedLossTest, PerfectPredictionsZeroLoss) {
  const std::vector<int> y = {1, 0, 1, 0};
  const std::vector<size_t> g = {0, 0, 1, 1};
  const LossBreakdown loss =
      CombinedLoss(Make(y, y, g, 2), FairnessMetric::kDemographicParity, 0.5)
          .value();
  EXPECT_DOUBLE_EQ(loss.inaccuracy, 0.0);
  EXPECT_DOUBLE_EQ(loss.bias, 0.0);
  EXPECT_DOUBLE_EQ(loss.combined, 0.0);
}

TEST(CombinedLossTest, LambdaWeighting) {
  // 50% wrong, bias 0.5 by construction.
  const std::vector<int> y = {1, 1, 0, 0};
  const std::vector<int> z = {1, 1, 1, 1};
  const std::vector<size_t> g = {0, 0, 1, 1};
  const GroupedPredictions in = Make(y, z, g, 2);
  const LossBreakdown pure_acc =
      CombinedLoss(in, FairnessMetric::kDemographicParity, 1.0).value();
  EXPECT_DOUBLE_EQ(pure_acc.combined, pure_acc.inaccuracy);
  const LossBreakdown pure_bias =
      CombinedLoss(in, FairnessMetric::kDemographicParity, 0.0).value();
  EXPECT_DOUBLE_EQ(pure_bias.combined, pure_bias.bias);
}

TEST(CombinedLossTest, HandValue) {
  // 1 of 4 wrong -> inaccuracy 0.25; all predictions 1 -> dp bias 0.
  const std::vector<int> y = {1, 1, 1, 0};
  const std::vector<int> z = {1, 1, 1, 1};
  const std::vector<size_t> g = {0, 1, 0, 1};
  const LossBreakdown loss =
      CombinedLoss(Make(y, z, g, 2), FairnessMetric::kDemographicParity, 0.5)
          .value();
  EXPECT_DOUBLE_EQ(loss.inaccuracy, 0.25);
  EXPECT_DOUBLE_EQ(loss.bias, 0.0);
  EXPECT_DOUBLE_EQ(loss.combined, 0.125);
}

TEST(CombinedLossTest, RejectsBadLambda) {
  const std::vector<int> y = {1};
  const std::vector<size_t> g = {0};
  EXPECT_FALSE(
      CombinedLoss(Make(y, y, g, 1), FairnessMetric::kDemographicParity, 1.5)
          .ok());
  EXPECT_FALSE(
      CombinedLoss(Make(y, y, g, 1), FairnessMetric::kDemographicParity, -0.1)
          .ok());
}

TEST(CombinedLossTest, RejectsShortPredictions) {
  // Sizes are checked before any prediction is read: a short
  // predictions span must not be indexed by the label count.
  const std::vector<int> y = {1, 0, 1, 0, 1, 0, 1, 0};
  const std::vector<int> z = {1};
  const std::vector<size_t> g(8, 0);
  EXPECT_FALSE(
      CombinedLoss(Make(y, z, g, 1), FairnessMetric::kDemographicParity, 0.5)
          .ok());
}

TEST(LocalLossTest, SingleRegionEqualsGlobal) {
  const std::vector<int> y = {1, 1, 0, 0, 1, 0};
  const std::vector<int> z = {1, 0, 0, 1, 1, 0};
  const std::vector<size_t> g = {0, 1, 0, 1, 0, 1};
  const std::vector<size_t> regions(6, 0);
  const GroupedPredictions in = Make(y, z, g, 2);
  const LossBreakdown global =
      CombinedLoss(in, FairnessMetric::kDemographicParity, 0.5).value();
  const LossBreakdown local =
      LocalLoss(in, regions, 1, FairnessMetric::kDemographicParity, 0.5)
          .value();
  EXPECT_DOUBLE_EQ(local.combined, global.combined);
  EXPECT_DOUBLE_EQ(local.bias, global.bias);
}

TEST(LocalLossTest, DetectsLocalOnlyBias) {
  // Globally fair (each group 50% positive overall) but each region is
  // maximally unfair — the paper's Fig. 1 scenario.
  const std::vector<int> z = {1, 0, 0, 1};
  const std::vector<int> y = z;
  const std::vector<size_t> g = {0, 1, 0, 1};
  const std::vector<size_t> regions = {0, 0, 1, 1};
  const GroupedPredictions in = Make(y, z, g, 2);
  EXPECT_DOUBLE_EQ(
      CombinedLoss(in, FairnessMetric::kDemographicParity, 0.0)
          .value()
          .combined,
      0.0);
  EXPECT_GT(
      LocalLoss(in, regions, 2, FairnessMetric::kDemographicParity, 0.0)
          .value()
          .combined,
      0.4);
}

TEST(LocalLossTest, WeightsByRegionSize) {
  // Region 0 (2 samples) has bias, region 1 (6 samples) does not.
  std::vector<int> z = {1, 0};
  std::vector<int> y = {1, 0};
  std::vector<size_t> g = {0, 1};
  std::vector<size_t> regions = {0, 0};
  for (int i = 0; i < 3; ++i) {
    z.push_back(1);
    z.push_back(1);
    y.push_back(1);
    y.push_back(1);
    g.push_back(0);
    g.push_back(1);
    regions.push_back(1);
    regions.push_back(1);
  }
  const GroupedPredictions in = Make(y, z, g, 2);
  const double local =
      LocalLoss(in, regions, 2, FairnessMetric::kDemographicParity, 0.0)
          .value()
          .combined;
  // Region 0 bias = 0.5, weight 2/8; region 1 bias = 0.
  EXPECT_NEAR(local, 0.5 * 2.0 / 8.0, 1e-12);
}

TEST(LocalLossTest, EmptyRegionsSkipped) {
  const std::vector<int> y = {1, 0};
  const std::vector<size_t> g = {0, 1};
  const std::vector<size_t> regions = {2, 2};  // regions 0,1 empty
  const GroupedPredictions in = Make(y, y, g, 2);
  const LossBreakdown loss =
      LocalLoss(in, regions, 3, FairnessMetric::kDemographicParity, 0.5)
          .value();
  EXPECT_DOUBLE_EQ(loss.inaccuracy, 0.0);
}

TEST(LocalLossTest, RejectsBadRegions) {
  const std::vector<int> y = {1, 0};
  const std::vector<size_t> g = {0, 1};
  const std::vector<size_t> regions = {0, 5};
  const GroupedPredictions in = Make(y, y, g, 2);
  EXPECT_FALSE(
      LocalLoss(in, regions, 2, FairnessMetric::kDemographicParity, 0.5)
          .ok());
  const std::vector<size_t> short_regions = {0};
  EXPECT_FALSE(LocalLoss(in, short_regions, 1,
                         FairnessMetric::kDemographicParity, 0.5)
                   .ok());
}

TEST(LocalLossTest, RejectsShortPredictions) {
  const std::vector<int> y = {1, 0, 1, 0, 1, 0, 1, 0};
  const std::vector<int> z = {1};
  const std::vector<size_t> g(8, 0);
  const std::vector<size_t> regions(8, 0);
  EXPECT_FALSE(LocalLoss(Make(y, z, g, 1), regions, 1,
                         FairnessMetric::kDemographicParity, 0.5)
                   .ok());
}

// Seeded random samples, G ∈ {1, 2, 3}, all four metrics, λ ∈ {0, ½, 1}:
// the count-table CombinedLoss and LocalLoss equal the row-by-row
// reference bit for bit.
TEST(LossPropertyTest, MatchesRowByRowReferenceExactly) {
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t num_groups = 1 + static_cast<size_t>(trial) % 3;
    const size_t num_regions = 1 + rng.UniformInt(4);
    const size_t n = 1 + rng.UniformInt(80);
    std::vector<int> y(n), z(n);
    std::vector<size_t> g(n), regions(n);
    for (size_t i = 0; i < n; ++i) {
      y[i] = rng.Bernoulli(0.4) ? 1 : 0;
      z[i] = rng.Bernoulli(0.5) ? 1 : 0;
      g[i] = rng.UniformInt(num_groups);
      regions[i] = rng.UniformInt(num_regions);
    }
    const GroupedPredictions in = Make(y, z, g, num_groups);
    for (const FairnessMetric metric :
         {FairnessMetric::kDemographicParity, FairnessMetric::kEqualizedOdds,
          FairnessMetric::kEqualOpportunity,
          FairnessMetric::kTreatmentEquality}) {
      EXPECT_EQ(ComputeBias(metric, in).value(),
                testing::ReferenceBias(metric, in).value());
      for (const double lambda : {0.0, 0.5, 1.0}) {
        const std::string where = "trial " + std::to_string(trial) + " " +
                                  FairnessMetricName(metric) + " lambda " +
                                  std::to_string(lambda);
        const LossBreakdown global = CombinedLoss(in, metric, lambda).value();
        const LossBreakdown global_ref =
            testing::ReferenceCombinedLoss(in, metric, lambda).value();
        EXPECT_EQ(global.inaccuracy, global_ref.inaccuracy) << where;
        EXPECT_EQ(global.bias, global_ref.bias) << where;
        EXPECT_EQ(global.combined, global_ref.combined) << where;
        const LossBreakdown local =
            LocalLoss(in, regions, num_regions, metric, lambda).value();
        const LossBreakdown local_ref =
            testing::ReferenceLocalLoss(in, regions, num_regions, metric,
                                        lambda)
                .value();
        EXPECT_EQ(local.inaccuracy, local_ref.inaccuracy) << where;
        EXPECT_EQ(local.bias, local_ref.bias) << where;
        EXPECT_EQ(local.combined, local_ref.combined) << where;
      }
    }
  }
}

}  // namespace
}  // namespace falcc
