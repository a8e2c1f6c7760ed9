#include "core/assessment.h"

#include <string>

#include <gtest/gtest.h>

#include "testing/reference_loss.h"
#include "util/rng.h"

namespace falcc {
namespace {

// Hand-built context: 2 models, 6 validation rows, 2 groups.
// Model 0 predicts everything 1; model 1 predicts the true labels.
struct Fixture {
  std::vector<std::vector<int>> votes = {
      {1, 1, 1, 1, 1, 1},  // model 0
      {1, 0, 1, 0, 1, 0},  // model 1 == labels
  };
  std::vector<int> labels = {1, 0, 1, 0, 1, 0};
  std::vector<size_t> groups = {0, 0, 0, 1, 1, 1};

  AssessmentContext Context(FairnessMetric metric, double lambda) {
    AssessmentContext ctx;
    ctx.votes = &votes;
    ctx.labels = labels;
    ctx.groups = groups;
    ctx.num_groups = 2;
    ctx.metric = metric;
    ctx.lambda = lambda;
    return ctx;
  }
};

TEST(AssessCombinationTest, PerfectCombinationZeroLoss) {
  Fixture f;
  const AssessmentContext ctx =
      f.Context(FairnessMetric::kDemographicParity, 0.5);
  const std::vector<size_t> rows = {0, 1, 2, 3, 4, 5};
  const ModelCombination perfect = {1, 1};
  EXPECT_NEAR(AssessCombination(ctx, perfect, rows).value(),
              0.5 * (1.0 / 6.0),  // dp of the true labels (2/3 vs 1/3)
              1e-12);
}

TEST(AssessCombinationTest, AllPositiveCombination) {
  Fixture f;
  const AssessmentContext ctx =
      f.Context(FairnessMetric::kDemographicParity, 0.5);
  const std::vector<size_t> rows = {0, 1, 2, 3, 4, 5};
  const ModelCombination all_one = {0, 0};
  // Inaccuracy 0.5 (3 of 6 wrong), dp bias 0 (everyone positive).
  EXPECT_NEAR(AssessCombination(ctx, all_one, rows).value(), 0.25, 1e-12);
}

TEST(AssessCombinationTest, MixedCombinationUsesGroupModel) {
  Fixture f;
  const AssessmentContext ctx = f.Context(FairnessMetric::kDemographicParity,
                                          1.0);  // pure accuracy
  const std::vector<size_t> rows = {0, 1, 2, 3, 4, 5};
  // Group 0 uses the perfect model, group 1 the all-ones model: group 1
  // contributes 1 error (row 3 and 5 are 0... both wrong) -> 2/6.
  const ModelCombination mixed = {1, 0};
  EXPECT_NEAR(AssessCombination(ctx, mixed, rows).value(), 2.0 / 6.0, 1e-12);
}

TEST(AssessCombinationTest, SubsetOfRows) {
  Fixture f;
  const AssessmentContext ctx =
      f.Context(FairnessMetric::kDemographicParity, 1.0);
  const std::vector<size_t> rows = {3, 5};  // group-1 rows labeled 0
  const ModelCombination all_one = {0, 0};
  EXPECT_NEAR(AssessCombination(ctx, all_one, rows).value(), 1.0, 1e-12);
}

TEST(AssessCombinationTest, ValidationErrors) {
  Fixture f;
  const AssessmentContext ctx =
      f.Context(FairnessMetric::kDemographicParity, 0.5);
  const std::vector<size_t> rows = {0};
  EXPECT_FALSE(AssessCombination(ctx, {1}, rows).ok());  // wrong combo size
  const std::vector<size_t> empty;
  EXPECT_FALSE(AssessCombination(ctx, {1, 1}, empty).ok());
  const std::vector<size_t> out_of_range = {99};
  EXPECT_FALSE(AssessCombination(ctx, {1, 1}, out_of_range).ok());
  const ModelCombination bad_model = {7, 1};
  EXPECT_FALSE(AssessCombination(ctx, bad_model, rows).ok());
}

TEST(AssessCombinationTest, RejectsGroupIdOutOfRange) {
  // A group id >= num_groups must be rejected, not used to index the
  // combination.
  Fixture f;
  f.groups[5] = 5;
  const AssessmentContext ctx =
      f.Context(FairnessMetric::kDemographicParity, 0.5);
  const std::vector<size_t> rows = {0, 1, 2, 3, 4, 5};
  EXPECT_FALSE(AssessCombination(ctx, {1, 1}, rows).ok());
}

TEST(AssessCombinationTest, ConsistencyModeUnanimousRegionIsPureAccuracy) {
  Fixture f;
  AssessmentContext ctx = f.Context(FairnessMetric::kDemographicParity, 0.5);
  ctx.mode = AssessmentMode::kConsistency;
  const std::vector<size_t> rows = {0, 1, 2, 3, 4, 5};
  // Model 0 predicts all 1: fully consistent, 3/6 wrong -> L = 0.25.
  EXPECT_NEAR(AssessCombination(ctx, {0, 0}, rows).value(), 0.25, 1e-12);
}

TEST(AssessCombinationTest, ConsistencyModePenalizesDisagreement) {
  Fixture f;
  AssessmentContext ctx = f.Context(FairnessMetric::kDemographicParity, 0.0);
  ctx.mode = AssessmentMode::kConsistency;
  const std::vector<size_t> rows = {0, 1, 2, 3, 4, 5};
  // Model 1's predictions alternate (1,0,1,0,1,0): each sample deviates
  // from the others' mean, so inconsistency is high while the all-ones
  // model scores 0.
  const double alternating = AssessCombination(ctx, {1, 1}, rows).value();
  const double constant = AssessCombination(ctx, {0, 0}, rows).value();
  EXPECT_DOUBLE_EQ(constant, 0.0);
  EXPECT_GT(alternating, 0.3);
}

TEST(AssessCombinationTest, ConsistencyModeSingleRowRegionIsConsistent) {
  Fixture f;
  AssessmentContext ctx = f.Context(FairnessMetric::kDemographicParity, 0.0);
  ctx.mode = AssessmentMode::kConsistency;
  const std::vector<size_t> one = {0};
  EXPECT_DOUBLE_EQ(AssessCombination(ctx, {1, 1}, one).value(), 0.0);
}

TEST(ReassessRegionTest, PicksPerRegionBest) {
  Fixture f;
  const AssessmentContext ctx =
      f.Context(FairnessMetric::kDemographicParity, 1.0);
  const std::vector<ModelCombination> combos = {{0, 0}, {1, 1}};
  for (const std::vector<size_t>& region :
       {std::vector<size_t>{0, 1, 2}, std::vector<size_t>{3, 4, 5}}) {
    const RegionBest best = ReassessRegion(ctx, combos, region).value();
    EXPECT_EQ(best.index, 1u);
    EXPECT_EQ(best.loss, 0.0);  // model 1 predicts the labels
  }
}

TEST(ReassessRegionTest, TieBreaksToLowerIndex) {
  Fixture f;
  f.votes[1] = f.votes[0];  // both models identical now
  const AssessmentContext ctx =
      f.Context(FairnessMetric::kDemographicParity, 0.5);
  const std::vector<ModelCombination> combos = {{0, 0}, {1, 1}};
  const std::vector<size_t> rows = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ReassessRegion(ctx, combos, rows).value().index, 0u);
}

TEST(ReassessRegionTest, RejectsEmptyRegionAndNoCombinations) {
  Fixture f;
  const AssessmentContext ctx =
      f.Context(FairnessMetric::kDemographicParity, 0.5);
  const std::vector<size_t> empty;
  EXPECT_FALSE(ReassessRegion(ctx, {{0, 0}}, empty).ok());
  const std::vector<size_t> rows = {0, 1};
  EXPECT_FALSE(ReassessRegion(ctx, {}, rows).ok());
}

TEST(ReassessRegionTest, FindsGlobalBestOverAllRows) {
  Fixture f;
  const AssessmentContext ctx =
      f.Context(FairnessMetric::kDemographicParity, 1.0);
  const std::vector<ModelCombination> combos = {{0, 0}, {0, 1}, {1, 0},
                                                {1, 1}};
  const std::vector<size_t> all = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ReassessRegion(ctx, combos, all).value().index, 3u);
}

TEST(FilterTopCombinationsTest, KeepsBestAscending) {
  Fixture f;
  const AssessmentContext ctx =
      f.Context(FairnessMetric::kDemographicParity, 1.0);
  const std::vector<ModelCombination> combos = {{0, 0}, {1, 1}, {1, 0}};
  const std::vector<size_t> kept =
      FilterTopCombinations(ctx, combos, 2).value();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 1u);  // perfect combination first
}

TEST(FilterTopCombinationsTest, KeepLargerThanSetKeepsAll) {
  Fixture f;
  const AssessmentContext ctx =
      f.Context(FairnessMetric::kDemographicParity, 0.5);
  const std::vector<ModelCombination> combos = {{0, 0}, {1, 1}};
  EXPECT_EQ(FilterTopCombinations(ctx, combos, 10).value().size(), 2u);
}

TEST(FilterTopCombinationsTest, RejectsZeroKeep) {
  Fixture f;
  const AssessmentContext ctx =
      f.Context(FairnessMetric::kDemographicParity, 0.5);
  EXPECT_FALSE(FilterTopCombinations(ctx, {{0, 0}}, 0).ok());
}

// --- Count-table evaluator against the row-by-row reference ---------

// Random votes, labels and groups; G ∈ {1, 2, 3}; all four metrics and
// consistency mode; λ ∈ {0, ½, 1}; duplicated models force ties. Every
// combination's L̂ from RegionLosses must equal the row-by-row reference
// bit for bit, and ReassessRegion must return the lowest-index argmin of
// a brute-force loop over the reference.
TEST(RegionLossesPropertyTest, MatchesRowByRowReferenceExactly) {
  Rng rng(20261019);
  size_t ties = 0;
  for (int trial = 0; trial < 36; ++trial) {
    const size_t num_groups = 1 + static_cast<size_t>(trial) % 3;
    const size_t distinct = 2 + rng.UniformInt(3);
    const size_t n = 8 + rng.UniformInt(60);

    std::vector<std::vector<int>> votes(distinct, std::vector<int>(n));
    std::vector<int> labels(n);
    std::vector<size_t> groups(n);
    for (size_t i = 0; i < n; ++i) {
      labels[i] = rng.Bernoulli(0.4) ? 1 : 0;
      groups[i] = rng.UniformInt(num_groups);
    }
    for (std::vector<int>& model : votes) {
      const double positive_rate = rng.Uniform(0.1, 0.9);
      for (int& v : model) v = rng.Bernoulli(positive_rate) ? 1 : 0;
    }
    // Copies of existing models at later indices.
    for (size_t d = 0; d < 1 + static_cast<size_t>(trial) % 2; ++d) {
      votes.push_back(votes[rng.UniformInt(distinct)]);
    }
    const size_t num_models = votes.size();

    std::vector<ModelCombination> combos;
    size_t total = 1;
    for (size_t g = 0; g < num_groups; ++g) total *= num_models;
    for (size_t code = 0; code < total; ++code) {
      ModelCombination combo(num_groups);
      size_t rest = code;
      for (size_t g = 0; g < num_groups; ++g) {
        combo[g] = rest % num_models;
        rest /= num_models;
      }
      combos.push_back(combo);
    }

    // A region: a random subset of rows, some repeated (gap filling can
    // add a row twice).
    std::vector<size_t> rows;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.6)) rows.push_back(i);
      if (rng.Bernoulli(0.05)) rows.push_back(i);
    }
    if (rows.empty()) rows.push_back(0);

    for (const AssessmentMode mode :
         {AssessmentMode::kGroupFairness, AssessmentMode::kConsistency}) {
      for (const FairnessMetric metric :
           {FairnessMetric::kDemographicParity, FairnessMetric::kEqualizedOdds,
            FairnessMetric::kEqualOpportunity,
            FairnessMetric::kTreatmentEquality}) {
        if (mode == AssessmentMode::kConsistency &&
            metric != FairnessMetric::kDemographicParity) {
          continue;  // the metric does not enter consistency mode
        }
        for (const double lambda : {0.0, 0.5, 1.0}) {
          AssessmentContext ctx;
          ctx.votes = &votes;
          ctx.labels = labels;
          ctx.groups = groups;
          ctx.num_groups = num_groups;
          ctx.mode = mode;
          ctx.metric = metric;
          ctx.lambda = lambda;
          const std::string where =
              "trial " + std::to_string(trial) + " " +
              FairnessMetricName(metric) + " lambda " +
              std::to_string(lambda) +
              (mode == AssessmentMode::kConsistency ? " consistency" : "");

          const std::vector<double> losses =
              RegionLosses(ctx, combos, rows).value();
          ASSERT_EQ(losses.size(), combos.size()) << where;
          RegionBest expected;
          expected.loss = 1e300;
          for (size_t c = 0; c < combos.size(); ++c) {
            const double reference =
                testing::ReferenceAssessCombination(ctx, combos[c], rows)
                    .value();
            EXPECT_EQ(losses[c], reference) << where << " combo " << c;
            EXPECT_EQ(AssessCombination(ctx, combos[c], rows).value(),
                      reference)
                << where << " combo " << c;
            if (reference < expected.loss) {
              expected.loss = reference;
              expected.index = c;
            } else if (reference == expected.loss) {
              ++ties;
            }
          }
          const RegionBest best = ReassessRegion(ctx, combos, rows).value();
          EXPECT_EQ(best.index, expected.index) << where;
          EXPECT_EQ(best.loss, expected.loss) << where;
        }
      }
    }
  }
  EXPECT_GT(ties, 0u);  // the duplicated models did force ties
}

}  // namespace
}  // namespace falcc
