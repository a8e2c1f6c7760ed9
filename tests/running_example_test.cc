// Encodes the paper's running example (Tab. 2 and Examples 3.1–3.5):
// seven labeled validation employees, three models m1–m3 with the printed
// predictions, two clusters, two sensitive groups (g_d = gender 1,
// g_f = gender 0), demographic parity, λ = 0.5.
//
// Note on Example 3.4: the paper claims {(m3, g_d), (m3, g_f)} is optimal
// for cluster C1 with inaccuracy 1/3 and bias 0 (L̂ = 1/6). Evaluating
// every combination with the paper's own Eq. 2 + Tab. 3 formulas, the
// combinations assigning m2 or m3 to g_d and m1 to g_f achieve
// inaccuracy 0 with dp bias 1/4, i.e. L̂ = 1/8 < 1/6 — so the printed
// text slightly contradicts its own formulas for C1. This test pins the
// formula-faithful behaviour and additionally verifies the values the
// paper states for its chosen combinations. Cluster C2 matches the paper
// exactly ({(m1, g_d), (m3, g_f)} is the unique zero-loss combination).

#include <gtest/gtest.h>

#include "core/assessment.h"

namespace falcc {
namespace {

class RunningExampleTest : public ::testing::Test {
 protected:
  RunningExampleTest() {
    // Rows are eid 1..7 of Tab. 2 (index = eid − 1).
    votes_ = {
        {0, 1, 1, 0, 0, 0, 0},  // Pr_m1
        {1, 1, 0, 0, 1, 0, 0},  // Pr_m2
        {1, 0, 1, 0, 0, 1, 1},  // Pr_m3
    };
    labels_ = {1, 1, 1, 0, 0, 0, 1};
    // gender: 1 = g_d (group 0 here), 0 = g_f (group 1 here).
    groups_ = {0, 0, 1, 1, 0, 1, 1};
    cluster1_ = {0, 2, 5};     // eids 1, 3, 6
    cluster2_ = {1, 3, 4, 6};  // eids 2, 4, 5, 7

    ctx_.votes = &votes_;
    ctx_.labels = labels_;
    ctx_.groups = groups_;
    ctx_.num_groups = 2;
    ctx_.metric = FairnessMetric::kDemographicParity;
    ctx_.lambda = 0.5;
  }

  std::vector<std::vector<int>> votes_;
  std::vector<int> labels_;
  std::vector<size_t> groups_;
  std::vector<size_t> cluster1_, cluster2_;
  AssessmentContext ctx_;
};

TEST_F(RunningExampleTest, PaperValuesForM3M3OnClusterOne) {
  // Example 3.4: (m3, m3) on C1 has inaccuracy 1/3 and bias 0 -> L̂ = 1/6.
  const ModelCombination m3m3 = {2, 2};
  EXPECT_NEAR(AssessCombination(ctx_, m3m3, cluster1_).value(), 1.0 / 6.0,
              1e-12);
}

TEST_F(RunningExampleTest, PaperValuesForM1M3OnClusterTwo) {
  // Example 3.4: (m1 for g_d, m3 for g_f) on C2 is perfect: L̂ = 0.
  const ModelCombination m1m3 = {0, 2};
  EXPECT_NEAR(AssessCombination(ctx_, m1m3, cluster2_).value(), 0.0, 1e-12);
}

TEST_F(RunningExampleTest, ClusterTwoSelectionMatchesPaper) {
  std::vector<ModelCombination> combos;
  for (size_t a = 0; a < 3; ++a) {
    for (size_t b = 0; b < 3; ++b) combos.push_back({a, b});
  }
  const RegionBest best = ReassessRegion(ctx_, combos, cluster2_).value();
  EXPECT_EQ(combos[best.index], (ModelCombination{0, 2}));  // (m1, m3)
  EXPECT_EQ(best.loss, 0.0);                                // unique 0
}

TEST_F(RunningExampleTest, ClusterOneSelectionIsFormulaOptimal) {
  std::vector<ModelCombination> combos;
  for (size_t a = 0; a < 3; ++a) {
    for (size_t b = 0; b < 3; ++b) combos.push_back({a, b});
  }
  const RegionBest best = ReassessRegion(ctx_, combos, cluster1_).value();
  const size_t best_idx = best.index;
  const double best_loss = best.loss;
  EXPECT_EQ(best_loss, AssessCombination(ctx_, combos[best_idx], cluster1_)
                           .value());
  // The formula-faithful optimum is L̂ = 1/8 (see file comment), better
  // than the paper's stated 1/6 for (m3, m3).
  EXPECT_NEAR(best_loss, 0.125, 1e-12);
  // And it assigns m1 to g_f (the only model perfect on g_f in C1).
  EXPECT_EQ(combos[best_idx][1], 0u);
  // No combination beats it.
  for (const auto& combo : combos) {
    EXPECT_GE(AssessCombination(ctx_, combo, cluster1_).value(),
              best_loss - 1e-12);
  }
}

TEST_F(RunningExampleTest, NineCandidateCombinationsAsInExample31) {
  // Example 3.1: three models and two groups yield 9 candidates.
  size_t count = 0;
  for (size_t a = 0; a < 3; ++a) {
    for (size_t b = 0; b < 3; ++b, ++count) {
    }
  }
  EXPECT_EQ(count, 9u);
}

TEST_F(RunningExampleTest, OnlinePhaseLookupForNewEmployee) {
  // Example 3.5: t (eid 0) belongs to g_d and matches cluster C2, so it
  // must be classified by the model stored for (C2, g_d) — m1 under the
  // paper's MC. Simulate the lookup.
  const ModelCombination mc_c2 = {0, 2};  // (m1, g_d), (m3, g_f)
  const size_t group_of_t = 0;            // g_d
  EXPECT_EQ(mc_c2[group_of_t], 0u);       // m1
}

}  // namespace
}  // namespace falcc
