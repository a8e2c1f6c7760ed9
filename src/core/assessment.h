// Model assessment (paper §3.6): evaluating candidate model combinations
// against the combined loss L̂ inside local regions, and retaining the
// best combination per region.

#ifndef FALCC_CORE_ASSESSMENT_H_
#define FALCC_CORE_ASSESSMENT_H_

#include "core/model_pool.h"
#include "fairness/loss.h"

namespace falcc {

/// What the unfairness part of L̂ measures during assessment.
enum class AssessmentMode {
  /// Group fairness: one of the Tab. 3 mean-difference metrics inside
  /// the region (the paper's default).
  kGroupFairness,
  /// Individual fairness: 1 − consistency, with the region itself used
  /// as each sample's neighborhood — the paper's §3.6 "leverage clusters
  /// as substitutes for kNN" approximation.
  kConsistency,
};

/// Precomputed context for assessing combinations on validation data.
struct AssessmentContext {
  /// votes[m][row]: prediction of model m on validation row `row`.
  const std::vector<std::vector<int>>* votes = nullptr;
  /// True labels of the validation rows.
  std::span<const int> labels;
  /// Sensitive group of each validation row.
  std::span<const size_t> groups;
  size_t num_groups = 0;
  AssessmentMode mode = AssessmentMode::kGroupFairness;
  FairnessMetric metric = FairnessMetric::kDemographicParity;
  double lambda = 0.5;
};

/// L̂ of every combination in `combos` over the validation rows in `rows`
/// (a local region, possibly gap-filled with neighbors of missing
/// groups), in the order of `combos`; empty when `combos` is. In
/// group-fairness mode one pass over the rows counts an M × G × 4
/// confusion table (model, group, truth, vote), and each combination's
/// L̂ is LossFromCounts over the G rows of the table its models pick —
/// the same doubles CombinedLoss gives over the combination's
/// predictions. Consistency mode runs a row loop per combination: its
/// sum depends on row order.
Result<std::vector<double>> RegionLosses(
    const AssessmentContext& ctx, const std::vector<ModelCombination>& combos,
    std::span<const size_t> rows);

/// L̂ of one combination over `rows` (RegionLosses of one combination).
Result<double> AssessCombination(const AssessmentContext& ctx,
                                 const ModelCombination& combination,
                                 std::span<const size_t> rows);

/// Winner of one region's assessment: the index (into the candidate
/// combination vector) of the combination minimizing L̂, and that loss.
struct RegionBest {
  size_t index = 0;
  double loss = 0.0;
};

/// Assesses every candidate combination over one region's rows and
/// returns the winner plus its L̂; ties go to the lower index, so results
/// are deterministic. This selects each cluster's combination offline
/// (and, over all validation rows, the global best: the Decouple
/// baseline's selection), FALCES's per-sample combination, and the
/// online monitor's partial re-assessment: a drifted cluster is
/// refreshed by re-running exactly this selection over its windowed
/// stream samples.
Result<RegionBest> ReassessRegion(const AssessmentContext& ctx,
                                  const std::vector<ModelCombination>& combos,
                                  std::span<const size_t> rows);

/// Indices of the `keep` combinations with lowest global L̂, ascending by
/// loss (FALCES pre-filtering step).
Result<std::vector<size_t>> FilterTopCombinations(
    const AssessmentContext& ctx, const std::vector<ModelCombination>& combos,
    size_t keep);

}  // namespace falcc

#endif  // FALCC_CORE_ASSESSMENT_H_
