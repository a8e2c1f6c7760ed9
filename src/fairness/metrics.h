// Group-fairness metrics (Tab. 3 of the paper) and the consistency
// metric for individual fairness.
//
// All group metrics are the paper's mean-difference form: for each
// sensitive group, compare a group-conditional probability against the
// same probability over the whole (sub)population, and average the
// absolute deviations over groups. Every metric returns a bias value in
// [0, 1], 0 = perfectly fair.
//
// Each group metric is a function of per-group confusion counts, so all
// of them run as "count, then evaluate": CountConfusion validates the
// samples and builds the table, BiasFromCounts applies the formula. The
// counts are exact integers held in doubles, so the result does not
// depend on the order the samples were counted in.

#ifndef FALCC_FAIRNESS_METRICS_H_
#define FALCC_FAIRNESS_METRICS_H_

#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace falcc {

/// The fairness definitions integrated in FALCC (Tab. 3).
enum class FairnessMetric {
  kDemographicParity,
  kEqualizedOdds,
  kEqualOpportunity,
  kTreatmentEquality,
};

/// Short name, e.g. "dp", "eq_od", "eq_op", "tr_eq".
std::string FairnessMetricName(FairnessMetric metric);

/// Inputs shared by all group metrics: true labels y, predictions z,
/// group id per sample, and the number of groups.
struct GroupedPredictions {
  std::span<const int> labels;       ///< y_i ∈ {0,1}
  std::span<const int> predictions;  ///< z_i ∈ {0,1}
  std::span<const size_t> groups;    ///< group id per sample
  size_t num_groups = 0;
};

/// Index of (group, truth y, prediction z) in a confusion table:
/// counts[(g * 2 + y) * 2 + z], four entries per group.
inline size_t ConfusionIndex(size_t group, int truth, int predicted) {
  return (group * 2 + static_cast<size_t>(truth)) * 2 +
         static_cast<size_t>(predicted);
}

/// Validates `in` (non-empty, equal sizes, binary labels and
/// predictions, group ids < num_groups) and counts it into
/// `num_regions` confusion tables of num_groups * 4 entries, back to
/// back: sample i goes to table regions[i], or to table 0 when
/// `regions` is empty. Region ids must be < num_regions.
Result<std::vector<double>> CountConfusion(
    const GroupedPredictions& in, std::span<const size_t> regions = {},
    size_t num_regions = 1);

/// The bias of `metric` from one confusion table (num_groups * 4
/// entries, see ConfusionIndex). A table with no samples has bias 0.
Result<double> BiasFromCounts(FairnessMetric metric,
                              std::span<const double> counts,
                              size_t num_groups);

/// Demographic parity: mean over groups of |P(z=1|G=j) − P(z=1)|.
Result<double> DemographicParity(const GroupedPredictions& in);

/// Equalized odds: average over y ∈ {0,1} of the demographic-parity-style
/// deviation conditioned on y.
Result<double> EqualizedOdds(const GroupedPredictions& in);

/// Equal opportunity: the y = 1 half of equalized odds.
Result<double> EqualOpportunity(const GroupedPredictions& in);

/// Treatment equality: mean over groups of the deviation of the group's
/// FP/(FP+FN) ratio from the overall ratio.
Result<double> TreatmentEquality(const GroupedPredictions& in);

/// Dispatch on `metric`.
Result<double> ComputeBias(FairnessMetric metric,
                           const GroupedPredictions& in);

/// Consistency (individual fairness, Zemel et al.):
/// 1 − (1/n) Σ_i |z_i − mean(z of the k nearest neighbors of i)|.
/// `neighbors[i]` lists the neighbor indices of sample i (excluding i).
/// Returns a value in [0, 1]; 1 = fully consistent.
Result<double> Consistency(std::span<const int> predictions,
                           const std::vector<std::vector<size_t>>& neighbors);

/// Convenience: builds the neighbor lists with a kd-tree over `points`
/// (k nearest, excluding the sample itself) and evaluates Consistency.
Result<double> ConsistencyKnn(std::span<const int> predictions,
                              const std::vector<std::vector<double>>& points,
                              size_t k);

}  // namespace falcc

#endif  // FALCC_FAIRNESS_METRICS_H_
