// The combined accuracy/fairness loss L̂ (Eq. 2 of the paper) and its
// local (per-region) aggregation.
//
//   L̂ = λ · inaccuracy + (1 − λ) · bias
//
// Model assessment minimizes L̂ inside each cluster; the evaluation
// reports L̂-based rankings and the cluster-weighted local loss.

#ifndef FALCC_FAIRNESS_LOSS_H_
#define FALCC_FAIRNESS_LOSS_H_

#include "fairness/metrics.h"

namespace falcc {

/// Accuracy/fairness/loss bundle of one evaluation.
struct LossBreakdown {
  double inaccuracy = 0.0;
  double bias = 0.0;
  double combined = 0.0;  ///< λ·inaccuracy + (1−λ)·bias
};

/// Evaluates Eq. 2 from one confusion table (num_groups * 4 entries, see
/// ConfusionIndex): the L̂ of every sample counted into it. Fails on
/// λ ∉ [0, 1], a table of the wrong size, or a table with no samples.
Result<LossBreakdown> LossFromCounts(std::span<const double> counts,
                                     size_t num_groups, FairnessMetric metric,
                                     double lambda);

/// Evaluates Eq. 2 over the full sample set.
Result<LossBreakdown> CombinedLoss(const GroupedPredictions& in,
                                   FairnessMetric metric, double lambda);

/// Evaluates Eq. 2 inside each region and returns the average weighted by
/// the region's share of samples (the paper's "local bias" report, §4.1.3
/// uses λ = 0.5; λ = 0 yields the pure per-region bias).
/// `regions[i]` is the region id of sample i; ids must be < num_regions.
Result<LossBreakdown> LocalLoss(const GroupedPredictions& in,
                                std::span<const size_t> regions,
                                size_t num_regions, FairnessMetric metric,
                                double lambda);

}  // namespace falcc

#endif  // FALCC_FAIRNESS_LOSS_H_
