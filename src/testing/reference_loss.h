// Row-by-row reference implementations of the combined loss L̂ (Eq. 2)
// and the Tab. 3 group metrics.
//
// The library computes every group metric from per-group confusion
// counts (fairness/metrics.h CountConfusion / BiasFromCounts). These
// helpers keep the formulas in their original per-sample form — mask
// vectors, per-region row copies, per-combination row copies — so tests
// can check that the count-table evaluator returns the same doubles bit
// for bit. Test-only: nothing in the product library calls them.

#ifndef FALCC_TESTING_REFERENCE_LOSS_H_
#define FALCC_TESTING_REFERENCE_LOSS_H_

#include <span>

#include "core/assessment.h"
#include "fairness/loss.h"

namespace falcc {
namespace testing {

/// The bias of `metric` over `in`, one sample at a time.
Result<double> ReferenceBias(FairnessMetric metric,
                             const GroupedPredictions& in);

/// Eq. 2 over all of `in`, one sample at a time.
Result<LossBreakdown> ReferenceCombinedLoss(const GroupedPredictions& in,
                                            FairnessMetric metric,
                                            double lambda);

/// Region-weighted Eq. 2: copies each region's samples out and runs
/// ReferenceCombinedLoss on the copy.
Result<LossBreakdown> ReferenceLocalLoss(const GroupedPredictions& in,
                                         std::span<const size_t> regions,
                                         size_t num_regions,
                                         FairnessMetric metric, double lambda);

/// L̂ of one combination over `rows`: copies the rows' labels, the
/// combination's predictions and the groups, then evaluates them (group
/// fairness through ReferenceCombinedLoss, consistency mode through its
/// row loop).
Result<double> ReferenceAssessCombination(const AssessmentContext& ctx,
                                          const ModelCombination& combination,
                                          std::span<const size_t> rows);

}  // namespace testing
}  // namespace falcc

#endif  // FALCC_TESTING_REFERENCE_LOSS_H_
