// One-call fairness audit: evaluates a prediction vector against every
// fairness notion the library implements, with per-group diagnostics.
// The reporting-side companion of the metric primitives in metrics.h —
// used by the CLI's `inspect` command and convenient for library users
// who want a dashboard-style summary instead of individual metric calls.
// Every group figure is read off one CountConfusion table.

#ifndef FALCC_FAIRNESS_AUDIT_H_
#define FALCC_FAIRNESS_AUDIT_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/groups.h"
#include "fairness/metrics.h"

namespace falcc {

/// Confusion-matrix-level statistics of one sensitive group.
struct GroupAudit {
  std::string name;           ///< e.g. "(sex=1, race=0)"
  size_t size = 0;
  double base_rate = 0.0;     ///< P(y=1) within the group
  double positive_rate = 0.0; ///< P(z=1) within the group
  double accuracy = 0.0;
  double tpr = 0.0;           ///< 0 when the group has no positives
  double fpr = 0.0;           ///< 0 when the group has no negatives
};

/// Full audit of one prediction vector.
struct FairnessAudit {
  double accuracy = 0.0;
  double demographic_parity = 0.0;
  double equalized_odds = 0.0;
  double equal_opportunity = 0.0;
  double treatment_equality = 0.0;
  /// 1 = fully consistent over k nearest (non-sensitive) neighbors.
  double consistency = 0.0;
  std::vector<GroupAudit> groups;
};

/// Audits `predictions` (one binary label per row of `data`). The
/// consistency neighborhood size defaults to the paper's k = 15.
Result<FairnessAudit> AuditPredictions(const Dataset& data,
                                       std::span<const int> predictions,
                                       size_t consistency_k = 15);

/// Renders an audit as a human-readable multi-line report.
std::string FormatAudit(const FairnessAudit& audit);

}  // namespace falcc

#endif  // FALCC_FAIRNESS_AUDIT_H_
