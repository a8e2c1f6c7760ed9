#include "fairness/audit.h"

#include <sstream>

#include "data/transforms.h"
#include "eval/report.h"

namespace falcc {

Result<FairnessAudit> AuditPredictions(const Dataset& data,
                                       std::span<const int> predictions,
                                       size_t consistency_k) {
  if (predictions.size() != data.num_rows()) {
    return Status::InvalidArgument("audit: prediction count mismatch");
  }
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("audit: empty dataset");
  }
  Result<GroupIndex> index = GroupIndex::Build(data);
  if (!index.ok()) return index.status();
  Result<std::vector<size_t>> groups_r = index.value().GroupsOf(data);
  if (!groups_r.ok()) return groups_r.status();
  const std::vector<size_t>& groups = groups_r.value();
  const size_t num_groups = index.value().num_groups();

  GroupedPredictions in;
  in.labels = data.labels();
  in.predictions = predictions;
  in.groups = groups;
  in.num_groups = num_groups;

  Result<std::vector<double>> counted = CountConfusion(in);
  if (!counted.ok()) return counted.status();
  const std::vector<double>& counts = counted.value();

  const auto bias = [&](FairnessMetric metric) {
    return BiasFromCounts(metric, counts, num_groups).value();
  };
  FairnessAudit audit;
  audit.demographic_parity = bias(FairnessMetric::kDemographicParity);
  audit.equalized_odds = bias(FairnessMetric::kEqualizedOdds);
  audit.equal_opportunity = bias(FairnessMetric::kEqualOpportunity);
  audit.treatment_equality = bias(FairnessMetric::kTreatmentEquality);

  // Consistency over the standardized non-sensitive feature space.
  ColumnTransform transform = ColumnTransform::Standardize(data);
  transform.DropColumns(data.sensitive_features());
  Result<double> consistency =
      ConsistencyKnn(predictions, transform.ApplyAll(data), consistency_k);
  if (!consistency.ok()) return consistency.status();
  audit.consistency = consistency.value();

  // Per-group confusion statistics, read off the same table.
  double total_correct = 0.0;
  for (size_t g = 0; g < num_groups; ++g) {
    const double tn = counts[ConfusionIndex(g, 0, 0)];
    const double fp = counts[ConfusionIndex(g, 0, 1)];
    const double fn = counts[ConfusionIndex(g, 1, 0)];
    const double tp = counts[ConfusionIndex(g, 1, 1)];
    const double n = tn + fp + fn + tp;
    total_correct += tn + tp;
    GroupAudit group;
    group.name = index.value().GroupName(g, data);
    group.size = static_cast<size_t>(n);
    if (n > 0.0) {
      group.base_rate = (fn + tp) / n;
      group.positive_rate = (fp + tp) / n;
      group.accuracy = (tn + tp) / n;
    }
    if (tp + fn > 0.0) group.tpr = tp / (tp + fn);
    if (fp + tn > 0.0) group.fpr = fp / (fp + tn);
    audit.groups.push_back(std::move(group));
  }
  audit.accuracy = total_correct / static_cast<double>(data.num_rows());
  return audit;
}

std::string FormatAudit(const FairnessAudit& audit) {
  std::ostringstream out;
  out << "accuracy:            " << FormatPercent(audit.accuracy, 1)
      << "%\n";
  out << "demographic parity:  " << FormatDouble(audit.demographic_parity, 4)
      << '\n';
  out << "equalized odds:      " << FormatDouble(audit.equalized_odds, 4)
      << '\n';
  out << "equal opportunity:   " << FormatDouble(audit.equal_opportunity, 4)
      << '\n';
  out << "treatment equality:  " << FormatDouble(audit.treatment_equality, 4)
      << '\n';
  out << "consistency:         " << FormatDouble(audit.consistency, 4)
      << '\n';
  TextTable table({"group", "size", "base-rate%", "pos-rate%", "acc%",
                   "TPR%", "FPR%"});
  for (const GroupAudit& g : audit.groups) {
    table.AddRow({g.name, std::to_string(g.size),
                  FormatPercent(g.base_rate, 1),
                  FormatPercent(g.positive_rate, 1),
                  FormatPercent(g.accuracy, 1), FormatPercent(g.tpr, 1),
                  FormatPercent(g.fpr, 1)});
  }
  out << table.ToString();
  return out.str();
}

}  // namespace falcc
