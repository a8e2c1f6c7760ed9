#include "fairness/metrics.h"

#include <cmath>

#include "cluster/kdtree.h"

namespace falcc {

namespace {

// Mean over groups of |rate_j − rate_overall|, where rate is the
// positive-prediction rate among samples with label `truth` (every
// sample when `truth` < 0). Groups with no such samples contribute 0
// (they have no measurable rate).
double MeanRateDeviation(std::span<const double> counts, size_t num_groups,
                         int truth) {
  const int y_lo = truth < 0 ? 0 : truth, y_hi = truth < 0 ? 1 : truth;
  const auto tally = [&](size_t g, int z_lo) {
    double sum = 0.0;
    for (int y = y_lo; y <= y_hi; ++y) {
      for (int z = z_lo; z <= 1; ++z) sum += counts[ConfusionIndex(g, y, z)];
    }
    return sum;
  };
  double pos = 0.0, count = 0.0;
  for (size_t g = 0; g < num_groups; ++g) {
    count += tally(g, 0);
    pos += tally(g, 1);
  }
  if (count <= 0.0) return 0.0;
  const double overall = pos / count;
  double dev = 0.0;
  for (size_t g = 0; g < num_groups; ++g) {
    const double group_count = tally(g, 0);
    if (group_count <= 0.0) continue;
    dev += std::fabs(tally(g, 1) / group_count - overall);
  }
  return dev / static_cast<double>(num_groups);
}

// Mean over groups of the deviation of the group's FP/(FP+FN) ratio
// from the overall ratio.
double TreatmentDeviation(std::span<const double> counts,
                          size_t num_groups) {
  double fp_total = 0.0, fn_total = 0.0;
  for (size_t g = 0; g < num_groups; ++g) {
    fp_total += counts[ConfusionIndex(g, 0, 1)];
    fn_total += counts[ConfusionIndex(g, 1, 0)];
  }
  // With no errors at all, treatment is trivially equal.
  if (fp_total + fn_total <= 0.0) return 0.0;
  const double overall = fp_total / (fp_total + fn_total);
  double dev = 0.0;
  for (size_t g = 0; g < num_groups; ++g) {
    const double fp = counts[ConfusionIndex(g, 0, 1)];
    const double denom = fp + counts[ConfusionIndex(g, 1, 0)];
    if (denom <= 0.0) continue;  // group has no errors: skip (no ratio)
    dev += std::fabs(fp / denom - overall);
  }
  return dev / static_cast<double>(num_groups);
}

}  // namespace

std::string FairnessMetricName(FairnessMetric metric) {
  switch (metric) {
    case FairnessMetric::kDemographicParity:
      return "dp";
    case FairnessMetric::kEqualizedOdds:
      return "eq_od";
    case FairnessMetric::kEqualOpportunity:
      return "eq_op";
    case FairnessMetric::kTreatmentEquality:
      return "tr_eq";
  }
  return "unknown";
}

Result<std::vector<double>> CountConfusion(const GroupedPredictions& in,
                                           std::span<const size_t> regions,
                                           size_t num_regions) {
  const size_t n = in.labels.size();
  if (n == 0) return Status::InvalidArgument("metric: no samples");
  if (in.predictions.size() != n || in.groups.size() != n) {
    return Status::InvalidArgument("metric: input size mismatch");
  }
  if (in.num_groups == 0) {
    return Status::InvalidArgument("metric: num_groups must be positive");
  }
  if (num_regions == 0 || (!regions.empty() && regions.size() != n)) {
    return Status::InvalidArgument("metric: regions size mismatch");
  }
  const size_t width = in.num_groups * 4;
  std::vector<double> counts(num_regions * width, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (in.groups[i] >= in.num_groups) {
      return Status::InvalidArgument("metric: group id out of range");
    }
    if ((in.labels[i] != 0 && in.labels[i] != 1) ||
        (in.predictions[i] != 0 && in.predictions[i] != 1)) {
      return Status::InvalidArgument("metric: labels must be binary");
    }
    const size_t region = regions.empty() ? 0 : regions[i];
    if (region >= num_regions) {
      return Status::InvalidArgument("metric: region id out of range");
    }
    counts[region * width +
           ConfusionIndex(in.groups[i], in.labels[i], in.predictions[i])] +=
        1.0;
  }
  return counts;
}

Result<double> BiasFromCounts(FairnessMetric metric,
                              std::span<const double> counts,
                              size_t num_groups) {
  if (num_groups == 0 || counts.size() != num_groups * 4) {
    return Status::InvalidArgument("metric: confusion table size mismatch");
  }
  switch (metric) {
    case FairnessMetric::kDemographicParity:
      return MeanRateDeviation(counts, num_groups, -1);
    case FairnessMetric::kEqualizedOdds:
      return (MeanRateDeviation(counts, num_groups, 0) +
              MeanRateDeviation(counts, num_groups, 1)) /
             2.0;
    case FairnessMetric::kEqualOpportunity:
      return MeanRateDeviation(counts, num_groups, 1);
    case FairnessMetric::kTreatmentEquality:
      return TreatmentDeviation(counts, num_groups);
  }
  return Status::InvalidArgument("unknown fairness metric");
}

Result<double> ComputeBias(FairnessMetric metric,
                           const GroupedPredictions& in) {
  Result<std::vector<double>> counts = CountConfusion(in);
  if (!counts.ok()) return counts.status();
  return BiasFromCounts(metric, counts.value(), in.num_groups);
}

Result<double> DemographicParity(const GroupedPredictions& in) {
  return ComputeBias(FairnessMetric::kDemographicParity, in);
}

Result<double> EqualizedOdds(const GroupedPredictions& in) {
  return ComputeBias(FairnessMetric::kEqualizedOdds, in);
}

Result<double> EqualOpportunity(const GroupedPredictions& in) {
  return ComputeBias(FairnessMetric::kEqualOpportunity, in);
}

Result<double> TreatmentEquality(const GroupedPredictions& in) {
  return ComputeBias(FairnessMetric::kTreatmentEquality, in);
}

Result<double> Consistency(std::span<const int> predictions,
                           const std::vector<std::vector<size_t>>& neighbors) {
  const size_t n = predictions.size();
  if (n == 0) return Status::InvalidArgument("consistency: no samples");
  if (neighbors.size() != n) {
    return Status::InvalidArgument("consistency: neighbor list size mismatch");
  }
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (neighbors[i].empty()) continue;  // isolated sample: consistent
    double mean = 0.0;
    for (size_t j : neighbors[i]) {
      if (j >= n) {
        return Status::InvalidArgument("consistency: neighbor out of range");
      }
      mean += predictions[j];
    }
    mean /= static_cast<double>(neighbors[i].size());
    total += std::fabs(static_cast<double>(predictions[i]) - mean);
  }
  return 1.0 - total / static_cast<double>(n);
}

Result<double> ConsistencyKnn(std::span<const int> predictions,
                              const std::vector<std::vector<double>>& points,
                              size_t k) {
  if (points.size() != predictions.size()) {
    return Status::InvalidArgument("consistency: points size mismatch");
  }
  Result<KdTree> tree = KdTree::Build(points);
  if (!tree.ok()) return tree.status();
  std::vector<std::vector<size_t>> neighbors(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    // k+1 because the query point itself is its own nearest neighbor.
    std::vector<size_t> nn = tree.value().Nearest(points[i], k + 1);
    for (size_t j : nn) {
      if (j != i && neighbors[i].size() < k) neighbors[i].push_back(j);
    }
  }
  return Consistency(predictions, neighbors);
}

}  // namespace falcc
