#include "testing/reference_loss.h"

#include <cmath>
#include <vector>

namespace falcc {
namespace testing {

namespace {

Status Validate(const GroupedPredictions& in) {
  const size_t n = in.labels.size();
  if (n == 0) return Status::InvalidArgument("metric: no samples");
  if (in.predictions.size() != n || in.groups.size() != n) {
    return Status::InvalidArgument("metric: input size mismatch");
  }
  if (in.num_groups == 0) {
    return Status::InvalidArgument("metric: num_groups must be positive");
  }
  for (size_t i = 0; i < n; ++i) {
    if (in.groups[i] >= in.num_groups) {
      return Status::InvalidArgument("metric: group id out of range");
    }
    if ((in.labels[i] != 0 && in.labels[i] != 1) ||
        (in.predictions[i] != 0 && in.predictions[i] != 1)) {
      return Status::InvalidArgument("metric: labels must be binary");
    }
  }
  return Status::OK();
}

// Mean over groups of |rate_j − rate_overall| where rate is the positive-
// prediction rate among samples with mask true. Groups with no masked
// samples contribute 0.
double MeanRateDeviation(const GroupedPredictions& in,
                         const std::vector<bool>& mask) {
  std::vector<double> group_pos(in.num_groups, 0.0);
  std::vector<double> group_count(in.num_groups, 0.0);
  double pos = 0.0, count = 0.0;
  for (size_t i = 0; i < in.labels.size(); ++i) {
    if (!mask[i]) continue;
    ++count;
    group_count[in.groups[i]] += 1.0;
    if (in.predictions[i] == 1) {
      ++pos;
      group_pos[in.groups[i]] += 1.0;
    }
  }
  if (count <= 0.0) return 0.0;
  const double overall = pos / count;
  double dev = 0.0;
  for (size_t g = 0; g < in.num_groups; ++g) {
    if (group_count[g] <= 0.0) continue;
    dev += std::fabs(group_pos[g] / group_count[g] - overall);
  }
  return dev / static_cast<double>(in.num_groups);
}

// Samples whose label is `truth`; every sample when `truth` < 0.
std::vector<bool> LabelMask(const GroupedPredictions& in, int truth) {
  std::vector<bool> mask(in.labels.size());
  for (size_t i = 0; i < in.labels.size(); ++i) {
    mask[i] = truth < 0 || in.labels[i] == truth;
  }
  return mask;
}

double TreatmentDeviation(const GroupedPredictions& in) {
  std::vector<double> fp(in.num_groups, 0.0), fn(in.num_groups, 0.0);
  double fp_total = 0.0, fn_total = 0.0;
  for (size_t i = 0; i < in.labels.size(); ++i) {
    if (in.predictions[i] == 1 && in.labels[i] == 0) {
      fp[in.groups[i]] += 1.0;
      fp_total += 1.0;
    } else if (in.predictions[i] == 0 && in.labels[i] == 1) {
      fn[in.groups[i]] += 1.0;
      fn_total += 1.0;
    }
  }
  if (fp_total + fn_total <= 0.0) return 0.0;
  const double overall = fp_total / (fp_total + fn_total);
  double dev = 0.0;
  for (size_t g = 0; g < in.num_groups; ++g) {
    const double denom = fp[g] + fn[g];
    if (denom <= 0.0) continue;
    dev += std::fabs(fp[g] / denom - overall);
  }
  return dev / static_cast<double>(in.num_groups);
}

}  // namespace

Result<double> ReferenceBias(FairnessMetric metric,
                             const GroupedPredictions& in) {
  FALCC_RETURN_IF_ERROR(Validate(in));
  switch (metric) {
    case FairnessMetric::kDemographicParity:
      return MeanRateDeviation(in, LabelMask(in, -1));
    case FairnessMetric::kEqualizedOdds: {
      double total = 0.0;
      for (int y = 0; y <= 1; ++y) {
        total += MeanRateDeviation(in, LabelMask(in, y));
      }
      return total / 2.0;
    }
    case FairnessMetric::kEqualOpportunity:
      return MeanRateDeviation(in, LabelMask(in, 1));
    case FairnessMetric::kTreatmentEquality:
      return TreatmentDeviation(in);
  }
  return Status::InvalidArgument("unknown fairness metric");
}

Result<LossBreakdown> ReferenceCombinedLoss(const GroupedPredictions& in,
                                            FairnessMetric metric,
                                            double lambda) {
  if (lambda < 0.0 || lambda > 1.0) {
    return Status::InvalidArgument("lambda must be in [0,1]");
  }
  Result<double> bias = ReferenceBias(metric, in);
  if (!bias.ok()) return bias.status();
  const size_t n = in.labels.size();
  double wrong = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (in.labels[i] != in.predictions[i]) ++wrong;
  }
  LossBreakdown out;
  out.inaccuracy = wrong / static_cast<double>(n);
  out.bias = bias.value();
  out.combined = lambda * out.inaccuracy + (1.0 - lambda) * out.bias;
  return out;
}

Result<LossBreakdown> ReferenceLocalLoss(const GroupedPredictions& in,
                                         std::span<const size_t> regions,
                                         size_t num_regions,
                                         FairnessMetric metric,
                                         double lambda) {
  const size_t n = in.labels.size();
  if (regions.size() != n || num_regions == 0) {
    return Status::InvalidArgument("LocalLoss: bad regions");
  }
  std::vector<std::vector<size_t>> buckets(num_regions);
  for (size_t i = 0; i < n; ++i) {
    if (regions[i] >= num_regions) {
      return Status::InvalidArgument("LocalLoss: region id out of range");
    }
    buckets[regions[i]].push_back(i);
  }
  LossBreakdown total;
  for (const std::vector<size_t>& bucket : buckets) {
    if (bucket.empty()) continue;
    std::vector<int> labels, predictions;
    std::vector<size_t> groups;
    for (size_t i : bucket) {
      labels.push_back(in.labels[i]);
      predictions.push_back(in.predictions[i]);
      groups.push_back(in.groups[i]);
    }
    GroupedPredictions region{labels, predictions, groups, in.num_groups};
    Result<LossBreakdown> local = ReferenceCombinedLoss(region, metric, lambda);
    if (!local.ok()) return local.status();
    const double weight =
        static_cast<double>(bucket.size()) / static_cast<double>(n);
    total.inaccuracy += weight * local.value().inaccuracy;
    total.bias += weight * local.value().bias;
    total.combined += weight * local.value().combined;
  }
  return total;
}

Result<double> ReferenceAssessCombination(const AssessmentContext& ctx,
                                          const ModelCombination& combination,
                                          std::span<const size_t> rows) {
  if (ctx.votes == nullptr || combination.size() != ctx.num_groups ||
      rows.empty()) {
    return Status::InvalidArgument("reference assessment: bad input");
  }
  std::vector<int> labels, predictions;
  std::vector<size_t> groups;
  for (size_t row : rows) {
    if (row >= ctx.labels.size() || row >= ctx.groups.size() ||
        ctx.groups[row] >= ctx.num_groups) {
      return Status::InvalidArgument("reference assessment: bad row");
    }
    const size_t g = ctx.groups[row];
    const size_t m = combination[g];
    if (m >= ctx.votes->size() || row >= (*ctx.votes)[m].size()) {
      return Status::InvalidArgument("reference assessment: bad model");
    }
    labels.push_back(ctx.labels[row]);
    predictions.push_back((*ctx.votes)[m][row]);
    groups.push_back(g);
  }

  if (ctx.mode == AssessmentMode::kConsistency) {
    const size_t n = predictions.size();
    double wrong = 0.0, pos = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (predictions[i] != labels[i]) ++wrong;
      pos += predictions[i];
    }
    double inconsistency = 0.0;
    if (n > 1) {
      for (size_t i = 0; i < n; ++i) {
        const double others_mean =
            (pos - predictions[i]) / static_cast<double>(n - 1);
        inconsistency +=
            std::fabs(static_cast<double>(predictions[i]) - others_mean);
      }
      inconsistency /= static_cast<double>(n);
    }
    return ctx.lambda * wrong / static_cast<double>(n) +
           (1.0 - ctx.lambda) * inconsistency;
  }

  GroupedPredictions in{labels, predictions, groups, ctx.num_groups};
  Result<LossBreakdown> loss = ReferenceCombinedLoss(in, ctx.metric, ctx.lambda);
  if (!loss.ok()) return loss.status();
  return loss.value().combined;
}

}  // namespace testing
}  // namespace falcc
