#include "fairness/loss.h"

namespace falcc {

Result<LossBreakdown> LossFromCounts(std::span<const double> counts,
                                     size_t num_groups, FairnessMetric metric,
                                     double lambda) {
  if (lambda < 0.0 || lambda > 1.0) {
    return Status::InvalidArgument("lambda must be in [0,1]");
  }
  Result<double> bias = BiasFromCounts(metric, counts, num_groups);
  if (!bias.ok()) return bias.status();
  double n = 0.0, wrong = 0.0;
  for (size_t g = 0; g < num_groups; ++g) {
    for (int y = 0; y <= 1; ++y) {
      for (int z = 0; z <= 1; ++z) {
        const double c = counts[ConfusionIndex(g, y, z)];
        n += c;
        if (y != z) wrong += c;
      }
    }
  }
  if (n <= 0.0) return Status::InvalidArgument("loss: no samples");

  LossBreakdown out;
  out.inaccuracy = wrong / n;
  out.bias = bias.value();
  out.combined = lambda * out.inaccuracy + (1.0 - lambda) * out.bias;
  return out;
}

Result<LossBreakdown> CombinedLoss(const GroupedPredictions& in,
                                   FairnessMetric metric, double lambda) {
  Result<std::vector<double>> counts = CountConfusion(in);
  if (!counts.ok()) return counts.status();
  return LossFromCounts(counts.value(), in.num_groups, metric, lambda);
}

Result<LossBreakdown> LocalLoss(const GroupedPredictions& in,
                                std::span<const size_t> regions,
                                size_t num_regions, FairnessMetric metric,
                                double lambda) {
  // CountConfusion reads empty `regions` as "one region"; here every
  // sample needs its own region id.
  if (regions.size() != in.labels.size()) {
    return Status::InvalidArgument("LocalLoss: regions size mismatch");
  }
  Result<std::vector<double>> counts =
      CountConfusion(in, regions, num_regions);
  if (!counts.ok()) return counts.status();

  // One confusion table per region; empty regions are skipped.
  const size_t width = in.num_groups * 4;
  const double n = static_cast<double>(in.labels.size());
  LossBreakdown total;
  for (size_t r = 0; r < num_regions; ++r) {
    const std::span<const double> table(counts.value().data() + r * width,
                                        width);
    double size = 0.0;
    for (const double c : table) size += c;
    if (size <= 0.0) continue;
    Result<LossBreakdown> local =
        LossFromCounts(table, in.num_groups, metric, lambda);
    if (!local.ok()) return local.status();
    const double weight = size / n;
    total.inaccuracy += weight * local.value().inaccuracy;
    total.bias += weight * local.value().bias;
    total.combined += weight * local.value().combined;
  }
  return total;
}

}  // namespace falcc
