#include "core/assessment.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace falcc {

namespace {

Status ValidateContext(const AssessmentContext& ctx) {
  if (ctx.votes == nullptr || ctx.votes->empty()) {
    return Status::InvalidArgument("assessment: missing vote matrix");
  }
  const size_t n = ctx.labels.size();
  if (n == 0) return Status::InvalidArgument("assessment: no labels");
  if (ctx.groups.size() != n) {
    return Status::InvalidArgument("assessment: groups size mismatch");
  }
  for (const auto& v : *ctx.votes) {
    if (v.size() != n) {
      return Status::InvalidArgument("assessment: vote row size mismatch");
    }
  }
  if (ctx.num_groups == 0) {
    return Status::InvalidArgument("assessment: num_groups must be positive");
  }
  return Status::OK();
}

// Rows must index the validation set and carry a group id the
// combinations can be indexed by.
Status ValidateRows(const AssessmentContext& ctx,
                    std::span<const size_t> rows) {
  if (rows.empty()) return Status::InvalidArgument("assessment: empty region");
  for (size_t row : rows) {
    if (row >= ctx.labels.size()) {
      return Status::InvalidArgument("assessment: row out of range");
    }
    if (ctx.groups[row] >= ctx.num_groups) {
      return Status::InvalidArgument("assessment: group id out of range");
    }
  }
  return Status::OK();
}

Status ValidateCombination(const AssessmentContext& ctx,
                           const ModelCombination& combination) {
  if (combination.size() != ctx.num_groups) {
    return Status::InvalidArgument("combination size != num_groups");
  }
  for (size_t m : combination) {
    if (m >= ctx.votes->size()) {
      return Status::InvalidArgument("assessment: model index out of range");
    }
  }
  return Status::OK();
}

// Individual fairness: unfairness = 1 − consistency, where each sample's
// neighborhood is the rest of the region (cluster-as-kNN approximation,
// paper §3.6).
double ConsistencyLoss(const AssessmentContext& ctx,
                       const ModelCombination& combination,
                       std::span<const size_t> rows) {
  const auto vote = [&](size_t row) {
    return (*ctx.votes)[combination[ctx.groups[row]]][row];
  };
  const size_t n = rows.size();
  double wrong = 0.0, pos = 0.0;
  for (size_t row : rows) {
    if (vote(row) != ctx.labels[row]) ++wrong;
    pos += vote(row);
  }
  double inconsistency = 0.0;
  if (n > 1) {
    for (size_t row : rows) {
      const double others_mean =
          (pos - vote(row)) / static_cast<double>(n - 1);
      inconsistency += std::fabs(static_cast<double>(vote(row)) - others_mean);
    }
    inconsistency /= static_cast<double>(n);
  }
  return ctx.lambda * wrong / static_cast<double>(n) +
         (1.0 - ctx.lambda) * inconsistency;
}

}  // namespace

Result<std::vector<double>> RegionLosses(
    const AssessmentContext& ctx, const std::vector<ModelCombination>& combos,
    std::span<const size_t> rows) {
  FALCC_RETURN_IF_ERROR(ValidateContext(ctx));
  FALCC_RETURN_IF_ERROR(ValidateRows(ctx, rows));
  for (const ModelCombination& combination : combos) {
    FALCC_RETURN_IF_ERROR(ValidateCombination(ctx, combination));
  }
  std::vector<double> losses(combos.size());
  if (ctx.mode == AssessmentMode::kConsistency) {
    for (size_t c = 0; c < combos.size(); ++c) {
      losses[c] = ConsistencyLoss(ctx, combos[c], rows);
    }
    return losses;
  }

  // table[m * width + ConfusionIndex(g, y, z)]: rows of group g with
  // label y that model m votes z for.
  const size_t width = ctx.num_groups * 4;
  std::vector<double> table(ctx.votes->size() * width, 0.0);
  for (size_t m = 0; m < ctx.votes->size(); ++m) {
    const std::vector<int>& votes = (*ctx.votes)[m];
    double* counts = table.data() + m * width;
    for (size_t row : rows) {
      const int y = ctx.labels[row], z = votes[row];
      if ((y != 0 && y != 1) || (z != 0 && z != 1)) {
        return Status::InvalidArgument("metric: labels must be binary");
      }
      counts[ConfusionIndex(ctx.groups[row], y, z)] += 1.0;
    }
  }
  std::vector<double> counts(width);
  for (size_t c = 0; c < combos.size(); ++c) {
    for (size_t g = 0; g < ctx.num_groups; ++g) {
      const double* picked = table.data() + combos[c][g] * width + g * 4;
      std::copy(picked, picked + 4, counts.begin() + g * 4);
    }
    Result<LossBreakdown> loss =
        LossFromCounts(counts, ctx.num_groups, ctx.metric, ctx.lambda);
    if (!loss.ok()) return loss.status();
    losses[c] = loss.value().combined;
  }
  return losses;
}

Result<double> AssessCombination(const AssessmentContext& ctx,
                                 const ModelCombination& combination,
                                 std::span<const size_t> rows) {
  Result<std::vector<double>> losses = RegionLosses(ctx, {combination}, rows);
  if (!losses.ok()) return losses.status();
  return losses.value()[0];
}

Result<RegionBest> ReassessRegion(const AssessmentContext& ctx,
                                  const std::vector<ModelCombination>& combos,
                                  std::span<const size_t> rows) {
  if (combos.empty()) {
    return Status::InvalidArgument("assessment: no combinations");
  }
  Result<std::vector<double>> losses = RegionLosses(ctx, combos, rows);
  if (!losses.ok()) return losses.status();
  RegionBest best;
  best.loss = 1e300;
  for (size_t c = 0; c < combos.size(); ++c) {
    if (losses.value()[c] < best.loss) {
      best.loss = losses.value()[c];
      best.index = c;
    }
  }
  return best;
}

Result<std::vector<size_t>> FilterTopCombinations(
    const AssessmentContext& ctx, const std::vector<ModelCombination>& combos,
    size_t keep) {
  if (keep == 0) {
    return Status::InvalidArgument("FilterTopCombinations: keep must be > 0");
  }
  std::vector<size_t> all(ctx.labels.size());
  std::iota(all.begin(), all.end(), 0);
  Result<std::vector<double>> losses = RegionLosses(ctx, combos, all);
  if (!losses.ok()) return losses.status();

  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(combos.size());
  for (size_t c = 0; c < combos.size(); ++c) {
    scored.emplace_back(losses.value()[c], c);
  }
  std::sort(scored.begin(), scored.end());
  scored.resize(std::min(keep, scored.size()));

  std::vector<size_t> kept;
  kept.reserve(scored.size());
  for (const auto& [loss, idx] : scored) kept.push_back(idx);
  return kept;
}

}  // namespace falcc
