#include "baselines/decouple.h"

#include <numeric>

#include "ml/decision_tree.h"

namespace falcc {

Result<DecoupleModel> DecoupleModel::Train(const Dataset& train,
                                           const Dataset& validation,
                                           const DecoupleOptions& options) {
  Result<std::vector<std::unique_ptr<Classifier>>> standard =
      TrainStandardPool(train, options.seed);
  if (!standard.ok()) return standard.status();

  ModelPool pool;
  for (auto& model : standard.value()) {
    pool.Add(std::move(model));
  }

  if (options.per_group_models) {
    // One decision tree per sensitive group, trained on that group's
    // partition only, applicable to that group only (decoupled training).
    Result<GroupIndex> index = GroupIndex::Build(train);
    if (!index.ok()) return index.status();
    Result<std::vector<std::vector<size_t>>> buckets =
        RowsByGroup(index.value(), train);
    if (!buckets.ok()) return buckets.status();
    // Validation groups may be a superset/subset of training groups; map
    // training group ids to validation group ids via the key. We build
    // the validation index here only to translate ids.
    Result<GroupIndex> val_index = GroupIndex::Build(validation);
    if (!val_index.ok()) return val_index.status();
    for (size_t g = 0; g < buckets.value().size(); ++g) {
      const std::vector<size_t>& rows = buckets.value()[g];
      if (rows.size() < 10) continue;  // too small to train on
      const Dataset partition = train.Subset(rows);
      DecisionTreeOptions dt;
      dt.max_depth = 7;
      dt.seed = options.seed + 100 + g;
      auto tree = std::make_unique<DecisionTree>(dt);
      FALCC_RETURN_IF_ERROR(tree->Fit(partition));
      // Applicability expressed in validation group ids.
      const size_t val_g =
          val_index.value().GroupOfOrNearest(partition.Row(0));
      pool.Add(std::move(tree), {val_g});
    }
  }

  return TrainWithPool(std::move(pool), validation, options);
}

Result<DecoupleModel> DecoupleModel::TrainWithPool(
    ModelPool pool, const Dataset& validation,
    const DecoupleOptions& options) {
  if (pool.size() == 0) {
    return Status::InvalidArgument("Decouple: empty model pool");
  }
  DecoupleModel model;
  Result<GroupIndex> index = GroupIndex::Build(validation);
  if (!index.ok()) return index.status();
  model.group_index_ = std::move(index).value();
  model.pool_ = std::move(pool);

  const std::vector<std::vector<int>> votes = model.pool_.PredictMatrix(
      validation.features(), validation.num_features());
  Result<std::vector<size_t>> groups =
      model.group_index_.GroupsOf(validation);
  if (!groups.ok()) return groups.status();

  AssessmentContext ctx;
  ctx.votes = &votes;
  ctx.labels = validation.labels();
  ctx.groups = groups.value();
  ctx.num_groups = model.group_index_.num_groups();
  ctx.metric = options.metric;
  ctx.lambda = options.lambda;

  Result<std::vector<ModelCombination>> combos =
      EnumerateCombinations(model.pool_, ctx.num_groups);
  if (!combos.ok()) return combos.status();
  std::vector<size_t> all_rows(validation.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), 0);
  Result<RegionBest> best = ReassessRegion(ctx, combos.value(), all_rows);
  if (!best.ok()) return best.status();
  model.selected_ = combos.value()[best.value().index];
  return model;
}

int DecoupleModel::Classify(std::span<const double> features) const {
  const size_t group = group_index_.GroupOfOrNearest(features);
  return pool_.model(selected_[group]).Predict(features);
}

std::vector<int> DecoupleModel::ClassifyAll(const Dataset& data) const {
  std::vector<int> out(data.num_rows());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    out[i] = Classify(data.Row(i));
  }
  return out;
}

}  // namespace falcc
