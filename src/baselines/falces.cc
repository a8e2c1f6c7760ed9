#include "baselines/falces.h"

#include "ml/decision_tree.h"
#include "ml/grid_search.h"

namespace falcc {

Result<FalcesModel> FalcesModel::Train(const Dataset& train,
                                       const Dataset& validation,
                                       const FalcesOptions& options) {
  Result<std::vector<std::unique_ptr<Classifier>>> standard =
      TrainStandardPool(train, options.seed);
  if (!standard.ok()) return standard.status();

  ModelPool pool;
  for (auto& model : standard.value()) {
    pool.Add(std::move(model));
  }

  if (options.split_training) {
    Result<GroupIndex> index = GroupIndex::Build(train);
    if (!index.ok()) return index.status();
    Result<std::vector<std::vector<size_t>>> buckets =
        RowsByGroup(index.value(), train);
    if (!buckets.ok()) return buckets.status();
    Result<GroupIndex> val_index = GroupIndex::Build(validation);
    if (!val_index.ok()) return val_index.status();
    for (size_t g = 0; g < buckets.value().size(); ++g) {
      const std::vector<size_t>& rows = buckets.value()[g];
      if (rows.size() < 10) continue;
      const Dataset partition = train.Subset(rows);
      DecisionTreeOptions dt;
      dt.max_depth = 7;
      dt.seed = options.seed + 200 + g;
      auto tree = std::make_unique<DecisionTree>(dt);
      FALCC_RETURN_IF_ERROR(tree->Fit(partition));
      const size_t val_g =
          val_index.value().GroupOfOrNearest(partition.Row(0));
      pool.Add(std::move(tree), {val_g});
    }
  }

  return TrainWithPool(std::move(pool), validation, options);
}

Result<FalcesModel> FalcesModel::TrainWithPool(ModelPool pool,
                                               const Dataset& validation,
                                               const FalcesOptions& options) {
  if (pool.size() == 0) {
    return Status::InvalidArgument("FALCES: empty model pool");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("FALCES: k must be positive");
  }

  FalcesModel model;
  model.options_ = options;
  model.pool_ = std::move(pool);

  Result<GroupIndex> index = GroupIndex::Build(validation);
  if (!index.ok()) return index.status();
  model.group_index_ = std::move(index).value();
  const size_t num_groups = model.group_index_.num_groups();

  // Neighborhoods ignore sensitive attributes (same projection FALCC's
  // clustering uses).
  ColumnTransform transform = ColumnTransform::Standardize(validation);
  transform.DropColumns(validation.sensitive_features());
  model.transform_ = std::move(transform);

  Result<KdTree> tree =
      KdTree::Build(model.transform_.ApplyAll(validation));
  if (!tree.ok()) return tree.status();
  model.tree_ = std::move(tree).value();

  Result<std::vector<size_t>> groups =
      model.group_index_.GroupsOf(validation);
  if (!groups.ok()) return groups.status();
  model.val_groups_ = std::move(groups).value();
  model.val_labels_ = validation.labels();

  model.group_masks_.assign(num_groups,
                            std::vector<bool>(validation.num_rows(), false));
  for (size_t i = 0; i < validation.num_rows(); ++i) {
    model.group_masks_[model.val_groups_[i]][i] = true;
  }

  model.votes_ = model.pool_.PredictMatrix(validation.features(),
                                           validation.num_features());

  Result<std::vector<ModelCombination>> combos =
      EnumerateCombinations(model.pool_, num_groups);
  if (!combos.ok()) return combos.status();

  if (options.prefilter && combos.value().size() > options.prefilter_keep) {
    AssessmentContext ctx;
    ctx.votes = &model.votes_;
    ctx.labels = model.val_labels_;
    ctx.groups = model.val_groups_;
    ctx.num_groups = num_groups;
    ctx.metric = options.metric;
    ctx.lambda = options.lambda;
    Result<std::vector<size_t>> kept =
        FilterTopCombinations(ctx, combos.value(), options.prefilter_keep);
    if (!kept.ok()) return kept.status();
    for (size_t idx : kept.value()) {
      model.combinations_.push_back(combos.value()[idx]);
    }
  } else {
    model.combinations_ = std::move(combos).value();
  }
  return model;
}

int FalcesModel::Classify(std::span<const double> features) const {
  // Step 1: the local region = union over groups of the k nearest
  // validation samples of that group.
  const std::vector<double> query = transform_.Apply(features);
  std::vector<size_t> region;
  region.reserve(options_.k * group_masks_.size());
  for (const auto& mask : group_masks_) {
    const std::vector<size_t> nn =
        tree_->NearestWhere(query, options_.k, mask);
    region.insert(region.end(), nn.begin(), nn.end());
  }

  // Step 2: assess every retained combination on the region.
  AssessmentContext ctx;
  ctx.votes = &votes_;
  ctx.labels = val_labels_;
  ctx.groups = val_groups_;
  ctx.num_groups = group_masks_.size();
  ctx.metric = options_.metric;
  ctx.lambda = options_.lambda;

  const Result<RegionBest> best = ReassessRegion(ctx, combinations_, region);
  FALCC_CHECK(best.ok(), "FALCES: assessment failed");

  // Step 3: classify with the winning combination's model for the
  // sample's group.
  const size_t group = group_index_.GroupOfOrNearest(features);
  return pool_.model(combinations_[best.value().index][group])
      .Predict(features);
}

std::vector<int> FalcesModel::ClassifyAll(const Dataset& data) const {
  std::vector<int> out(data.num_rows());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    out[i] = Classify(data.Row(i));
  }
  return out;
}

}  // namespace falcc
