#include "core/falcc.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "cluster/kdtree.h"
#include "ml/adaboost.h"
#include "util/math.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace falcc {

Result<FalccModel> FalccModel::Train(const Dataset& train,
                                     const Dataset& validation,
                                     const FalccOptions& options,
                                     OfflineStageTimes* stage_times) {
  Timer train_timer;
  DiverseTrainerOptions trainer = options.trainer;
  trainer.seed = options.seed;
  Result<DiversePool> diverse = TrainDiversePool(train, validation, trainer);
  if (!diverse.ok()) return diverse.status();

  ModelPool pool;
  for (auto& model : diverse.value().models) {
    pool.Add(std::move(model));
  }

  if (trainer.split_by_group) {
    // Split training (paper §3.1): one additional ensemble per sensitive
    // group, trained on that group's partition and applicable to it
    // only. Applicability is expressed in validation group ids since the
    // assessment and the online phase operate on those.
    Result<GroupIndex> train_index = GroupIndex::Build(train);
    if (!train_index.ok()) return train_index.status();
    Result<std::vector<std::vector<size_t>>> buckets =
        RowsByGroup(train_index.value(), train);
    if (!buckets.ok()) return buckets.status();
    Result<GroupIndex> val_index = GroupIndex::Build(validation);
    if (!val_index.ok()) return val_index.status();

    for (size_t g = 0; g < buckets.value().size(); ++g) {
      const std::vector<size_t>& rows = buckets.value()[g];
      if (rows.size() < trainer.min_group_rows) continue;
      const Dataset partition = train.Subset(rows);
      AdaBoostOptions boost;
      boost.num_estimators = 20;
      boost.base.max_depth = 4;
      boost.base.seed = options.seed + 300 + g;
      auto model = std::make_unique<AdaBoost>(boost);
      FALCC_RETURN_IF_ERROR(model->Fit(partition));
      const size_t val_g =
          val_index.value().GroupOfOrNearest(partition.Row(0));
      pool.Add(std::move(model), {val_g});
    }
  }

  if (stage_times != nullptr) {
    stage_times->train_seconds = train_timer.ElapsedSeconds();
  }
  return RunOfflinePhase(std::move(pool), validation, options,
                         diverse.value().entropy, stage_times);
}

Result<FalccModel> FalccModel::TrainWithPool(ModelPool pool,
                                             const Dataset& validation,
                                             const FalccOptions& options,
                                             double pool_entropy) {
  return RunOfflinePhase(std::move(pool), validation, options, pool_entropy);
}

Result<FalccModel> FalccModel::RunOfflinePhase(ModelPool pool,
                                               const Dataset& validation,
                                               const FalccOptions& options,
                                               double pool_entropy,
                                               OfflineStageTimes* stage_times) {
  Timer cluster_timer;
  if (validation.num_rows() < 2) {
    return Status::InvalidArgument("FALCC: validation data too small");
  }
  if (options.lambda < 0.0 || options.lambda > 1.0) {
    return Status::InvalidArgument("FALCC: lambda must be in [0,1]");
  }
  if (pool.size() == 0) {
    return Status::InvalidArgument("FALCC: empty model pool");
  }

  FalccModel model;
  model.pool_ = std::make_shared<const ModelPool>(std::move(pool));
  model.pool_entropy_ = pool_entropy;

  // Sensitive groups observed in the validation data.
  Result<GroupIndex> group_index = GroupIndex::Build(validation);
  if (!group_index.ok()) return group_index.status();
  model.group_index_ = std::move(group_index).value();
  const size_t num_groups = model.group_index_.num_groups();

  // Sample processing for the clustering space: standardization, proxy
  // mitigation, and projection of the sensitive attributes.
  ColumnTransform base = options.standardize
                             ? ColumnTransform::Standardize(validation)
                             : ColumnTransform::Identity(
                                   validation.num_features());
  Result<ColumnTransform> transform =
      BuildClusteringTransform(validation, options.proxy, std::move(base));
  if (!transform.ok()) return transform.status();
  model.clustering_transform_ = std::move(transform).value();

  const std::vector<std::vector<double>> points =
      model.clustering_transform_.ApplyAll(validation);

  // Clustering: fixed k, or automatic estimation with the configured
  // estimator (LOG-Means by default).
  size_t k = options.fixed_k;
  if (k == 0) {
    KEstimationOptions est = options.k_estimation;
    est.kmeans.seed = options.seed;
    est.k_max = std::min(est.k_max, validation.num_rows());
    switch (options.k_selection) {
      case FalccOptions::KSelection::kLogMeans: {
        Result<KEstimate> estimate = EstimateKLogMeans(points, est);
        if (!estimate.ok()) return estimate.status();
        k = estimate.value().k;
        break;
      }
      case FalccOptions::KSelection::kElbow: {
        Result<KEstimate> estimate = EstimateKElbow(points, est);
        if (!estimate.ok()) return estimate.status();
        k = estimate.value().k;
        break;
      }
      case FalccOptions::KSelection::kXMeans: {
        XMeansOptions xm;
        xm.k_min = est.k_min;
        xm.k_max = est.k_max;
        xm.kmeans = est.kmeans;
        Result<KMeansResult> estimate = RunXMeans(points, xm);
        if (!estimate.ok()) return estimate.status();
        k = estimate.value().centroids.size();
        break;
      }
    }
  }
  if (k > validation.num_rows()) {
    return Status::InvalidArgument("FALCC: k exceeds validation size");
  }
  KMeansOptions kmeans_options;
  kmeans_options.seed = options.seed;
  Result<KMeansResult> clustering = RunKMeans(points, k, kmeans_options);
  if (!clustering.ok()) return clustering.status();
  model.centroids_ = std::move(clustering.value().centroids);
  model.assignment_ = std::move(clustering.value().assignment);

  // Region row sets, gap-filled: every cluster must contain
  // representatives of every sensitive group (§3.5).
  Result<std::vector<size_t>> val_groups =
      model.group_index_.GroupsOf(validation);
  if (!val_groups.ok()) return val_groups.status();
  const std::vector<size_t>& groups = val_groups.value();

  Result<std::vector<std::vector<size_t>>> regions = model.BuildRegions(
      points, groups, options.gap_fill_k);
  if (!regions.ok()) return regions.status();
  const std::vector<std::vector<size_t>>& region_rows = regions.value();
  if (stage_times != nullptr) {
    stage_times->cluster_seconds = cluster_timer.ElapsedSeconds();
  }
  Timer assess_timer;

  // Drop empty regions from assessment but keep centroid indexing intact
  // by assigning them the globally best combination later.
  const std::vector<std::vector<int>> votes = model.pool_->PredictMatrix(
      validation.features(), validation.num_features());

  AssessmentContext ctx;
  ctx.votes = &votes;
  ctx.labels = validation.labels();
  ctx.groups = groups;
  ctx.num_groups = num_groups;
  ctx.mode = options.assessment_mode;
  ctx.metric = options.metric;
  ctx.lambda = options.lambda;

  Result<std::vector<ModelCombination>> combos =
      EnumerateCombinations(*model.pool_, num_groups);
  if (!combos.ok()) return combos.status();

  std::vector<size_t> all_rows(validation.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), 0);
  Result<RegionBest> global_best =
      ReassessRegion(ctx, combos.value(), all_rows);
  if (!global_best.ok()) return global_best.status();

  // Per-cluster combination assessment: clusters are independent, each
  // task writes only its own selected_ / baseline slot. The winning L̂ is
  // kept per cluster — it anchors online drift detection.
  model.selected_.resize(k);
  model.baseline_loss_.assign(k, 0.0);
  model.assess_lambda_ = options.lambda;
  model.assess_metric_ = options.metric;
  model.assess_mode_ = options.assessment_mode;
  std::vector<Status> cluster_status(k);
  ParallelFor(0, k, 1, [&](size_t /*chunk*/, size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) {
      if (region_rows[c].empty()) {
        model.selected_[c] = combos.value()[global_best.value().index];
        model.baseline_loss_[c] = global_best.value().loss;
        continue;
      }
      Result<RegionBest> best =
          ReassessRegion(ctx, combos.value(), region_rows[c]);
      if (!best.ok()) {
        cluster_status[c] = best.status();
        continue;
      }
      model.selected_[c] = combos.value()[best.value().index];
      model.baseline_loss_[c] = best.value().loss;
    }
  });
  for (const Status& status : cluster_status) {
    FALCC_RETURN_IF_ERROR(status);
  }
  FALCC_RETURN_IF_ERROR(model.BuildCentroidTable());
  if (stage_times != nullptr) {
    stage_times->assess_seconds = assess_timer.ElapsedSeconds();
  }
  return model;
}

Result<std::vector<std::vector<size_t>>> FalccModel::BuildRegions(
    const std::vector<std::vector<double>>& points,
    std::span<const size_t> groups, size_t gap_fill_k) const {
  const size_t num_groups = group_index_.num_groups();
  std::vector<std::vector<size_t>> region_rows(centroids_.size());
  for (size_t i = 0; i < points.size(); ++i) {
    region_rows[assignment_[i]].push_back(i);
  }

  // Per-group kd-trees are built lazily: most clusters cover all groups.
  std::vector<std::vector<bool>> group_masks(num_groups);
  Result<KdTree> tree = KdTree::Build(points);
  if (!tree.ok()) return tree.status();
  auto group_mask = [&](size_t g) -> const std::vector<bool>& {
    if (group_masks[g].empty()) {
      group_masks[g].assign(points.size(), false);
      for (size_t i = 0; i < points.size(); ++i) {
        group_masks[g][i] = groups[i] == g;
      }
    }
    return group_masks[g];
  };

  for (size_t c = 0; c < region_rows.size(); ++c) {
    if (region_rows[c].empty()) continue;  // empty cluster: nothing to fill
    std::vector<bool> present(num_groups, false);
    for (size_t row : region_rows[c]) present[groups[row]] = true;
    for (size_t g = 0; g < num_groups; ++g) {
      if (present[g]) continue;
      // Pull the gap_fill_k nearest validation samples of group g to the
      // cluster centroid into this cluster's assessment rows.
      const std::vector<size_t> nn =
          tree.value().NearestWhere(centroids_[c], gap_fill_k, group_mask(g));
      region_rows[c].insert(region_rows[c].end(), nn.begin(), nn.end());
    }
  }
  return region_rows;
}

Result<std::vector<std::vector<size_t>>> FalccModel::AssessmentRegions(
    const Dataset& validation, size_t gap_fill_k) const {
  if (validation.num_rows() != assignment_.size()) {
    return Status::InvalidArgument(
        "AssessmentRegions: not the validation split the model was "
        "assessed on (row count differs)");
  }
  Result<std::vector<size_t>> groups = group_index_.GroupsOf(validation);
  if (!groups.ok()) return groups.status();
  return BuildRegions(clustering_transform_.ApplyAll(validation),
                      groups.value(), gap_fill_k);
}

Status FalccModel::BuildCentroidTable() {
  Result<CentroidTable> table = CentroidTable::Build(centroids_);
  if (!table.ok()) return table.status();
  centroid_table_ = std::move(table).value();
  return Status::OK();
}

Status FalccModel::ValidateSample(std::span<const double> features) const {
  if (features.size() != num_features()) {
    return Status::InvalidArgument(
        "sample has " + std::to_string(features.size()) +
        " features; the model expects " + std::to_string(num_features()));
  }
  for (size_t j = 0; j < features.size(); ++j) {
    if (!std::isfinite(features[j])) {
      return Status::InvalidArgument("non-finite feature value in column " +
                                     std::to_string(j));
    }
  }
  return Status::OK();
}

size_t FalccModel::MatchCluster(std::span<const double> features) const {
  const Status valid = ValidateSample(features);
  FALCC_CHECK(valid.ok(), valid.ToString().c_str());
  // Transform into a stack buffer (heap only for unusually wide
  // samples), so a one-row match allocates nothing.
  constexpr size_t kStackWidth = 64;
  double stack_buffer[kStackWidth];
  std::vector<double> heap_buffer;
  const size_t width = clustering_transform_.num_output_features();
  double* buffer = stack_buffer;
  if (width > kStackWidth) {
    heap_buffer.resize(width);
    buffer = heap_buffer.data();
  }
  const std::span<double> processed(buffer, width);
  clustering_transform_.ApplyInto(features, processed);
  return centroid_table_.Nearest(processed);
}

Result<size_t> FalccModel::GroupOf(std::span<const double> features) const {
  FALCC_RETURN_IF_ERROR(ValidateSample(features));
  return group_index_.GroupOfOrNearest(features);
}

int FalccModel::Classify(std::span<const double> features) const {
  const size_t cluster = MatchCluster(features);
  const size_t group = group_index_.GroupOfOrNearest(features);
  const size_t m = selected_[cluster][group];
  return pool_->model(m).Predict(features);
}

double FalccModel::ClassifyProba(std::span<const double> features) const {
  const size_t cluster = MatchCluster(features);
  const size_t group = group_index_.GroupOfOrNearest(features);
  const size_t m = selected_[cluster][group];
  return pool_->model(m).PredictProba(features);
}

void FalccModel::ClassifyRowsInto(std::span<const double> features,
                                  size_t width, ClassifyResponse* response,
                                  ClassifyScratch* scratch) const {
  const size_t n = features.size() / width;
  const auto row = [&](size_t i) {
    return features.subspan(i * width, width);
  };
  std::vector<SampleDecision>& decisions = response->decisions;
  decisions.assign(n, SampleDecision{});
  Timer stage_timer;

  // Stage 1 — sample processing (§3.7 step 1) straight into one
  // contiguous row-major matrix (caller scratch, reused across batches):
  // no per-sample or per-chunk buffer.
  const size_t point_width = clustering_transform_.num_output_features();
  std::vector<double>& transformed = scratch->transformed;
  transformed.resize(n * point_width);
  ParallelFor(0, n, 256, [&](size_t /*chunk*/, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      clustering_transform_.ApplyInto(
          row(i), std::span<double>(transformed.data() + i * point_width,
                                    point_width));
    }
  });
  response->stages.transform = stage_timer.ElapsedSeconds();
  stage_timer.Restart();

  // Stage 2 — route every row to the model stored for its (region,
  // group). Neither lookup allocates.
  ParallelFor(0, n, 256, [&](size_t /*chunk*/, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const std::span<const double> point(
          transformed.data() + i * point_width, point_width);
      const size_t cluster = centroid_table_.Nearest(point);
      const size_t group = group_index_.GroupOfOrNearest(row(i));
      decisions[i].cluster = cluster;
      decisions[i].group = group;
      decisions[i].model = selected_[cluster][group];
    }
  });
  response->stages.match = stage_timer.ElapsedSeconds();
  stage_timer.Restart();

  // Stage 3 — batch inference, rows grouped by the pool model that
  // fires. Each segment runs ModelPool::PredictProbaBatch (that model's
  // kernel, or its interpreted path if it does not lower). The counting
  // sort keeps row ids ascending within each segment and per-row results
  // are independent, so the regrouping cannot change any prediction;
  // segments write disjoint slices of the shared scratch probability
  // buffer, so the parallel loop allocates nothing.
  const size_t num_models = pool_->size();
  std::vector<size_t>& offsets = scratch->offsets;
  std::vector<size_t>& cursor = scratch->cursor;
  std::vector<size_t>& rows = scratch->rows;
  std::vector<double>& proba = scratch->proba;
  offsets.assign(num_models + 1, 0);
  for (size_t i = 0; i < n; ++i) ++offsets[decisions[i].model + 1];
  for (size_t m = 0; m < num_models; ++m) offsets[m + 1] += offsets[m];
  rows.resize(n);
  proba.resize(n);
  cursor.assign(offsets.begin(), offsets.end() - 1);
  for (size_t i = 0; i < n; ++i) rows[cursor[decisions[i].model]++] = i;
  ParallelFor(0, num_models, 1, [&](size_t /*chunk*/, size_t lo, size_t hi) {
    for (size_t m = lo; m < hi; ++m) {
      const std::span<const size_t> segment_rows(rows.data() + offsets[m],
                                                 offsets[m + 1] - offsets[m]);
      if (segment_rows.empty()) continue;
      const std::span<double> segment_proba(proba.data() + offsets[m],
                                            segment_rows.size());
      pool_->PredictProbaBatch(m, features, width, segment_rows,
                               segment_proba);
      for (size_t j = 0; j < segment_rows.size(); ++j) {
        SampleDecision& d = decisions[segment_rows[j]];
        d.probability = segment_proba[j];
        d.label = segment_proba[j] >= 0.5 ? 1 : 0;
      }
    }
  });
  response->stages.predict = stage_timer.ElapsedSeconds();
}

std::vector<int> FalccModel::ClassifyAll(const Dataset& data) const {
  FALCC_CHECK(data.num_features() == num_features(),
              "ClassifyAll: dataset width differs from model num_features()");
  ClassifyResponse response;
  ClassifyScratch scratch;
  ClassifyRowsInto(data.features(), data.num_features(), &response,
                   &scratch);
  std::vector<int> out(data.num_rows());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = response.decisions[i].label;
  }
  return out;
}

Result<ClassifyResponse> FalccModel::ClassifyBatch(
    const ClassifyRequest& request) const {
  // One scratch per serving thread: steady-state batches reuse the
  // transform matrix and sort arrays without any per-call allocation.
  // Distinct models on one thread just re-grow it.
  static thread_local ClassifyScratch scratch;
  return ClassifyBatch(request, &scratch);
}

Result<ClassifyResponse> FalccModel::ClassifyBatch(
    const ClassifyRequest& request, ClassifyScratch* scratch) const {
  Timer validate_timer;
  const size_t width = num_features();
  if (request.num_features != width) {
    return Status::InvalidArgument(
        "ClassifyBatch: request num_features=" +
        std::to_string(request.num_features) + " but the model expects " +
        std::to_string(width));
  }
  if (request.features.size() % width != 0) {
    return Status::InvalidArgument(
        "ClassifyBatch: features.size()=" +
        std::to_string(request.features.size()) +
        " is not a multiple of num_features=" + std::to_string(width));
  }
  const size_t n = request.features.size() / width;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < width; ++j) {
      if (!std::isfinite(request.features[i * width + j])) {
        return Status::InvalidArgument(
            "ClassifyBatch: non-finite value in sample " + std::to_string(i) +
            ", column " + std::to_string(j));
      }
    }
  }
  ClassifyResponse response;
  response.stages.validate = validate_timer.ElapsedSeconds();
  if (n == 0) return response;

  ClassifyRowsInto(request.features, width, &response, scratch);
  return response;
}

}  // namespace falcc
