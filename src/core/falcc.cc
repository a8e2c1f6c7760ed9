#include "core/falcc.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "cluster/kdtree.h"
#include "io/mapped_file.h"
#include "ml/adaboost.h"
#include "util/math.h"
#include "util/parallel.h"
#include "util/serialize.h"
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

  std::vector<std::vector<size_t>> region_rows(k);
  for (size_t i = 0; i < validation.num_rows(); ++i) {
    region_rows[model.assignment_[i]].push_back(i);
  }

  // Per-group kd-trees are built lazily: most clusters cover all groups.
  std::vector<std::vector<bool>> group_masks(num_groups);
  Result<KdTree> tree = KdTree::Build(points);
  if (!tree.ok()) return tree.status();
  auto group_mask = [&](size_t g) -> const std::vector<bool>& {
    if (group_masks[g].empty()) {
      group_masks[g].assign(validation.num_rows(), false);
      for (size_t i = 0; i < validation.num_rows(); ++i) {
        group_masks[g][i] = groups[i] == g;
      }
    }
    return group_masks[g];
  };

  for (size_t c = 0; c < k; ++c) {
    if (region_rows[c].empty()) continue;  // empty cluster: nothing to fill
    std::vector<bool> present(num_groups, false);
    for (size_t row : region_rows[c]) present[groups[row]] = true;
    for (size_t g = 0; g < num_groups; ++g) {
      if (present[g]) continue;
      // Pull the gap_fill_k nearest validation samples of group g to the
      // cluster centroid into this cluster's assessment rows.
      const std::vector<size_t> nn = tree.value().NearestWhere(
          model.centroids_[c], options.gap_fill_k, group_mask(g));
      region_rows[c].insert(region_rows[c].end(), nn.begin(), nn.end());
    }
  }
  if (stage_times != nullptr) {
    stage_times->cluster_seconds = cluster_timer.ElapsedSeconds();
  }
  Timer assess_timer;

  // Drop empty regions from assessment but keep centroid indexing intact
  // by assigning them the globally best combination later.
  const std::vector<std::vector<int>> votes =
      model.pool_->PredictMatrix(validation);

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
  model.CompileKernels();
  if (stage_times != nullptr) {
    stage_times->assess_seconds = assess_timer.ElapsedSeconds();
  }
  return model;
}

void FalccModel::CompileKernels() {
  // Every pool model compiles, not only the selected ones: a refresh may
  // pick any of them, and the kernels must not depend on selected_.
  auto kernels = std::make_shared<CompiledPool>(pool_->size());
  for (size_t m = 0; m < pool_->size(); ++m) {
    Result<CompiledEnsemble> kernel =
        CompiledEnsemble::Compile(pool_->model(m));
    // A model that does not lower — not a tree ensemble, or an accepted
    // tree whose nodes share a subtree — keeps its rows on the
    // interpreted path; the other models still serve from kernels.
    if (kernel.ok()) (*kernels)[m] = std::move(kernel).value();
  }
  kernels_ = std::move(kernels);
}

Status FalccModel::BuildCentroidTable() {
  Result<CentroidTable> table = CentroidTable::Build(centroids_);
  if (!table.ok()) return table.status();
  centroid_table_ = std::move(table).value();
  return Status::OK();
}

namespace {
/// Optional trailing v1 section holding the monitoring anchors:
/// assessment parameters and the per-cluster baseline L̂. Artifacts
/// written before monitoring existed simply end after the combinations;
/// Load treats the section as absent and leaves the baselines empty.
constexpr char kMonitorSection[] = "falcc-monitor-v1";

// v2 section names, in canonical manifest order (the combo sections sit
// between clustering and monitor, one per cluster).
constexpr char kSectionMeta[] = "meta";
constexpr char kSectionPool[] = "pool";
constexpr char kSectionGroups[] = "groups";
constexpr char kSectionTransform[] = "transform";
constexpr char kSectionClustering[] = "clustering";
constexpr char kSectionMonitor[] = "monitor";
constexpr char kComboSectionPrefix[] = "combo.";

std::string ComboSectionName(size_t cluster) {
  return kComboSectionPrefix + std::to_string(cluster);
}

/// Every section parser ends with this: a v2 section is a closed unit,
/// so trailing tokens mean the artifact disagrees with its manifest.
Status ExpectSectionEnd(std::istream* in, const std::string& name) {
  std::string extra;
  if (*in >> extra) {
    return Status::InvalidArgument("FalccModel: trailing data in section '" +
                                   name + "'");
  }
  return Status::OK();
}

/// The v2 pool section: binary (ModelPool::SerializeBinary), or the text
/// pool of snapshots written before the binary layout existed.
Result<ModelPool> DecodePoolSection(std::string_view payload) {
  if (ModelPool::IsBinary(payload)) {
    return ModelPool::DeserializeBinary(payload);
  }
  std::istringstream s{std::string(payload)};
  Result<ModelPool> pool = ModelPool::Deserialize(&s);
  if (pool.ok()) FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionPool));
  return pool;
}

/// Strict "combo.<index>" parser for delta manifests: digits only, no
/// leading zeros, value below `num_clusters`.
Result<size_t> ParseComboSectionName(const std::string& name,
                                     size_t num_clusters) {
  const std::string_view prefix = kComboSectionPrefix;
  if (name.size() <= prefix.size() ||
      std::string_view(name).substr(0, prefix.size()) != prefix) {
    return Status::InvalidArgument(
        "FalccModel: delta may only carry combo sections, found '" + name +
        "'");
  }
  const std::string_view digits = std::string_view(name).substr(prefix.size());
  if (digits.size() > 1 && digits[0] == '0') {
    return Status::InvalidArgument("FalccModel: bad combo section name '" +
                                   name + "'");
  }
  size_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9' || value > num_clusters) {
      return Status::InvalidArgument("FalccModel: bad combo section name '" +
                                     name + "'");
    }
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  if (value >= num_clusters) {
    return Status::InvalidArgument("FalccModel: delta cluster " +
                                   std::to_string(value) + " out of range");
  }
  return value;
}
}  // namespace

Status FalccModel::Save(std::ostream* out) const {
  return SaveV2(out, nullptr);
}

void FalccModel::WriteComboSection(std::ostream* out, size_t cluster) const {
  io::WriteVector(out, selected_[cluster]);
  // Self-describing baseline: a delta section replays without the base
  // artifact in hand, so it must say whether a baseline exists.
  if (baseline_loss_.empty()) {
    *out << "none\n";
  } else {
    *out << "baseline " << baseline_loss_[cluster] << '\n';
  }
}

Status FalccModel::SaveV2(std::ostream* out,
                          io::SnapshotManifest* manifest_out) const {
  io::SnapshotWriter writer(out);
  *writer.BeginSection(kSectionMeta) << "entropy " << pool_entropy_ << '\n';
  FALCC_RETURN_IF_ERROR(writer.EndSection());
  {
    std::string pool;
    FALCC_RETURN_IF_ERROR(pool_->SerializeBinary(&pool));
    FALCC_RETURN_IF_ERROR(writer.AddSection(kSectionPool, std::move(pool)));
  }
  FALCC_RETURN_IF_ERROR(
      group_index_.Serialize(writer.BeginSection(kSectionGroups)));
  FALCC_RETURN_IF_ERROR(writer.EndSection());
  FALCC_RETURN_IF_ERROR(
      clustering_transform_.Serialize(writer.BeginSection(kSectionTransform)));
  FALCC_RETURN_IF_ERROR(writer.EndSection());
  {
    std::ostream* s = writer.BeginSection(kSectionClustering);
    *s << centroids_.size() << '\n';
    for (const auto& c : centroids_) io::WriteVector(s, c);
    FALCC_RETURN_IF_ERROR(writer.EndSection());
  }
  for (size_t c = 0; c < selected_.size(); ++c) {
    WriteComboSection(writer.BeginSection(ComboSectionName(c)), c);
    FALCC_RETURN_IF_ERROR(writer.EndSection());
  }
  if (!baseline_loss_.empty()) {
    *writer.BeginSection(kSectionMonitor)
        << assess_lambda_ << ' ' << static_cast<int>(assess_metric_) << ' '
        << static_cast<int>(assess_mode_) << '\n';
    FALCC_RETURN_IF_ERROR(writer.EndSection());
  }
  return writer.Finish(manifest_out);
}

Result<FalccModel> FalccModel::LoadBytes(std::string_view bytes) {
  const io::ArtifactHeader header = io::SniffHeader(bytes);
  if (header == io::ArtifactHeader::kSnapshotV2) {
    Result<io::SnapshotReader> reader = io::SnapshotReader::ParseView(bytes);
    if (!reader.ok()) return reader.status();
    return LoadV2(reader.value());
  }
  if (header == io::ArtifactHeader::kDeltaV2) {
    return Status::InvalidArgument(
        "FalccModel: artifact is a delta snapshot; apply it to its base "
        "with ApplyDelta instead of loading it directly");
  }
  std::istringstream stream{std::string(bytes)};
  return LoadV1(&stream);
}

Result<FalccModel> FalccModel::LoadV1(std::istream* in) {
  FALCC_RETURN_IF_ERROR(io::Expect(in, io::kModelHeaderV1));
  FalccModel model;
  FALCC_RETURN_IF_ERROR(io::Read(in, &model.pool_entropy_));

  Result<ModelPool> pool = ModelPool::Deserialize(in);
  if (!pool.ok()) return pool.status();
  model.pool_ = std::make_shared<const ModelPool>(std::move(pool).value());

  Result<GroupIndex> index = GroupIndex::Deserialize(in);
  if (!index.ok()) return index.status();
  model.group_index_ = std::move(index).value();

  Result<ColumnTransform> transform = ColumnTransform::Deserialize(in);
  if (!transform.ok()) return transform.status();
  model.clustering_transform_ = std::move(transform).value();

  FALCC_RETURN_IF_ERROR(model.ReadCentroids(in));
  const size_t num_centroids = model.centroids_.size();
  size_t num_selected = 0;
  FALCC_RETURN_IF_ERROR(io::Read(in, &num_selected));
  if (num_selected != num_centroids) {
    return Status::InvalidArgument(
        "FalccModel: combination count != centroid count");
  }
  model.selected_.resize(num_selected);
  for (auto& combo : model.selected_) {
    FALCC_RETURN_IF_ERROR(io::ReadVector(in, &combo));
    FALCC_RETURN_IF_ERROR(model.CheckCombination(combo));
  }
  FALCC_RETURN_IF_ERROR(model.CheckFeatureWidth());

  // Monitoring anchors: optional trailing section (absent in artifacts
  // saved before the drift monitor existed — those load with empty
  // baselines and default assessment parameters).
  std::string marker;
  if (*in >> marker) {
    if (marker != kMonitorSection) {
      return Status::InvalidArgument(
          "FalccModel: unexpected trailing token '" + marker + "'");
    }
    FALCC_RETURN_IF_ERROR(model.ReadAssessParams(in));
    FALCC_RETURN_IF_ERROR(io::ReadVector(in, &model.baseline_loss_));
    if (!model.baseline_loss_.empty() &&
        model.baseline_loss_.size() != num_centroids) {
      return Status::InvalidArgument(
          "FalccModel: baseline count != centroid count");
    }
    for (double loss : model.baseline_loss_) {
      if (!std::isfinite(loss)) {
        return Status::InvalidArgument("FalccModel: non-finite baseline");
      }
    }
  }
  FALCC_RETURN_IF_ERROR(model.BuildCentroidTable());
  // Compile after every validation pass above: the kernels gather
  // through feature indices the width checks just vetted, so nothing an
  // accepted artifact contains can make a kernel read out of bounds.
  model.CompileKernels();
  return model;
}

Result<FalccModel> FalccModel::LoadV2(const io::SnapshotReader& reader) {
  if (reader.is_delta()) {
    return Status::InvalidArgument(
        "FalccModel: artifact is a delta snapshot; apply it to its base "
        "with ApplyDelta instead of loading it directly");
  }
  const io::SnapshotManifest& manifest = reader.manifest();
  // ReadSection verifies the section checksum; its error names the
  // failing section and file offset, which is the diagnostic v2 exists
  // to give.
  auto section = [&](const std::string& name) -> Result<std::string_view> {
    if (!manifest.Has(name)) {
      return Status::InvalidArgument("FalccModel: snapshot is missing the '" +
                                     name + "' section");
    }
    return reader.ReadSection(name);
  };

  FalccModel model;
  bool binary_pool = false;
  {
    Result<std::string_view> payload = section(kSectionMeta);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    FALCC_RETURN_IF_ERROR(io::Expect(&s, "entropy"));
    FALCC_RETURN_IF_ERROR(io::Read(&s, &model.pool_entropy_));
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionMeta));
  }
  {
    Result<std::string_view> payload = section(kSectionPool);
    if (!payload.ok()) return payload.status();
    binary_pool = ModelPool::IsBinary(payload.value());
    Result<ModelPool> pool = DecodePoolSection(payload.value());
    if (!pool.ok()) return pool.status();
    model.pool_ = std::make_shared<const ModelPool>(std::move(pool).value());
  }
  {
    Result<std::string_view> payload = section(kSectionGroups);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    Result<GroupIndex> index = GroupIndex::Deserialize(&s);
    if (!index.ok()) return index.status();
    model.group_index_ = std::move(index).value();
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionGroups));
  }
  {
    Result<std::string_view> payload = section(kSectionTransform);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    Result<ColumnTransform> transform = ColumnTransform::Deserialize(&s);
    if (!transform.ok()) return transform.status();
    model.clustering_transform_ = std::move(transform).value();
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionTransform));
  }
  {
    Result<std::string_view> payload = section(kSectionClustering);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    FALCC_RETURN_IF_ERROR(model.ReadCentroids(&s));
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionClustering));
  }
  const size_t k = model.centroids_.size();

  // The manifest must list exactly the canonical sections in canonical
  // order — section layout is part of the format, and enforcing it keeps
  // Save ∘ Load ∘ Save a byte fixed point.
  const bool has_monitor = manifest.Has(kSectionMonitor);
  const bool has_flat = manifest.Has(io::kFlatSectionName);
  {
    std::vector<std::string> expected = {kSectionMeta, kSectionPool,
                                         kSectionGroups, kSectionTransform,
                                         kSectionClustering};
    for (size_t c = 0; c < k; ++c) expected.push_back(ComboSectionName(c));
    if (has_monitor) expected.push_back(kSectionMonitor);
    if (has_flat) expected.push_back(io::kFlatSectionName);
    if (manifest.sections.size() != expected.size()) {
      return Status::InvalidArgument(
          "FalccModel: snapshot has " +
          std::to_string(manifest.sections.size()) + " sections, expected " +
          std::to_string(expected.size()));
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      if (manifest.sections[i].name != expected[i]) {
        return Status::InvalidArgument(
            "FalccModel: unexpected section '" + manifest.sections[i].name +
            "' at position " + std::to_string(i) + " (expected '" +
            expected[i] + "')");
      }
    }
  }

  if (has_monitor) {
    Result<std::string_view> payload = section(kSectionMonitor);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    FALCC_RETURN_IF_ERROR(model.ReadAssessParams(&s));
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionMonitor));
    model.baseline_loss_.assign(k, 0.0);
  }

  model.selected_.resize(k);
  for (size_t c = 0; c < k; ++c) {
    const std::string name = ComboSectionName(c);
    Result<std::string_view> payload = section(name);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    ModelCombination& combo = model.selected_[c];
    FALCC_RETURN_IF_ERROR(io::ReadVector(&s, &combo));
    FALCC_RETURN_IF_ERROR(model.CheckCombination(combo));
    std::string tag;
    if (!(s >> tag)) {
      return Status::InvalidArgument("FalccModel: truncated section '" + name +
                                     "'");
    }
    if (tag == "baseline") {
      if (!has_monitor) {
        return Status::InvalidArgument(
            "FalccModel: section '" + name +
            "' carries a baseline but the snapshot has no monitor section");
      }
      double loss = 0.0;
      FALCC_RETURN_IF_ERROR(io::Read(&s, &loss));
      if (!std::isfinite(loss)) {
        return Status::InvalidArgument("FalccModel: non-finite baseline");
      }
      model.baseline_loss_[c] = loss;
    } else if (tag == "none") {
      if (has_monitor) {
        return Status::InvalidArgument(
            "FalccModel: section '" + name +
            "' lacks a baseline despite the monitor section");
      }
    } else {
      return Status::InvalidArgument("FalccModel: bad baseline tag '" + tag +
                                     "' in section '" + name + "'");
    }
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, name));
  }

  FALCC_RETURN_IF_ERROR(model.CheckFeatureWidth());
  FALCC_RETURN_IF_ERROR(model.BuildCentroidTable());

  // Compile after every validation pass above, exactly like the v1 path.
  // A `flat` section written by older versions is never read: kernels
  // always come from the decoded pool.
  model.CompileKernels();
  // A text pool re-saves as binary, so that file's manifest is not what
  // Save writes; the identity is then computed from Save, as for a v1
  // artifact.
  if (binary_pool) model.manifest_ = manifest;
  return model;
}

Status FalccModel::ReadCentroids(std::istream* in) {
  size_t num_centroids = 0;
  FALCC_RETURN_IF_ERROR(io::Read(in, &num_centroids));
  if (num_centroids == 0 || num_centroids > 10000000) {
    return Status::InvalidArgument("FalccModel: implausible centroid count");
  }
  centroids_.resize(num_centroids);
  for (auto& c : centroids_) {
    FALCC_RETURN_IF_ERROR(io::ReadVector(in, &c));
    if (c.size() != clustering_transform_.num_output_features()) {
      return Status::InvalidArgument("FalccModel: centroid width mismatch");
    }
    for (double v : c) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("FalccModel: non-finite centroid");
      }
    }
  }
  return Status::OK();
}

Status FalccModel::ReadAssessParams(std::istream* in) {
  int metric = 0;
  int mode = 0;
  FALCC_RETURN_IF_ERROR(io::Read(in, &assess_lambda_));
  FALCC_RETURN_IF_ERROR(io::Read(in, &metric));
  FALCC_RETURN_IF_ERROR(io::Read(in, &mode));
  if (assess_lambda_ < 0.0 || assess_lambda_ > 1.0) {
    return Status::InvalidArgument("FalccModel: lambda out of range");
  }
  if (metric < 0 ||
      metric > static_cast<int>(FairnessMetric::kTreatmentEquality)) {
    return Status::InvalidArgument("FalccModel: unknown fairness metric");
  }
  if (mode < 0 || mode > static_cast<int>(AssessmentMode::kConsistency)) {
    return Status::InvalidArgument("FalccModel: unknown assessment mode");
  }
  assess_metric_ = static_cast<FairnessMetric>(metric);
  assess_mode_ = static_cast<AssessmentMode>(mode);
  return Status::OK();
}

Status FalccModel::CheckCombination(const ModelCombination& combo) const {
  if (combo.size() != group_index_.num_groups()) {
    return Status::InvalidArgument("FalccModel: combination width");
  }
  for (size_t g = 0; g < combo.size(); ++g) {
    const size_t m = combo[g];
    if (m >= pool_->size()) {
      return Status::InvalidArgument("FalccModel: model index range");
    }
    if (!pool_->Applicable(m, g)) {
      return Status::InvalidArgument(
          "FalccModel: model " + std::to_string(m) + " selected for group " +
          std::to_string(g) + " it is not applicable to");
    }
  }
  return Status::OK();
}

Status FalccModel::CheckFeatureWidth() const {
  // The sections are individually well-formed, but classification
  // indexes samples of width num_features() through the group index and
  // every pool model, so a mismatched pair of sections would read out of
  // bounds (or trip an internal abort) at serving time.
  const size_t width = num_features();
  for (size_t col : group_index_.sensitive_features()) {
    if (col >= width) {
      return Status::InvalidArgument(
          "FalccModel: sensitive column " + std::to_string(col) +
          " out of range for " + std::to_string(width) + " features");
    }
  }
  for (size_t m = 0; m < pool_->size(); ++m) {
    FALCC_RETURN_IF_ERROR(pool_->model(m).ValidateForWidth(width));
  }
  return Status::OK();
}

Result<FalccModel> FalccModel::LoadMapped(const std::string& path) {
  Result<io::MappedFile> file = io::MappedFile::Open(path);
  if (!file.ok()) return file.status();
  // The model copies what it keeps out of the mapping, which is
  // released on return.
  return LoadBytes(file.value().view());
}

Status FalccModel::SaveDelta(std::ostream* out,
                             std::span<const size_t> clusters,
                             uint64_t base_hash) const {
  if (clusters.empty()) {
    return Status::InvalidArgument("SaveDelta: no clusters listed");
  }
  std::vector<size_t> sorted(clusters.begin(), clusters.end());
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] >= centroids_.size()) {
      return Status::InvalidArgument("SaveDelta: cluster " +
                                     std::to_string(sorted[i]) +
                                     " out of range");
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument("SaveDelta: duplicate cluster " +
                                     std::to_string(sorted[i]));
    }
  }
  io::SnapshotWriter writer(out);
  writer.SetDeltaBase(base_hash);
  for (size_t c : sorted) {
    WriteComboSection(writer.BeginSection(ComboSectionName(c)), c);
    FALCC_RETURN_IF_ERROR(writer.EndSection());
  }
  return writer.Finish();
}

Result<FalccModel> FalccModel::ApplyDeltaBytes(std::string_view bytes) const {
  Result<io::SnapshotReader> parsed = io::SnapshotReader::ParseView(bytes);
  if (!parsed.ok()) return parsed.status();
  const io::SnapshotReader& reader = parsed.value();
  if (!reader.is_delta()) {
    return Status::InvalidArgument(
        "ApplyDelta: artifact is a full snapshot, not a delta");
  }
  Result<uint64_t> hash = ContentHash();
  if (!hash.ok()) return hash.status();
  if (reader.base_hash() != hash.value()) {
    // At-least-once feeds redeliver deltas. If every delta section is
    // already live bit for bit (same length and checksum as the equally
    // named section here), the post-apply content hash equals the live
    // one — the delta's effect is already installed, so accept it as a
    // success no-op and rebuild the identical model below. Anything
    // else is a genuine chain break.
    io::SnapshotManifest computed;
    const io::SnapshotManifest* live = nullptr;
    if (manifest_.has_value()) {
      live = &*manifest_;
    } else {
      std::ostringstream sink;
      if (SaveV2(&sink, &computed).ok()) live = &computed;
    }
    bool already_applied = live != nullptr;
    if (already_applied) {
      for (const io::SectionInfo& info : reader.manifest().sections) {
        const io::SectionInfo* have = live->Find(info.name);
        if (have == nullptr || have->length != info.length ||
            have->checksum != info.checksum) {
          already_applied = false;
          break;
        }
      }
    }
    if (!already_applied) {
      return Status::FailedPrecondition(
          "ApplyDelta: delta applies to base " +
          io::HashHex(reader.base_hash()) +
          " but the installed snapshot has content hash " +
          io::HashHex(hash.value()));
    }
  }
  const bool has_baselines = !baseline_loss_.empty();
  std::vector<ClusterRefresh> refreshes;
  std::vector<bool> seen(centroids_.size(), false);
  for (const io::SectionInfo& info : reader.manifest().sections) {
    Result<size_t> cluster =
        ParseComboSectionName(info.name, centroids_.size());
    if (!cluster.ok()) return cluster.status();
    if (seen[cluster.value()]) {
      return Status::InvalidArgument("ApplyDelta: duplicate cluster " +
                                     std::to_string(cluster.value()));
    }
    seen[cluster.value()] = true;
    Result<std::string_view> payload = reader.ReadSection(info.name);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    ClusterRefresh refresh;
    refresh.cluster = cluster.value();
    FALCC_RETURN_IF_ERROR(io::ReadVector(&s, &refresh.combination));
    std::string tag;
    if (!(s >> tag)) {
      return Status::InvalidArgument("ApplyDelta: truncated section '" +
                                     info.name + "'");
    }
    if (tag == "baseline") {
      if (!has_baselines) {
        return Status::InvalidArgument(
            "ApplyDelta: delta carries a baseline but the base snapshot "
            "has none");
      }
      FALCC_RETURN_IF_ERROR(io::Read(&s, &refresh.baseline_loss));
    } else if (tag == "none") {
      if (has_baselines) {
        return Status::InvalidArgument(
            "ApplyDelta: delta lacks a baseline the base snapshot tracks");
      }
    } else {
      return Status::InvalidArgument("ApplyDelta: bad baseline tag '" + tag +
                                     "' in section '" + info.name + "'");
    }
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, info.name));
    refreshes.push_back(std::move(refresh));
  }
  // Combination validity (width, range, applicability, finite baseline)
  // is enforced by CloneWithRefreshes — the same gate the monitor's
  // in-process refresh goes through.
  return CloneWithRefreshes(refreshes);
}

Status FalccModel::EnsureManifest() {
  if (manifest_.has_value()) return Status::OK();
  std::ostringstream sink;
  io::SnapshotManifest manifest;
  FALCC_RETURN_IF_ERROR(SaveV2(&sink, &manifest));
  manifest_ = std::move(manifest);
  return Status::OK();
}

Result<uint64_t> FalccModel::ContentHash() const {
  if (manifest_.has_value()) return manifest_->ContentHash();
  std::ostringstream sink;
  io::SnapshotManifest manifest;
  FALCC_RETURN_IF_ERROR(SaveV2(&sink, &manifest));
  return manifest.ContentHash();
}

Result<FalccModel> FalccModel::CloneWithRefreshes(
    std::span<const ClusterRefresh> refreshes) const {
  // In-memory clone: the pool and its compiled kernels are shared
  // (immutable, by far the largest components; a refresh only re-picks
  // among them) and everything else is copied, so the clone costs
  // O(refreshed clusters + routing tables), not a serialization round
  // trip of the whole model. Training diagnostics (assignment_) are not
  // carried over, matching what a save/load round trip would drop.
  FalccModel model;
  model.pool_ = pool_;
  model.kernels_ = kernels_;
  model.pool_entropy_ = pool_entropy_;
  model.group_index_ = group_index_;
  model.clustering_transform_ = clustering_transform_;
  model.centroids_ = centroids_;
  model.centroid_table_ = centroid_table_;
  model.selected_ = selected_;
  model.baseline_loss_ = baseline_loss_;
  model.use_compiled_ = use_compiled_;
  model.assess_lambda_ = assess_lambda_;
  model.assess_metric_ = assess_metric_;
  model.assess_mode_ = assess_mode_;
  for (const ClusterRefresh& refresh : refreshes) {
    if (refresh.cluster >= model.centroids_.size()) {
      return Status::InvalidArgument("CloneWithRefreshes: cluster " +
                                     std::to_string(refresh.cluster) +
                                     " out of range");
    }
    if (refresh.combination.size() != model.group_index_.num_groups()) {
      return Status::InvalidArgument(
          "CloneWithRefreshes: combination width != num_groups");
    }
    for (size_t g = 0; g < refresh.combination.size(); ++g) {
      const size_t m = refresh.combination[g];
      if (m >= model.pool_->size() || !model.pool_->Applicable(m, g)) {
        return Status::InvalidArgument(
            "CloneWithRefreshes: model " + std::to_string(m) +
            " is not applicable to group " + std::to_string(g));
      }
    }
    if (!std::isfinite(refresh.baseline_loss)) {
      return Status::InvalidArgument(
          "CloneWithRefreshes: non-finite baseline loss");
    }
    model.selected_[refresh.cluster] = refresh.combination;
    if (model.has_baseline_losses()) {
      model.baseline_loss_[refresh.cluster] = refresh.baseline_loss;
    }
  }
  // Incremental manifest update: a refresh changes only the refreshed
  // clusters' combo sections (every other section, the pool included,
  // is shared unchanged), so the clone's content hash is recomputed from
  // per-section metadata without serializing the model. Offsets go stale
  // but nothing reads them (ContentHash folds name/length/checksum
  // only); EnsureManifest on a fresh save restores exact offsets.
  if (manifest_.has_value()) {
    io::SnapshotManifest manifest = *manifest_;
    bool consistent = true;
    for (const ClusterRefresh& refresh : refreshes) {
      std::ostringstream payload;
      io::PrepareStream(&payload);
      model.WriteComboSection(&payload, refresh.cluster);
      const std::string bytes = std::move(payload).str();
      bool found = false;
      for (io::SectionInfo& info : manifest.sections) {
        if (info.name == ComboSectionName(refresh.cluster)) {
          info.length = bytes.size();
          info.checksum = io::Fnv1a(bytes);
          found = true;
          break;
        }
      }
      consistent = consistent && found;
    }
    if (consistent) model.manifest_ = std::move(manifest);
  }
  return model;
}

Status FalccModel::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  FALCC_RETURN_IF_ERROR(Save(&out));
  out.flush();
  if (!out) return Status::IOError("write to " + path + " failed");
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

void FalccModel::ClassifyRowsInto(const Dataset& data,
                                  ClassifyResponse* response,
                                  ClassifyScratch* scratch) const {
  const size_t n = data.num_rows();
  std::vector<SampleDecision>& decisions = response->decisions;
  decisions.assign(n, SampleDecision{});
  Timer stage_timer;

  // Stage 1 — sample processing (§3.7 step 1) straight into one
  // contiguous row-major matrix (caller scratch, reused across batches):
  // no per-sample or per-chunk buffer.
  const size_t width = clustering_transform_.num_output_features();
  std::vector<double>& transformed = scratch->transformed;
  transformed.resize(n * width);
  ParallelFor(0, n, 256, [&](size_t /*chunk*/, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      clustering_transform_.ApplyInto(
          data.Row(i), std::span<double>(transformed.data() + i * width,
                                         width));
    }
  });
  response->stages.transform = stage_timer.ElapsedSeconds();
  stage_timer.Restart();

  // Stage 2 — route every row to the model stored for its (region,
  // group). Neither lookup allocates.
  ParallelFor(0, n, 256, [&](size_t /*chunk*/, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const std::span<const double> point(transformed.data() + i * width,
                                          width);
      const size_t cluster = centroid_table_.Nearest(point);
      const size_t group = group_index_.GroupOfOrNearest(data.Row(i));
      decisions[i].cluster = cluster;
      decisions[i].group = group;
      decisions[i].model = selected_[cluster][group];
    }
  });
  response->stages.match = stage_timer.ElapsedSeconds();
  stage_timer.Restart();

  // Stage 3 — batch inference, rows grouped by the pool model that
  // fires. Each segment runs that model's compiled kernel (the shared
  // flat-node walk) or, for models that do not lower or with kernels
  // off, the interpreted batch path. The counting sort keeps row ids
  // ascending within each segment and per-row results are independent,
  // so the regrouping cannot change any prediction; segments write
  // disjoint slices of the shared scratch probability buffer, so the
  // parallel loop allocates nothing.
  const CompiledPool* kernels = use_compiled_ ? kernels_.get() : nullptr;
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
      if (kernels != nullptr && (*kernels)[m].has_value()) {
        (*kernels)[m]->PredictProbaBatch(data, segment_rows, segment_proba);
      } else {
        pool_->model(m).PredictProbaBatch(data, segment_rows, segment_proba);
      }
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
  ClassifyRowsInto(data, &response, &scratch);
  std::vector<int> out(data.num_rows());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = response.decisions[i].label;
  }
  return out;
}

Result<ClassifyResponse> FalccModel::ClassifyBatch(
    const ClassifyRequest& request) const {
  // One scratch per serving thread: steady-state batches reuse the
  // transform matrix, sort arrays, and the wrapper Dataset without any
  // per-call allocation. Distinct models on one thread just re-grow it.
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

  // Wrap the request in a Dataset so the kernel (and the per-model
  // PredictProbaBatch underneath) can run unchanged: placeholder names
  // and labels, the model's own sensitive columns for group routing.
  // The wrapper lives in the scratch; when its cached schema still
  // matches this model, only the feature rows are replaced in place.
  Dataset& wrap = scratch->wrap;
  if (scratch->wrap_valid && wrap.num_features() == width &&
      wrap.sensitive_features() == group_index_.sensitive_features()) {
    wrap.ReplaceRows(request.features);
  } else {
    scratch->wrap_valid = false;
    std::vector<std::string> names(width);
    for (size_t j = 0; j < width; ++j) names[j] = "f" + std::to_string(j);
    Result<Dataset> data = Dataset::Create(
        std::move(names),
        std::vector<double>(request.features.begin(), request.features.end()),
        width, std::vector<int>(n, 0), group_index_.sensitive_features());
    if (!data.ok()) return data.status();
    wrap = std::move(data).value();
    scratch->wrap_valid = true;
  }
  ClassifyRowsInto(wrap, &response, scratch);
  return response;
}

}  // namespace falcc
