// FalccModel's snapshot codec: the `falcc-snapshot-v2` and
// `falcc-delta-v2` writers and readers (container layout in
// io/snapshot.h), content hashing, and the refresh clone that keeps the
// cached manifest current.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "core/falcc.h"
#include "io/mapped_file.h"
#include "util/serialize.h"

namespace falcc {

namespace {
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

/// Reads the `baseline <L̂>` line that ends every combo section (of a
/// snapshot or a delta); the loss must be finite.
Status ReadComboBaseline(std::istream* in, const std::string& name,
                         double* loss) {
  std::string tag;
  *in >> tag;
  if (tag != "baseline") {
    return Status::InvalidArgument("FalccModel: section '" + name +
                                   "' lacks its baseline (expected tag "
                                   "'baseline', found '" + tag + "')");
  }
  FALCC_RETURN_IF_ERROR(io::Read(in, loss));
  if (!std::isfinite(*loss)) {
    return Status::InvalidArgument("FalccModel: non-finite baseline in '" +
                                   name + "'");
  }
  return Status::OK();
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
  *out << "baseline " << baseline_loss_[cluster] << '\n';
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
  *writer.BeginSection(kSectionMonitor)
      << assess_lambda_ << ' ' << static_cast<int>(assess_metric_) << ' '
      << static_cast<int>(assess_mode_) << '\n';
  FALCC_RETURN_IF_ERROR(writer.EndSection());
  return writer.Finish(manifest_out);
}

Result<FalccModel> FalccModel::LoadBytes(std::string_view bytes) {
  Result<io::SnapshotReader> reader = io::SnapshotReader::ParseView(bytes);
  if (!reader.ok()) return reader.status();
  return LoadV2(reader.value());
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
    Result<ModelPool> pool = ModelPool::DeserializeBinary(payload.value());
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
  // Save ∘ Load ∘ Save a byte fixed point. The first difference is
  // reported by name.
  {
    std::vector<std::string> expected = {kSectionMeta, kSectionPool,
                                         kSectionGroups, kSectionTransform,
                                         kSectionClustering};
    for (size_t c = 0; c < k; ++c) expected.push_back(ComboSectionName(c));
    expected.push_back(kSectionMonitor);
    const std::vector<io::SectionInfo>& sections = manifest.sections;
    for (size_t i = 0; i < std::max(expected.size(), sections.size()); ++i) {
      if (i == sections.size()) {
        return Status::InvalidArgument("FalccModel: snapshot is missing the '" +
                                       expected[i] + "' section");
      }
      if (i == expected.size() || sections[i].name != expected[i]) {
        return Status::InvalidArgument(
            "FalccModel: unexpected section '" + sections[i].name +
            "' at position " + std::to_string(i) + " (expected " +
            (i == expected.size() ? std::string("no more sections")
                                  : "'" + expected[i] + "'") +
            ")");
      }
    }
  }

  {
    Result<std::string_view> payload = section(kSectionMonitor);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    FALCC_RETURN_IF_ERROR(model.ReadAssessParams(&s));
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionMonitor));
  }

  model.selected_.resize(k);
  model.baseline_loss_.resize(k);
  for (size_t c = 0; c < k; ++c) {
    const std::string name = ComboSectionName(c);
    Result<std::string_view> payload = section(name);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    ModelCombination& combo = model.selected_[c];
    FALCC_RETURN_IF_ERROR(io::ReadVector(&s, &combo));
    FALCC_RETURN_IF_ERROR(model.CheckCombination(combo));
    FALCC_RETURN_IF_ERROR(
        ReadComboBaseline(&s, name, &model.baseline_loss_[c]));
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, name));
  }

  // No pool model predicts, kernel or interpreted, before this check
  // (see ModelPool::Add).
  FALCC_RETURN_IF_ERROR(model.CheckFeatureWidth());
  FALCC_RETURN_IF_ERROR(model.BuildCentroidTable());
  model.manifest_ = manifest;
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
    FALCC_RETURN_IF_ERROR(
        ReadComboBaseline(&s, info.name, &refresh.baseline_loss));
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, info.name));
    refreshes.push_back(std::move(refresh));
  }
  // Combination validity (width, range, applicability) is enforced by
  // CloneWithRefreshes — the same gate the monitor's
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
  // In-memory clone: the pool, with its kernels, is shared
  // (immutable, by far the largest components; a refresh only re-picks
  // among them) and everything else is copied, so the clone costs
  // O(refreshed clusters + routing tables), not a serialization round
  // trip of the whole model. Training diagnostics (assignment_) are not
  // carried over, matching what a save/load round trip would drop.
  FalccModel model;
  model.pool_ = pool_;
  model.pool_entropy_ = pool_entropy_;
  model.group_index_ = group_index_;
  model.clustering_transform_ = clustering_transform_;
  model.centroids_ = centroids_;
  model.centroid_table_ = centroid_table_;
  model.selected_ = selected_;
  model.baseline_loss_ = baseline_loss_;
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
    model.baseline_loss_[refresh.cluster] = refresh.baseline_loss;
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

}  // namespace falcc
