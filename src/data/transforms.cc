#include "data/transforms.h"

#include <algorithm>
#include <cmath>

#include "util/math.h"
#include "util/serialize.h"

namespace falcc {

ColumnTransform ColumnTransform::Identity(size_t num_features) {
  ColumnTransform t;
  t.offsets_.assign(num_features, 0.0);
  t.scales_.assign(num_features, 1.0);
  t.kept_columns_.resize(num_features);
  for (size_t i = 0; i < num_features; ++i) t.kept_columns_[i] = i;
  return t;
}

ColumnTransform ColumnTransform::Standardize(const Dataset& data) {
  ColumnTransform t = Identity(data.num_features());
  for (size_t c = 0; c < data.num_features(); ++c) {
    const std::vector<double> col = data.Column(c);
    const double mu = Mean(col);
    const double sd = StdDev(col);
    t.offsets_[c] = mu;
    t.scales_[c] = sd > 0.0 ? 1.0 / sd : 1.0;
  }
  return t;
}

void ColumnTransform::ScaleColumn(size_t col, double w) {
  FALCC_CHECK(col < scales_.size(), "ScaleColumn: column out of range");
  scales_[col] *= w;
}

void ColumnTransform::DropColumn(size_t col) {
  FALCC_CHECK(col < offsets_.size(), "DropColumn: column out of range");
  kept_columns_.erase(
      std::remove(kept_columns_.begin(), kept_columns_.end(), col),
      kept_columns_.end());
}

void ColumnTransform::DropColumns(std::span<const size_t> cols) {
  for (size_t c : cols) DropColumn(c);
}

std::vector<double> ColumnTransform::Apply(
    std::span<const double> features) const {
  std::vector<double> out(kept_columns_.size());
  ApplyInto(features, out);
  return out;
}

void ColumnTransform::ApplyInto(std::span<const double> features,
                                std::span<double> out) const {
  FALCC_CHECK(features.size() == offsets_.size(),
              "ColumnTransform::Apply: width mismatch");
  FALCC_CHECK(out.size() == kept_columns_.size(),
              "ColumnTransform::ApplyInto: output width mismatch");
  for (size_t i = 0; i < kept_columns_.size(); ++i) {
    const size_t c = kept_columns_[i];
    out[i] = (features[c] - offsets_[c]) * scales_[c];
  }
}

Status ColumnTransform::Serialize(std::ostream* out) const {
  io::PrepareStream(out);
  io::WriteVector(out, offsets_);
  io::WriteVector(out, scales_);
  io::WriteVector(out, kept_columns_);
  if (!*out) return Status::IOError("ColumnTransform serialization failed");
  return Status::OK();
}

Result<ColumnTransform> ColumnTransform::Deserialize(std::istream* in) {
  ColumnTransform t;
  FALCC_RETURN_IF_ERROR(io::ReadVector(in, &t.offsets_));
  FALCC_RETURN_IF_ERROR(io::ReadVector(in, &t.scales_));
  FALCC_RETURN_IF_ERROR(io::ReadVector(in, &t.kept_columns_));
  if (t.scales_.size() != t.offsets_.size()) {
    return Status::InvalidArgument("ColumnTransform: width mismatch");
  }
  for (size_t c : t.kept_columns_) {
    if (c >= t.offsets_.size()) {
      return Status::InvalidArgument("ColumnTransform: kept column range");
    }
  }
  for (size_t j = 0; j < t.offsets_.size(); ++j) {
    if (!std::isfinite(t.offsets_[j]) || !std::isfinite(t.scales_[j])) {
      return Status::InvalidArgument("ColumnTransform: non-finite parameters");
    }
  }
  return t;
}

std::vector<std::vector<double>> ColumnTransform::ApplyAll(
    const Dataset& data) const {
  std::vector<std::vector<double>> out;
  out.reserve(data.num_rows());
  for (size_t i = 0; i < data.num_rows(); ++i) out.push_back(Apply(data.Row(i)));
  return out;
}

}  // namespace falcc
