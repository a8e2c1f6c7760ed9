#include "data/dataset.h"

#include <algorithm>

namespace falcc {

Result<Dataset> Dataset::Create(std::vector<std::string> feature_names,
                                std::vector<double> features, size_t num_cols,
                                std::vector<int> labels,
                                std::vector<size_t> sensitive_features) {
  if (num_cols == 0) {
    return Status::InvalidArgument("dataset needs at least one feature");
  }
  if (feature_names.size() != num_cols) {
    return Status::InvalidArgument("feature_names size != num_cols");
  }
  if (features.size() != labels.size() * num_cols) {
    return Status::InvalidArgument(
        "features size does not match labels * num_cols");
  }
  for (int y : labels) {
    if (y != 0 && y != 1) {
      return Status::InvalidArgument("labels must be binary (0/1)");
    }
  }
  for (size_t s : sensitive_features) {
    if (s >= num_cols) {
      return Status::InvalidArgument("sensitive feature index out of range");
    }
  }
  std::sort(sensitive_features.begin(), sensitive_features.end());
  if (std::adjacent_find(sensitive_features.begin(),
                         sensitive_features.end()) !=
      sensitive_features.end()) {
    return Status::InvalidArgument("duplicate sensitive feature index");
  }

  Dataset d;
  d.feature_names_ = std::move(feature_names);
  d.features_ = std::move(features);
  d.num_cols_ = num_cols;
  d.labels_ = std::move(labels);
  d.sensitive_features_ = std::move(sensitive_features);
  return d;
}

std::vector<double> Dataset::Column(size_t col) const {
  FALCC_CHECK(col < num_cols_, "Column index out of range");
  std::vector<double> out(num_rows());
  for (size_t i = 0; i < num_rows(); ++i) out[i] = Feature(i, col);
  return out;
}

Dataset Dataset::Subset(std::span<const size_t> rows) const {
  Dataset out;
  out.feature_names_ = feature_names_;
  out.num_cols_ = num_cols_;
  out.sensitive_features_ = sensitive_features_;
  out.features_.reserve(rows.size() * num_cols_);
  out.labels_.reserve(rows.size());
  for (size_t r : rows) {
    FALCC_CHECK(r < num_rows(), "Subset row index out of range");
    const auto row = Row(r);
    out.features_.insert(out.features_.end(), row.begin(), row.end());
    out.labels_.push_back(labels_[r]);
  }
  return out;
}

void Dataset::AppendRow(std::span<const double> features, int label) {
  FALCC_CHECK(features.size() == num_cols_, "AppendRow: width mismatch");
  FALCC_CHECK(label == 0 || label == 1, "AppendRow: label must be binary");
  features_.insert(features_.end(), features.begin(), features.end());
  labels_.push_back(label);
}

Result<Dataset> ConcatDatasets(const Dataset& a, const Dataset& b) {
  if (a.feature_names() != b.feature_names()) {
    return Status::InvalidArgument("ConcatDatasets: schema mismatch");
  }
  if (a.sensitive_features() != b.sensitive_features()) {
    return Status::InvalidArgument(
        "ConcatDatasets: sensitive feature mismatch");
  }
  Dataset out = a;
  for (size_t i = 0; i < b.num_rows(); ++i) {
    out.AppendRow(b.Row(i), b.Label(i));
  }
  return out;
}

double Dataset::PositiveRate() const {
  if (labels_.empty()) return 0.0;
  double pos = 0.0;
  for (int y : labels_) pos += y;
  return pos / static_cast<double>(labels_.size());
}

}  // namespace falcc
