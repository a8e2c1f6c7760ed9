// Tabular dataset representation for binary classification with sensitive
// attributes.
//
// A Dataset holds a dense row-major feature matrix, binary labels, feature
// names, and the indices of the sensitive (protected) attributes among the
// feature columns. Sensitive attributes are ordinary feature columns — the
// components that must ignore them (clustering, cluster matching) project
// them out explicitly via data/transforms.h, mirroring Π_{R∖Sens} in the
// paper.

#ifndef FALCC_DATA_DATASET_H_
#define FALCC_DATA_DATASET_H_

#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace falcc {

/// A labeled tabular dataset for binary classification.
class Dataset {
 public:
  Dataset() = default;

  /// Builds a dataset and validates shape consistency:
  /// `features` must be rows*cols long, `labels` must have one 0/1 entry
  /// per row, `feature_names` one name per column, and every index in
  /// `sensitive_features` must refer to an existing column.
  static Result<Dataset> Create(std::vector<std::string> feature_names,
                                std::vector<double> features, size_t num_cols,
                                std::vector<int> labels,
                                std::vector<size_t> sensitive_features);

  size_t num_rows() const { return labels_.size(); }
  size_t num_features() const { return num_cols_; }

  /// Feature vector of row i.
  std::span<const double> Row(size_t i) const {
    return {features_.data() + i * num_cols_, num_cols_};
  }
  /// Mutable feature vector of row i (used by column transforms).
  std::span<double> MutableRow(size_t i) {
    return {features_.data() + i * num_cols_, num_cols_};
  }

  /// The whole row-major feature matrix, num_rows() × num_features() —
  /// what prediction reads (ModelPool::PredictProbaBatch).
  std::span<const double> features() const { return features_; }

  double Feature(size_t row, size_t col) const {
    return features_[row * num_cols_ + col];
  }

  int Label(size_t i) const { return labels_[i]; }
  const std::vector<int>& labels() const { return labels_; }

  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  /// Column indices of the sensitive attributes, ascending.
  const std::vector<size_t>& sensitive_features() const {
    return sensitive_features_;
  }

  /// All values of one feature column (copy).
  std::vector<double> Column(size_t col) const;

  /// Overwrites one label (used by relabeling baselines).
  void SetLabel(size_t i, int label) { labels_[i] = label; }

  /// Dataset restricted to the given rows, in the given order.
  Dataset Subset(std::span<const size_t> rows) const;

  /// Appends one row (feature vector + label). The vector length must
  /// equal num_features(); violations abort (internal invariant).
  void AppendRow(std::span<const double> features, int label);

  /// Fraction of rows with label 1; 0 for an empty dataset.
  double PositiveRate() const;

 private:
  std::vector<std::string> feature_names_;
  std::vector<double> features_;  // row-major, num_rows x num_cols
  size_t num_cols_ = 0;
  std::vector<int> labels_;
  std::vector<size_t> sensitive_features_;
};

/// Concatenates two datasets with identical schemas (feature names and
/// sensitive columns must match).
Result<Dataset> ConcatDatasets(const Dataset& a, const Dataset& b);

}  // namespace falcc

#endif  // FALCC_DATA_DATASET_H_
