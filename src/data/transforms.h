// Column-level transforms used across the pipeline:
//  * projecting out columns (clustering ignores sensitive attributes,
//    Π_{R∖Sens}, and the proxy "removal" strategy drops proxy columns),
//  * per-column scaling (the proxy "reweighing" strategy distorts the
//    space clustered over, Eq. 1 of the paper),
//  * standardization (z-scoring) for distance-based components.
//
// ColumnTransform captures a fitted transform so the online phase can
// process new samples exactly like the offline validation data
// (paper §3.7 step 1).

#ifndef FALCC_DATA_TRANSFORMS_H_
#define FALCC_DATA_TRANSFORMS_H_

#include <iosfwd>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace falcc {

/// A fitted, reusable feature-space transform: optionally standardize,
/// multiply per-column weights, then keep only selected columns.
/// Apply() works on both whole datasets and single samples so the online
/// phase reproduces the offline processing.
class ColumnTransform {
 public:
  /// Empty transform over zero columns; assign a fitted transform before
  /// use (allows holder types to be default-constructible).
  ColumnTransform() = default;

  /// Identity transform over `num_features` columns.
  static ColumnTransform Identity(size_t num_features);

  /// Standardizing transform fitted on `data` (per-column z-scoring;
  /// constant columns are left centered but unscaled).
  static ColumnTransform Standardize(const Dataset& data);

  /// Number of input columns expected by Apply().
  size_t num_input_features() const { return offsets_.size(); }
  /// Number of output columns produced by Apply().
  size_t num_output_features() const { return kept_columns_.size(); }
  /// Indices (into the input space) of the columns kept, ascending.
  const std::vector<size_t>& kept_columns() const { return kept_columns_; }

  /// Multiplies the scale of column `col` by `w` (applied after
  /// standardization). Used by proxy reweighing.
  void ScaleColumn(size_t col, double w);

  /// Drops `col` from the output. Dropping a column twice is a no-op.
  void DropColumn(size_t col);

  /// Drops all the given columns.
  void DropColumns(std::span<const size_t> cols);

  /// Transforms one sample. `features` must have num_input_features().
  std::vector<double> Apply(std::span<const double> features) const;

  /// Allocation-free variant: writes the transformed sample into `out`,
  /// which must have num_output_features() elements (e.g. one row of a
  /// caller-owned matrix).
  void ApplyInto(std::span<const double> features,
                 std::span<double> out) const;

  /// Transforms every row of `data`; the result is a plain matrix
  /// (row-major) since labels/sensitive metadata are unaffected.
  std::vector<std::vector<double>> ApplyAll(const Dataset& data) const;

  /// Text serialization (whitespace tokens, lossless doubles).
  Status Serialize(std::ostream* out) const;
  static Result<ColumnTransform> Deserialize(std::istream* in);

 private:
  std::vector<double> offsets_;  // subtracted per input column
  std::vector<double> scales_;   // multiplied per input column
  std::vector<size_t> kept_columns_;
};

}  // namespace falcc

#endif  // FALCC_DATA_TRANSFORMS_H_
