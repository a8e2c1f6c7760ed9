// Random Forest: bagged decision trees with per-split feature
// subsampling. The paper's alternative (bagging-based) trainer for
// diverse model pools (§3.3); the diversity experiment of Fig. 4 sweeps
// both AdaBoost and Random Forest hyperparameters.

#ifndef FALCC_ML_RANDOM_FOREST_H_
#define FALCC_ML_RANDOM_FOREST_H_

#include "ml/decision_tree.h"

namespace falcc {

/// Random Forest hyperparameters.
struct RandomForestOptions {
  size_t num_trees = 20;
  DecisionTreeOptions base;
  /// Features per split; 0 = floor(sqrt(num_features)).
  size_t max_features = 0;
  uint64_t seed = 1;
};

/// Bootstrap-aggregated decision trees; probability = mean tree vote.
class RandomForest final : public Classifier {
 public:
  explicit RandomForest(const RandomForestOptions& options = {})
      : options_(options) {}

  Status Fit(const Dataset& data,
             std::span<const double> sample_weights) override;
  using Classifier::Fit;

  /// Fits against a prebuilt presorted column cache (data/
  /// feature_columns.h): the per-dataset sort is paid once and shared by
  /// every bootstrap tree. Produces exactly the same forest as
  /// Fit(columns.data(), sample_weights).
  Status Fit(const FeatureColumns& columns,
             std::span<const double> sample_weights);
  Status Fit(const FeatureColumns& columns) { return Fit(columns, {}); }

  double PredictProba(std::span<const double> features) const override;
  void PredictProbaBatch(const Dataset& data, std::span<const size_t> rows,
                         std::span<double> out) const override;
  Status ValidateForWidth(size_t num_features) const override;
  std::unique_ptr<Classifier> Clone() const override;
  std::string Name() const override;
  std::string TypeTag() const override { return "random_forest"; }
  Status SerializePayload(std::ostream* out) const override;
  static Result<RandomForest> DeserializePayload(std::istream* in);
  /// The same fields in the binary pool layout: num_trees, max_features
  /// and seed (u64), the fitted tree count (u64), then each tree's
  /// DecisionTree::SerializeBinary record.
  void SerializeBinary(io::BinaryWriter* out) const;
  static Result<RandomForest> DeserializeBinary(io::BinaryReader* in);
  bool LowerToFlat(FlatEnsembleBuilder* builder) const override;

  /// Assembles a fitted forest from externally built parts. Used by the
  /// frozen seed trainer (ml/reference_trainer.h) and by tests.
  static RandomForest FromParts(const RandomForestOptions& options,
                                std::vector<DecisionTree> trees);

 private:
  RandomForestOptions options_;
  std::vector<DecisionTree> trees_;
};

}  // namespace falcc

#endif  // FALCC_ML_RANDOM_FOREST_H_
