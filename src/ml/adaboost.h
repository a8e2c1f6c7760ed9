// AdaBoost (discrete SAMME) over decision-tree base estimators.
//
// The default trainer of FALCC's diverse-model-training component
// (paper §3.3): boosting is the paper's preferred way to induce a diverse
// pool of classifiers, with the grid search of ml/grid_search.h sweeping
// the number of estimators, tree depth, and split criterion.

#ifndef FALCC_ML_ADABOOST_H_
#define FALCC_ML_ADABOOST_H_

#include "ml/decision_tree.h"

namespace falcc {

/// AdaBoost hyperparameters. Paper grid: num_estimators ∈ {5, 20},
/// tree depth ∈ {1, 7}, criterion ∈ {gini, entropy}.
struct AdaBoostOptions {
  size_t num_estimators = 20;
  DecisionTreeOptions base;
  double learning_rate = 1.0;
};

/// Boosted ensemble of weighted decision trees (binary SAMME).
class AdaBoost final : public Classifier {
 public:
  explicit AdaBoost(const AdaBoostOptions& options = {})
      : options_(options) {}

  Status Fit(const Dataset& data,
             std::span<const double> sample_weights) override;
  using Classifier::Fit;

  /// Fits against a prebuilt presorted column cache (data/
  /// feature_columns.h): the per-dataset sort is paid once outside and
  /// one TreeBuilder's scratch is reused across all boosting rounds.
  /// Produces exactly the same ensemble as Fit(columns.data(), weights).
  Status Fit(const FeatureColumns& columns,
             std::span<const double> sample_weights);
  Status Fit(const FeatureColumns& columns) { return Fit(columns, {}); }

  double PredictProba(std::span<const double> features) const override;
  void PredictProbaBatch(const Dataset& data, std::span<const size_t> rows,
                         std::span<double> out) const override;
  Status ValidateForWidth(size_t num_features) const override;
  std::unique_ptr<Classifier> Clone() const override;
  std::string Name() const override;
  std::string TypeTag() const override { return "adaboost"; }
  Status SerializePayload(std::ostream* out) const override;
  static Result<AdaBoost> DeserializePayload(std::istream* in);
  /// The same fields in the binary pool layout: num_estimators (u64),
  /// learning_rate (f64), the tree count (u64), the alphas, then each
  /// tree's DecisionTree::SerializeBinary record.
  void SerializeBinary(io::BinaryWriter* out) const;
  static Result<AdaBoost> DeserializeBinary(io::BinaryReader* in);
  bool LowerToFlat(FlatEnsembleBuilder* builder) const override;

  /// Number of estimators actually fitted (early stop on perfect fit).
  size_t num_fitted() const { return trees_.size(); }

  /// Assembles a fitted ensemble from externally built parts. Used by the
  /// frozen seed trainer (ml/reference_trainer.h) and by tests.
  static AdaBoost FromParts(const AdaBoostOptions& options,
                            std::vector<DecisionTree> trees,
                            std::vector<double> alphas);

  /// Whether fits under `a` and `b` on the same data boost the same
  /// rounds up to the shorter count: every option but num_estimators
  /// agrees, and so does the base seed when it is read (feature
  /// subsampling, max_features > 0). A SAMME round never depends on the
  /// total number of rounds.
  static bool SharesRounds(const AdaBoostOptions& a, const AdaBoostOptions& b);

  /// The ensemble AdaBoost(options).Fit would produce on the data this
  /// model was fitted on: its first min(options.num_estimators,
  /// num_fitted()) trees and alphas. An early stop carries over, since a
  /// fit that stops at round t stops every longer fit there too. Each tree
  /// is re-tagged with the seed Fit would store for it (options.base.seed
  /// + t), so the result serializes byte-identically to that fit.
  /// Requires SharesRounds(this fit's options, options) and
  /// options.num_estimators > 0.
  AdaBoost Prefix(const AdaBoostOptions& options) const;

 private:
  AdaBoostOptions options_;
  std::vector<DecisionTree> trees_;
  std::vector<double> alphas_;
};

}  // namespace falcc

#endif  // FALCC_ML_ADABOOST_H_
