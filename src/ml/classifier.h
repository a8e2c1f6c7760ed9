// Abstract binary classifier interface.
//
// All learners in falcc (decision trees, boosted/bagged ensembles, linear
// and probabilistic models) implement this interface so the FALCC
// framework, the model pool, and every baseline can treat them uniformly.
// Training supports per-sample weights (needed by boosting and by
// fairness-driven reweighting baselines).

#ifndef FALCC_ML_CLASSIFIER_H_
#define FALCC_ML_CLASSIFIER_H_

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace falcc {

class FlatEnsembleBuilder;

/// Interface of a trainable binary classifier.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on `data`. `sample_weights` is either empty (uniform) or one
  /// non-negative weight per row with a positive sum.
  virtual Status Fit(const Dataset& data,
                     std::span<const double> sample_weights) = 0;

  /// Convenience: uniform-weight training.
  Status Fit(const Dataset& data) { return Fit(data, {}); }

  /// Estimated P(y = 1 | features). Requires a prior successful Fit.
  virtual double PredictProba(std::span<const double> features) const = 0;

  /// Hard prediction; default thresholds PredictProba at 0.5.
  virtual int Predict(std::span<const double> features) const {
    return PredictProba(features) >= 0.5 ? 1 : 0;
  }

  /// Estimated P(y = 1) for `rows` of `data`, written to `out` (same
  /// length). The default calls PredictProba per row; tree-based models
  /// override it with an iterative traversal over their flat node arrays
  /// so batch inference pays one virtual dispatch per model, not per row.
  /// Must produce exactly PredictProba(data.Row(rows[j])) per row.
  virtual void PredictProbaBatch(const Dataset& data,
                                 std::span<const size_t> rows,
                                 std::span<double> out) const;

  /// Checks that a fitted model is safe to evaluate on samples with
  /// `num_features` columns: every feature index the model dereferences
  /// at prediction time must be < num_features, and fixed-width models
  /// must match the width exactly. Deserialized models are validated with
  /// this before they may serve traffic — an adversarial payload must be
  /// rejected with a Status here, never crash inside Predict. The default
  /// accepts any width (for models that index nothing directly).
  virtual Status ValidateForWidth(size_t num_features) const {
    (void)num_features;
    return Status::OK();
  }

  /// Lowers this fitted model into the compiled inference layer
  /// (ml/compiled_ensemble.h): declares the combination rule via
  /// `builder->SetKind`, then appends every tree in evaluation order.
  /// Returns false — the default, without touching the builder — for
  /// types that are not tree ensembles or are unfitted; those keep the
  /// interpreted PredictProbaBatch path.
  virtual bool LowerToFlat(FlatEnsembleBuilder* builder) const {
    (void)builder;
    return false;
  }

  /// Deep copy, including any fitted state.
  virtual std::unique_ptr<Classifier> Clone() const = 0;

  /// Short human-readable description, e.g. "AdaBoost(T=20,depth=7)".
  virtual std::string Name() const = 0;

  /// Stable type tag used by the serialization registry (ml/serialize.h),
  /// e.g. "decision_tree". Empty = type does not support serialization.
  virtual std::string TypeTag() const { return ""; }

  /// Writes the fitted model's payload (without the type tag) to `out`.
  /// The default fails; types listed in ml/serialize.h override it.
  virtual Status SerializePayload(std::ostream* out) const;
};

/// Hard predictions for every row of `data`.
std::vector<int> PredictAll(const Classifier& model, const Dataset& data);

/// Unweighted accuracy of `model` on `data`.
double Accuracy(const Classifier& model, const Dataset& data);

/// Validates sample weights against a dataset: empty is allowed
/// (uniform); otherwise size must match and weights must be finite and
/// non-negative with a positive, finite sum.
Status ValidateWeights(const Dataset& data, std::span<const double> weights);

}  // namespace falcc

#endif  // FALCC_ML_CLASSIFIER_H_
