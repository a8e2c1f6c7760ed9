// Model pool and model-combination enumeration (paper §3.3).
//
// A ModelPool owns trained classifiers and records which sensitive groups
// each model may serve: models trained on the whole dataset apply to all
// groups, models trained on a group partition (split-by-group training,
// as in Decouple and the FALCES-SBT variants) apply only to their group.
// A ModelCombination assigns one applicable model to every sensitive
// group; EnumerateCombinations produces the candidate set MC_cand.
//
// Each model's compiled flat-node kernel (ml/compiled_ensemble.h) lives
// next to it in the pool. PredictProbaBatch is the one place that picks
// the kernel or the interpreted model, and everything that predicts
// with the pool — serving, assessment, refresh — goes through it. It
// reads a plain row-major matrix `(features, width)`: a prediction needs
// no column names, labels or sensitive-column markers, so no caller
// builds a Dataset to predict.

#ifndef FALCC_CORE_MODEL_POOL_H_
#define FALCC_CORE_MODEL_POOL_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ml/classifier.h"
#include "ml/compiled_ensemble.h"

namespace falcc {

/// One candidate assignment: entry g is the pool index of the model that
/// classifies sensitive group g.
using ModelCombination = std::vector<size_t>;

/// Owning collection of trained classifiers with group applicability.
class ModelPool {
 public:
  ModelPool() = default;
  ModelPool(ModelPool&&) = default;
  ModelPool& operator=(ModelPool&&) = default;

  /// Adds a trained model and lowers it into its kernel; a model that
  /// does not lower (not a tree ensemble, or a tree whose nodes share a
  /// subtree) gets an empty entry and predicts interpreted.
  /// `applicable_groups` empty = applies to every group; otherwise the
  /// listed group ids only.
  void Add(std::unique_ptr<Classifier> model,
           std::vector<size_t> applicable_groups = {});

  size_t size() const { return models_.size(); }
  /// The interpreted model — the reference its kernel must equal.
  const Classifier& model(size_t i) const { return *models_[i]; }
  /// Model `m`'s kernel, or nullptr when the model does not lower.
  const CompiledEnsemble* kernel(size_t m) const {
    return kernels_[m].has_value() ? &*kernels_[m] : nullptr;
  }

  /// Whether model `m` may serve group `g`.
  bool Applicable(size_t m, size_t g) const;

  /// P(y = 1) of model `m` for `rows` of the row-major matrix `features`
  /// (`width` values per row), written to `out` (same length): the
  /// model's kernel if it has one, its interpreted PredictProba per row
  /// otherwise — the same doubles either way.
  void PredictProbaBatch(size_t m, std::span<const double> features,
                         size_t width, std::span<const size_t> rows,
                         std::span<double> out) const;

  /// Hard predictions of every model on every row of the row-major
  /// matrix `features`: votes[m][row] = PredictProbaBatch >= 0.5, equal
  /// to PredictAll of each model. This is the precomputation that makes
  /// offline assessment cheap (the grey Pr_m columns of Tab. 2 in the
  /// paper).
  std::vector<std::vector<int>> PredictMatrix(std::span<const double> features,
                                              size_t width) const;

  /// The binary layout of the v2 snapshot's `pool` section. All integers
  /// are fixed-width little-endian and every array starts 8-byte aligned
  /// from the payload start:
  ///
  ///   u64 magic "falcc-p1"
  ///   u64 num_models
  ///   per model: u64 n, u64 applicable_groups[n], then the classifier
  ///              record (SerializeClassifierBinary, ml/serialize.h)
  ///
  /// The reader rejects a payload without the magic (a text pool, say),
  /// checks every count against the bytes left before sizing anything by
  /// it, applies the text classifier reader's limits and per-node checks
  /// (DecisionTree::CheckNode), and rejects trailing bytes.
  Status SerializeBinary(std::string* out) const;
  static Result<ModelPool> DeserializeBinary(std::string_view payload);

 private:
  std::vector<std::unique_ptr<Classifier>> models_;
  std::vector<std::vector<size_t>> applicable_;  // empty = all groups
  /// kernels_[m] lowers models_[m]; empty when the model does not lower.
  std::vector<std::optional<CompiledEnsemble>> kernels_;
};

/// All combinations assigning one applicable model per group
/// (MC_cand). Fails if some group has no applicable model or the
/// candidate count would exceed `max_combinations`.
Result<std::vector<ModelCombination>> EnumerateCombinations(
    const ModelPool& pool, size_t num_groups,
    size_t max_combinations = 200000);

}  // namespace falcc

#endif  // FALCC_CORE_MODEL_POOL_H_
