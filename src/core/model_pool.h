// Model pool and model-combination enumeration (paper §3.3).
//
// A ModelPool owns trained classifiers and records which sensitive groups
// each model may serve: models trained on the whole dataset apply to all
// groups, models trained on a group partition (split-by-group training,
// as in Decouple and the FALCES-SBT variants) apply only to their group.
// A ModelCombination assigns one applicable model to every sensitive
// group; EnumerateCombinations produces the candidate set MC_cand.

#ifndef FALCC_CORE_MODEL_POOL_H_
#define FALCC_CORE_MODEL_POOL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ml/classifier.h"

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

  /// Adds a trained model. `applicable_groups` empty = applies to every
  /// group; otherwise the listed group ids only.
  void Add(std::unique_ptr<Classifier> model,
           std::vector<size_t> applicable_groups = {});

  size_t size() const { return models_.size(); }
  const Classifier& model(size_t i) const { return *models_[i]; }

  /// Whether model `m` may serve group `g`.
  bool Applicable(size_t m, size_t g) const;

  /// Hard predictions of every model on every row: votes[m][row].
  /// This is the precomputation that makes offline assessment cheap
  /// (the grey Pr_m columns of Tab. 2 in the paper).
  std::vector<std::vector<int>> PredictMatrix(const Dataset& data) const;

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
};

/// All combinations assigning one applicable model per group
/// (MC_cand). Fails if some group has no applicable model or the
/// candidate count would exceed `max_combinations`.
Result<std::vector<ModelCombination>> EnumerateCombinations(
    const ModelPool& pool, size_t num_groups,
    size_t max_combinations = 200000);

}  // namespace falcc

#endif  // FALCC_CORE_MODEL_POOL_H_
