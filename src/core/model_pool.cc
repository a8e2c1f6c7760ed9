#include "core/model_pool.h"

#include <algorithm>
#include <numeric>

#include "ml/serialize.h"
#include "util/binary.h"
#include "util/parallel.h"

namespace falcc {

namespace {
constexpr size_t kMaxModels = 100000;
constexpr std::string_view kBinaryMagic = "falcc-p1";
}  // namespace

void ModelPool::Add(std::unique_ptr<Classifier> model,
                    std::vector<size_t> applicable_groups) {
  FALCC_CHECK(model != nullptr, "ModelPool::Add: null model");
  // Lowering reads only the model's node arrays (FlatEnsembleBuilder
  // checks their shape), never a sample. The kernel then gathers through
  // the same feature indices as the interpreted model, so it runs under
  // the same condition: a pool decoded from an artifact must not predict,
  // kernel or interpreted, before FalccModel::CheckFeatureWidth accepts
  // it. The snapshot loader keeps that order, and a pool it rejects
  // never predicts.
  Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(*model);
  kernels_.push_back(kernel.ok() ? std::optional<CompiledEnsemble>(
                                       std::move(kernel).value())
                                 : std::nullopt);
  models_.push_back(std::move(model));
  applicable_.push_back(std::move(applicable_groups));
}

bool ModelPool::Applicable(size_t m, size_t g) const {
  FALCC_CHECK(m < models_.size(), "ModelPool::Applicable: model out of range");
  const auto& groups = applicable_[m];
  if (groups.empty()) return true;
  return std::find(groups.begin(), groups.end(), g) != groups.end();
}

void ModelPool::PredictProbaBatch(size_t m, std::span<const double> features,
                                  size_t width, std::span<const size_t> rows,
                                  std::span<double> out) const {
  FALCC_CHECK(m < models_.size(),
              "ModelPool::PredictProbaBatch: model out of range");
  FALCC_CHECK(rows.size() == out.size(),
              "ModelPool::PredictProbaBatch: rows/out size mismatch");
  if (kernels_[m].has_value()) {
    kernels_[m]->PredictProbaBatch(features, width, rows, out);
    return;
  }
  for (size_t j = 0; j < rows.size(); ++j) {
    out[j] =
        models_[m]->PredictProba(features.subspan(rows[j] * width, width));
  }
}

std::vector<std::vector<int>> ModelPool::PredictMatrix(
    std::span<const double> features, size_t width) const {
  const size_t n = features.size() / width;
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  // One task per model, each writing its own pre-sized slot.
  std::vector<std::vector<int>> votes(models_.size());
  ParallelFor(0, models_.size(), 1,
              [&](size_t /*chunk*/, size_t lo, size_t hi) {
                std::vector<double> proba(n);
                for (size_t m = lo; m < hi; ++m) {
                  PredictProbaBatch(m, features, width, rows, proba);
                  votes[m].resize(n);
                  for (size_t i = 0; i < n; ++i) {
                    votes[m][i] = proba[i] >= 0.5 ? 1 : 0;
                  }
                }
              });
  return votes;
}

Status ModelPool::SerializeBinary(std::string* out) const {
  io::BinaryWriter writer(out);
  writer.Bytes(kBinaryMagic);
  writer.U64(models_.size());
  for (size_t m = 0; m < models_.size(); ++m) {
    writer.U64(applicable_[m].size());
    for (size_t g : applicable_[m]) writer.U64(g);
    FALCC_RETURN_IF_ERROR(SerializeClassifierBinary(*models_[m], &writer));
  }
  return Status::OK();
}

Result<ModelPool> ModelPool::DeserializeBinary(std::string_view payload) {
  if (!payload.starts_with(kBinaryMagic)) {
    return Status::InvalidArgument(
        "ModelPool: the 'pool' section is not binary (no falcc-p1 magic)");
  }
  io::BinaryReader reader(payload.substr(kBinaryMagic.size()));
  uint64_t num_models = 0;
  // A model record is at least its group count and classifier header.
  if (!reader.U64(&num_models) || num_models == 0 ||
      num_models > kMaxModels || !reader.Fits(num_models, 16)) {
    return Status::InvalidArgument("ModelPool: implausible model count");
  }
  ModelPool pool;
  for (uint64_t m = 0; m < num_models; ++m) {
    uint64_t num_groups = 0;
    if (!reader.U64(&num_groups) ||
        !reader.Fits(num_groups, sizeof(uint64_t))) {
      return Status::InvalidArgument("ModelPool: truncated group list");
    }
    std::vector<size_t> applicable(num_groups);
    for (size_t& g : applicable) reader.U64(&g);
    Result<std::unique_ptr<Classifier>> model =
        DeserializeClassifierBinary(&reader);
    if (!model.ok()) {
      return Status::InvalidArgument("ModelPool: model " + std::to_string(m) +
                                     ": " + model.status().message());
    }
    pool.Add(std::move(model).value(), std::move(applicable));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("ModelPool: trailing bytes after the pool");
  }
  return pool;
}

Result<std::vector<ModelCombination>> EnumerateCombinations(
    const ModelPool& pool, size_t num_groups, size_t max_combinations) {
  if (pool.size() == 0) {
    return Status::InvalidArgument("EnumerateCombinations: empty pool");
  }
  if (num_groups == 0) {
    return Status::InvalidArgument("EnumerateCombinations: no groups");
  }

  // Applicable models per group.
  std::vector<std::vector<size_t>> options(num_groups);
  size_t total = 1;
  for (size_t g = 0; g < num_groups; ++g) {
    for (size_t m = 0; m < pool.size(); ++m) {
      if (pool.Applicable(m, g)) options[g].push_back(m);
    }
    if (options[g].empty()) {
      return Status::FailedPrecondition(
          "no applicable model for group " + std::to_string(g));
    }
    if (total > max_combinations / options[g].size()) {
      return Status::OutOfRange("combination count exceeds limit");
    }
    total *= options[g].size();
  }

  std::vector<ModelCombination> combos;
  combos.reserve(total);
  ModelCombination current(num_groups, 0);
  // Odometer enumeration over the per-group option lists.
  std::vector<size_t> cursor(num_groups, 0);
  while (true) {
    for (size_t g = 0; g < num_groups; ++g) {
      current[g] = options[g][cursor[g]];
    }
    combos.push_back(current);
    size_t g = 0;
    while (g < num_groups && ++cursor[g] == options[g].size()) {
      cursor[g] = 0;
      ++g;
    }
    if (g == num_groups) break;
  }
  return combos;
}

}  // namespace falcc
