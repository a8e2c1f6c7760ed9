// Diverse model training (paper §3.3).
//
// Trains candidate ensembles over the paper's hyperparameter grid
// (number of estimators ∈ {5, 20}, tree depth ∈ {1, 7}, split criterion ∈
// {gini, entropy}; AdaBoost by default, Random Forest as the bagging
// alternative) and selects a pool of the requested size that maximizes
// non-pairwise entropy diversity on held-out data, greedily, starting
// from the most accurate candidate.

#ifndef FALCC_ML_GRID_SEARCH_H_
#define FALCC_ML_GRID_SEARCH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ml/adaboost.h"

namespace falcc {

/// Which ensemble family the grid instantiates.
enum class TrainerFamily { kAdaBoost, kRandomForest };

/// Options of the diverse trainer. Defaults are the paper's grid.
struct DiverseTrainerOptions {
  TrainerFamily family = TrainerFamily::kAdaBoost;
  size_t pool_size = 5;
  std::vector<size_t> estimator_grid = {5, 20};
  std::vector<size_t> depth_grid = {1, 7};
  bool try_gini = true;
  bool try_entropy = true;
  /// Candidates whose validation accuracy trails the best candidate by
  /// more than this are excluded before the diversity selection —
  /// diversity should come from competent models disagreeing, not from
  /// adding weak ones.
  double accuracy_tolerance = 0.04;
  /// Additionally train one ensemble per sensitive group on that group's
  /// partition of the training data (paper §3.1: split training "may
  /// improve accuracy and/or fairness"). Those models only apply to
  /// their group; see TrainDiverseSplitPool.
  bool split_by_group = false;
  /// Minimum partition size for a per-group model to be trained.
  size_t min_group_rows = 30;
  uint64_t seed = 1;
};

/// A trained pool plus its measured diversity.
struct DiversePool {
  std::vector<std::unique_ptr<Classifier>> models;
  double entropy = 0.0;  ///< non-pairwise entropy of the selected pool
};

/// Trains the grid on `train`, evaluates votes on `validation`, and
/// greedily selects `pool_size` models maximizing ensemble entropy.
/// Fails if the grid is empty or training data is unusable.
Result<DiversePool> TrainDiversePool(const Dataset& train,
                                     const Dataset& validation,
                                     const DiverseTrainerOptions& options = {});

/// Fits one AdaBoost model per entry of `cells` against the shared
/// presorted column cache and returns them in `cells` order, each
/// byte-identical to AdaBoost(cells[i]).Fit(columns). Cells that share
/// their rounds (AdaBoost::SharesRounds) are boosted once, up to their
/// largest estimator count, and each takes its prefix of that run
/// (AdaBoost::Prefix). Runs are claimed largest first (estimators ×
/// depth) on ParallelFor. Fails as AdaBoost::Fit does.
Result<std::vector<std::unique_ptr<Classifier>>> FitAdaBoostGrid(
    const FeatureColumns& columns, std::span<const AdaBoostOptions> cells);

/// The five "standard classifiers" the paper hands to Decouple/FALCES:
/// a depth-7 gini decision tree, a depth-4 entropy decision tree,
/// logistic regression, Gaussian naive Bayes, and 15-NN. All are trained
/// on `train`.
Result<std::vector<std::unique_ptr<Classifier>>> TrainStandardPool(
    const Dataset& train, uint64_t seed);

}  // namespace falcc

#endif  // FALCC_ML_GRID_SEARCH_H_
