#include "ml/grid_search.h"

#include <algorithm>
#include <numeric>

#include "data/feature_columns.h"
#include "fairness/diversity.h"
#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/knn_classifier.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "util/parallel.h"

namespace falcc {

namespace {

// Builds and fits one grid cell against the shared presorted column
// cache: the per-dataset feature sort is paid once for the whole grid,
// not once per cell (or worse, once per boosting round).
Result<std::unique_ptr<Classifier>> TrainCandidate(
    const FeatureColumns& columns, TrainerFamily family, size_t estimators,
    size_t depth, SplitCriterion criterion, uint64_t seed) {
  DecisionTreeOptions base;
  base.max_depth = depth;
  base.criterion = criterion;
  base.seed = seed;
  if (family == TrainerFamily::kAdaBoost) {
    AdaBoostOptions opt;
    opt.num_estimators = estimators;
    opt.base = base;
    auto model = std::make_unique<AdaBoost>(opt);
    FALCC_RETURN_IF_ERROR(model->Fit(columns));
    return std::unique_ptr<Classifier>(std::move(model));
  }
  RandomForestOptions opt;
  opt.num_trees = estimators;
  opt.base = base;
  opt.seed = seed;
  auto model = std::make_unique<RandomForest>(opt);
  FALCC_RETURN_IF_ERROR(model->Fit(columns));
  return std::unique_ptr<Classifier>(std::move(model));
}

}  // namespace

Result<DiversePool> TrainDiversePool(const Dataset& train,
                                     const Dataset& validation,
                                     const DiverseTrainerOptions& options) {
  if (options.pool_size == 0) {
    return Status::InvalidArgument("pool_size must be positive");
  }
  std::vector<SplitCriterion> criteria;
  if (options.try_gini) criteria.push_back(SplitCriterion::kGini);
  if (options.try_entropy) criteria.push_back(SplitCriterion::kEntropy);
  if (criteria.empty() || options.estimator_grid.empty() ||
      options.depth_grid.empty()) {
    return Status::InvalidArgument("hyperparameter grid is empty");
  }
  if (validation.num_rows() == 0) {
    return Status::InvalidArgument("validation data is empty");
  }

  // Enumerate the grid up front: every candidate gets a seed derived from
  // its grid position (options.seed + flat index), so training order —
  // and thus thread count — cannot affect any candidate's randomness.
  struct GridPoint {
    size_t estimators;
    size_t depth;
    SplitCriterion criterion;
    uint64_t seed;
  };
  std::vector<GridPoint> grid;
  uint64_t seed = options.seed;
  for (size_t estimators : options.estimator_grid) {
    for (size_t depth : options.depth_grid) {
      for (SplitCriterion criterion : criteria) {
        grid.push_back({estimators, depth, criterion, seed++});
      }
    }
  }

  // Train every grid configuration and collect validation votes. Fits are
  // independent; results land in slots indexed by grid position. All
  // cells share one presorted column cache of the training data. Cells
  // are claimed largest first (estimators × depth, descending, ties in
  // grid order), so the longest fits do not start last and leave the
  // other threads idle at the end.
  std::vector<size_t> claim_order(grid.size());
  std::iota(claim_order.begin(), claim_order.end(), size_t{0});
  std::stable_sort(claim_order.begin(), claim_order.end(),
                   [&](size_t a, size_t b) {
                     return grid[a].estimators * grid[a].depth >
                            grid[b].estimators * grid[b].depth;
                   });
  const FeatureColumns columns(train);
  std::vector<std::unique_ptr<Classifier>> candidates(grid.size());
  std::vector<std::vector<int>> votes(grid.size());
  std::vector<double> accuracies(grid.size(), 0.0);
  std::vector<Status> fit_status(grid.size());
  ParallelFor(0, grid.size(), 1,
              [&](size_t /*chunk*/, size_t lo, size_t hi) {
                for (size_t k = lo; k < hi; ++k) {
                  const size_t i = claim_order[k];
                  const GridPoint& p = grid[i];
                  Result<std::unique_ptr<Classifier>> model = TrainCandidate(
                      columns, options.family, p.estimators, p.depth,
                      p.criterion, p.seed);
                  fit_status[i] = model.status();
                  if (!fit_status[i].ok()) continue;
                  candidates[i] = std::move(model).value();
                  votes[i] = PredictAll(*candidates[i], validation);
                  accuracies[i] = Accuracy(*candidates[i], validation);
                }
              });
  for (const Status& status : fit_status) {
    FALCC_RETURN_IF_ERROR(status);
  }

  // Greedy forward selection maximizing pool entropy, seeded with the
  // most accurate candidate (quality anchor, then diversify around it).
  // Candidates far below the anchor's accuracy are excluded up front.
  const size_t target =
      std::min(options.pool_size, candidates.size());
  std::vector<size_t> selected;
  std::vector<bool> used(candidates.size(), false);
  {
    size_t best = 0;
    for (size_t i = 1; i < candidates.size(); ++i) {
      if (accuracies[i] > accuracies[best]) best = i;
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (accuracies[i] + options.accuracy_tolerance < accuracies[best]) {
        used[i] = true;  // pruned: never selected
      }
    }
    selected.push_back(best);
    used[best] = true;
  }
  while (selected.size() < target) {
    double best_entropy = -1.0;
    size_t best_idx = candidates.size();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      std::vector<std::vector<int>> trial;
      trial.reserve(selected.size() + 1);
      for (size_t s : selected) trial.push_back(votes[s]);
      trial.push_back(votes[i]);
      Result<double> entropy = EnsembleEntropy(trial);
      if (!entropy.ok()) return entropy.status();
      // Ties broken toward higher accuracy.
      if (entropy.value() > best_entropy + 1e-12 ||
          (entropy.value() > best_entropy - 1e-12 &&
           best_idx < candidates.size() &&
           accuracies[i] > accuracies[best_idx])) {
        best_entropy = entropy.value();
        best_idx = i;
      }
    }
    if (best_idx >= candidates.size()) break;
    selected.push_back(best_idx);
    used[best_idx] = true;
  }

  // Pruned candidates are never backfilled: a pool smaller than
  // pool_size made of competent models beats a full pool padded with
  // weak ones (the per-cluster assessment would otherwise trade real
  // accuracy for validation-noise fairness).

  DiversePool pool;
  std::vector<std::vector<int>> selected_votes;
  for (size_t s : selected) {
    pool.models.push_back(std::move(candidates[s]));
    selected_votes.push_back(std::move(votes[s]));
  }
  Result<double> entropy = EnsembleEntropy(selected_votes);
  if (!entropy.ok()) return entropy.status();
  pool.entropy = entropy.value();
  return pool;
}

Result<std::vector<std::unique_ptr<Classifier>>> TrainStandardPool(
    const Dataset& train, uint64_t seed) {
  std::vector<std::unique_ptr<Classifier>> pool;

  // The two trees share one presorted column cache; the remaining
  // classifiers do not sort and fit on the dataset directly.
  const FeatureColumns columns(train);

  DecisionTreeOptions dt1;
  dt1.max_depth = 7;
  dt1.criterion = SplitCriterion::kGini;
  dt1.seed = seed;
  auto tree1 = std::make_unique<DecisionTree>(dt1);
  FALCC_RETURN_IF_ERROR(tree1->Fit(columns));
  pool.push_back(std::move(tree1));

  DecisionTreeOptions dt2;
  dt2.max_depth = 4;
  dt2.criterion = SplitCriterion::kEntropy;
  dt2.seed = seed + 1;
  auto tree2 = std::make_unique<DecisionTree>(dt2);
  FALCC_RETURN_IF_ERROR(tree2->Fit(columns));
  pool.push_back(std::move(tree2));

  pool.push_back(std::make_unique<LogisticRegression>());
  pool.push_back(std::make_unique<GaussianNaiveBayes>());
  pool.push_back(std::make_unique<KnnClassifier>());

  for (size_t m = 2; m < pool.size(); ++m) {
    FALCC_RETURN_IF_ERROR(pool[m]->Fit(train));
  }
  return pool;
}

}  // namespace falcc
