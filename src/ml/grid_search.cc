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

// Runs fit(i) for every entry of `cells` on ParallelFor, claimed largest
// first (estimators × depth, descending, ties in position order) so the
// longest fits do not start last and leave the other threads idle at the
// end. Returns the first failure in position order.
template <typename Fit>
Status FitLargestFirst(std::span<const AdaBoostOptions> cells, Fit&& fit) {
  const auto cost = [&](size_t i) {
    return cells[i].num_estimators * cells[i].base.max_depth;
  };
  std::vector<size_t> order(cells.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return cost(a) > cost(b); });
  std::vector<Status> status(cells.size());
  ParallelFor(0, cells.size(), 1, [&](size_t /*chunk*/, size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) status[order[k]] = fit(order[k]);
  });
  for (const Status& s : status) FALCC_RETURN_IF_ERROR(s);
  return Status::OK();
}

}  // namespace

Result<std::vector<std::unique_ptr<Classifier>>> FitAdaBoostGrid(
    const FeatureColumns& columns, std::span<const AdaBoostOptions> cells) {
  // One run per group of cells that share their rounds, boosted to the
  // group's largest estimator count.
  std::vector<AdaBoostOptions> runs;
  std::vector<size_t> run_of(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].num_estimators == 0) {
      return Status::InvalidArgument("AdaBoost: num_estimators must be > 0");
    }
    size_t r = 0;
    while (r < runs.size() && !AdaBoost::SharesRounds(runs[r], cells[i])) ++r;
    if (r == runs.size()) runs.push_back(cells[i]);
    runs[r].num_estimators =
        std::max(runs[r].num_estimators, cells[i].num_estimators);
    run_of[i] = r;
  }
  std::vector<AdaBoost> fitted(runs.begin(), runs.end());
  FALCC_RETURN_IF_ERROR(FitLargestFirst(
      runs, [&](size_t r) { return fitted[r].Fit(columns); }));

  std::vector<std::unique_ptr<Classifier>> models;
  models.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    models.push_back(
        std::make_unique<AdaBoost>(fitted[run_of[i]].Prefix(cells[i])));
  }
  return models;
}

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
  // The forest family reads the same fields.
  std::vector<AdaBoostOptions> cells;
  uint64_t seed = options.seed;
  for (size_t estimators : options.estimator_grid) {
    for (size_t depth : options.depth_grid) {
      for (SplitCriterion criterion : criteria) {
        AdaBoostOptions cell;
        cell.num_estimators = estimators;
        cell.base.max_depth = depth;
        cell.base.criterion = criterion;
        cell.base.seed = seed++;
        cells.push_back(cell);
      }
    }
  }

  // Train every grid configuration against one presorted column cache of
  // the training data, then collect validation votes. Results land in
  // slots indexed by grid position.
  const FeatureColumns columns(train);
  std::vector<std::unique_ptr<Classifier>> candidates(cells.size());
  if (options.family == TrainerFamily::kAdaBoost) {
    Result<std::vector<std::unique_ptr<Classifier>>> fitted =
        FitAdaBoostGrid(columns, cells);
    if (!fitted.ok()) return fitted.status();
    candidates = std::move(fitted).value();
  } else {
    // A forest's trees depend on its seed: one fit per cell.
    FALCC_RETURN_IF_ERROR(FitLargestFirst(cells, [&](size_t i) {
      RandomForestOptions opt;
      opt.num_trees = cells[i].num_estimators;
      opt.base = cells[i].base;
      opt.seed = cells[i].base.seed;
      auto forest = std::make_unique<RandomForest>(opt);
      const Status status = forest->Fit(columns);
      candidates[i] = std::move(forest);
      return status;
    }));
  }
  std::vector<std::vector<int>> votes(candidates.size());
  std::vector<double> accuracies(candidates.size(), 0.0);
  const size_t n = validation.num_rows();
  ParallelFor(0, candidates.size(), 1,
              [&](size_t /*chunk*/, size_t lo, size_t hi) {
                for (size_t i = lo; i < hi; ++i) {
                  votes[i] = PredictAll(*candidates[i], validation);
                  size_t correct = 0;
                  for (size_t row = 0; row < n; ++row) {
                    if (votes[i][row] == validation.Label(row)) ++correct;
                  }
                  accuracies[i] =
                      static_cast<double>(correct) / static_cast<double>(n);
                }
              });

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
