// Tests of the compiled flat-node inference kernels: bit-identity with
// the interpreted prediction path for every lowerable model family
// (including block-edge batch sizes and the one-row walk), the 16-byte
// node layout and the validation the mmap path relies on, the per-model
// compiled pool with an interpreted fallback model, bit-identity on the
// checked-in golden models, and classify-during-delta-hot-swap
// concurrency (the TSan target in tools/check.sh).

#include "ml/compiled_ensemble.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/falcc.h"
#include "core/model_pool.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "serve/engine.h"

namespace falcc {
namespace {

Dataset MakeData(size_t n = 400, uint64_t seed = 9) {
  SyntheticConfig config;
  config.num_samples = n;
  config.seed = seed;
  return GenerateImplicitBias(config).value();
}

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

// Compiled and interpreted probabilities over `rows` must be equal as
// doubles — not approximately: the kernel contract is bit-identity.
void ExpectBitIdentical(const Classifier& model, const CompiledEnsemble& kernel,
                        const Dataset& data, std::span<const size_t> rows) {
  std::vector<double> interpreted(rows.size());
  std::vector<double> compiled(rows.size());
  model.PredictProbaBatch(data, rows, interpreted);
  kernel.PredictProbaBatch(data, rows, compiled);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(interpreted[i], compiled[i]) << "row " << rows[i];
  }
}

// Every batch size around the row-block boundary (the kernel processes
// rows in fixed-size blocks) plus a full pass.
void CheckAllBlockEdges(const Classifier& model, const Dataset& data) {
  const Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  const std::vector<size_t> all = AllRows(data.num_rows());
  for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
                   size_t{31}, size_t{32}, size_t{33}, data.num_rows()}) {
    ExpectBitIdentical(model, kernel.value(), data,
                       std::span<const size_t>(all).subspan(0, n));
  }
}

TEST(CompiledEnsembleTest, DecisionTreeBitIdentity) {
  const Dataset data = MakeData();
  DecisionTreeOptions options;
  options.max_depth = 12;
  DecisionTree tree(options);
  ASSERT_TRUE(tree.Fit(data).ok());
  CheckAllBlockEdges(tree, data);
}

TEST(CompiledEnsembleTest, StumpAndConstantTreeBitIdentity) {
  const Dataset data = MakeData(200, 3);
  DecisionTreeOptions options;
  options.max_depth = 1;
  DecisionTree stump(options);
  ASSERT_TRUE(stump.Fit(data).ok());
  CheckAllBlockEdges(stump, data);

  // A dataset with one constant label trains a root-only tree — the
  // zero-step walk must still land on the (root) leaf.
  Dataset constant = MakeData(64, 4);
  for (size_t i = 0; i < constant.num_rows(); ++i) constant.SetLabel(i, 1);
  DecisionTree leaf_only(options);
  ASSERT_TRUE(leaf_only.Fit(constant).ok());
  CheckAllBlockEdges(leaf_only, constant);
}

TEST(CompiledEnsembleTest, AdaBoostBitIdentity) {
  const Dataset data = MakeData();
  AdaBoostOptions deep;
  deep.num_estimators = 40;
  deep.base.max_depth = 8;
  AdaBoost boosted(deep);
  ASSERT_TRUE(boosted.Fit(data).ok());
  CheckAllBlockEdges(boosted, data);

  AdaBoostOptions shallow;
  shallow.num_estimators = 20;
  shallow.base.max_depth = 4;
  AdaBoost stumps(shallow);
  ASSERT_TRUE(stumps.Fit(data).ok());
  CheckAllBlockEdges(stumps, data);
}

TEST(CompiledEnsembleTest, RandomForestBitIdentity) {
  const Dataset data = MakeData();
  RandomForestOptions options;
  options.num_trees = 40;
  options.base.max_depth = 10;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(data).ok());
  CheckAllBlockEdges(forest, data);
}

TEST(CompiledEnsembleTest, NonLowerableModelsFailPrecondition) {
  const Dataset data = MakeData(200, 5);
  LogisticRegression logistic;
  ASSERT_TRUE(logistic.Fit(data).ok());
  const Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(logistic);
  EXPECT_FALSE(kernel.ok());
  EXPECT_EQ(kernel.status().code(), StatusCode::kFailedPrecondition);
}

// --- Layout and the mmap validation contract ---------------------------

// Every node is one 16-byte record; an interior node's children are the
// adjacent pair (left, left + 1) after it, and a leaf loops back to
// itself through a +inf threshold.
TEST(CompiledLayoutTest, SixteenByteNodesWithAdjacentChildren) {
  const Dataset data = MakeData();
  DecisionTreeOptions options;
  options.max_depth = 10;
  DecisionTree tree(options);
  ASSERT_TRUE(tree.Fit(data).ok());
  const Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(tree);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  const CompiledEnsemble::Parts& parts = kernel.value().parts();
  ASSERT_EQ(parts.nodes.size(), tree.nodes().size());
  size_t leaves = 0;
  for (size_t i = 0; i < parts.nodes.size(); ++i) {
    const FlatNode& node = parts.nodes[i];
    if (node.left == i) {
      ++leaves;
      EXPECT_EQ(node.threshold, std::numeric_limits<double>::infinity());
      EXPECT_EQ(node.feature, 0);
    } else {
      EXPECT_GT(node.left, i);
      EXPECT_LT(node.left + 1, parts.nodes.size());
      EXPECT_EQ(parts.leaf_proba[i], 0.0);
    }
  }
  EXPECT_GT(leaves, 1u);
  EXPECT_EQ(kernel.value().table_bytes(), parts.nodes.size() * 24);
}

// A subtree reachable from two parents cannot keep a sibling adjacent to
// both: lowering rejects it instead of expanding it.
TEST(CompiledLayoutTest, SharedSubtreeIsRejected) {
  std::vector<TreeNode> nodes(4);
  nodes[0] = {0, 0.5, 1, 2, 0.5};
  nodes[1] = {1, 0.5, 3, 3, 0.5};  // both children are node 3
  nodes[2].proba = 0.25;
  nodes[3].proba = 0.75;
  const DecisionTree dag = DecisionTree::FromParts({}, nodes, 2);
  const Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(dag);
  ASSERT_FALSE(kernel.ok());
  EXPECT_EQ(kernel.status().code(), StatusCode::kInternal);
}

// View accepts exactly what Compile produces and rejects every field
// whose corruption could read out of bounds, loop, or yield a
// probability outside [0, 1].
TEST(CompiledLayoutTest, ViewValidatesEveryField) {
  const Dataset data = MakeData(300, 8);
  AdaBoostOptions boost;
  boost.num_estimators = 6;
  boost.base.max_depth = 4;
  AdaBoost model(boost);
  ASSERT_TRUE(model.Fit(data).ok());
  const CompiledEnsemble kernel = CompiledEnsemble::Compile(model).value();
  const CompiledEnsemble::Parts& good = kernel.parts();
  const size_t width = data.num_features();

  const Result<CompiledEnsemble> viewed =
      CompiledEnsemble::View(good, width, nullptr);
  ASSERT_TRUE(viewed.ok()) << viewed.status().ToString();
  ExpectBitIdentical(model, viewed.value(), data, AllRows(data.num_rows()));

  size_t interior = 0;
  size_t leaf = 0;
  while (good.nodes[interior].left == interior) ++interior;
  while (good.nodes[leaf].left != leaf) ++leaf;
  auto rejects = [&](auto mutate) {
    std::vector<FlatNode> nodes(good.nodes.begin(), good.nodes.end());
    std::vector<double> proba(good.leaf_proba.begin(), good.leaf_proba.end());
    std::vector<TreeRef> trees(good.trees.begin(), good.trees.end());
    std::vector<double> alphas(good.alphas.begin(), good.alphas.end());
    mutate(&nodes, &proba, &trees, &alphas);
    CompiledEnsemble::Parts parts = good;
    parts.nodes = nodes;
    parts.leaf_proba = proba;
    parts.trees = trees;
    parts.alphas = alphas;
    return !CompiledEnsemble::View(parts, width, nullptr).ok();
  };
  using Nodes = std::vector<FlatNode>*;
  using Doubles = std::vector<double>*;
  using Trees = std::vector<TreeRef>*;
  EXPECT_TRUE(rejects([&](Nodes n, Doubles, Trees, Doubles) {
    (*n)[interior].left = static_cast<uint32_t>(n->size() - 1);
  }));  // right child one past the end
  EXPECT_TRUE(rejects([&](Nodes n, Doubles, Trees, Doubles) {
    (*n)[leaf].left = static_cast<uint32_t>(leaf) - 1;
  }));  // backward edge
  EXPECT_TRUE(rejects([&](Nodes n, Doubles, Trees, Doubles) {
    (*n)[interior].feature = static_cast<int32_t>(width);
  }));
  EXPECT_TRUE(rejects([&](Nodes n, Doubles, Trees, Doubles) {
    (*n)[interior].threshold = std::nan("");
  }));
  EXPECT_TRUE(rejects([&](Nodes n, Doubles, Trees, Doubles) {
    (*n)[leaf].threshold = 1.0;
  }));  // a leaf that could step off itself
  EXPECT_TRUE(rejects([&](Nodes n, Doubles, Trees, Doubles) {
    (*n)[leaf].feature = 1;
  }));
  EXPECT_TRUE(rejects([&](Nodes, Doubles p, Trees, Doubles) {
    (*p)[leaf] = 1.5;
  }));
  EXPECT_TRUE(rejects([&](Nodes, Doubles p, Trees, Doubles) {
    (*p)[interior] = 0.5;
  }));
  EXPECT_TRUE(rejects([&](Nodes n, Doubles, Trees t, Doubles) {
    (*t)[0].root = static_cast<uint32_t>(n->size());
  }));
  EXPECT_TRUE(rejects([&](Nodes n, Doubles, Trees t, Doubles) {
    (*t)[0].steps = static_cast<uint32_t>(n->size()) + 1;
  }));
  EXPECT_TRUE(rejects([&](Nodes, Doubles, Trees, Doubles a) {
    (*a)[0] = std::numeric_limits<double>::infinity();
  }));
  EXPECT_TRUE(rejects([&](Nodes, Doubles, Trees t, Doubles a) {
    t->clear();
    a->clear();
  }));  // a forest of zero trees would divide by zero
}

// --- The compiled pool -------------------------------------------------

TrainValTest MakeSplits() {
  SyntheticConfig cfg;
  cfg.num_samples = 1500;
  cfg.seed = 7;
  const Dataset d = GenerateImplicitBias(cfg).value();
  return SplitDatasetDefault(d, 11).value();
}

FalccOptions FastOptions() {
  FalccOptions opt;
  opt.seed = 42;
  opt.trainer.estimator_grid = {5};
  opt.trainer.depth_grid = {1, 4};
  opt.trainer.pool_size = 3;
  return opt;
}

std::vector<double> Flatten(const Dataset& data, size_t rows) {
  std::vector<double> flat;
  for (size_t i = 0; i < rows; ++i) {
    const auto row = data.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

// Each pool model compiles once into the pool every cluster serves from;
// a model that does not lower keeps an empty entry and its rows take the
// interpreted path. Whole decisions match the interpreted path at every
// batch size around the row-block boundary, with rows of both kinds
// interleaved in one batch.
TEST(CompiledPoolTest, PerModelKernelsWithInterpretedFallback) {
  const TrainValTest s = MakeSplits();
  ModelPool pool;
  AdaBoostOptions boost;
  boost.num_estimators = 12;
  boost.base.max_depth = 6;
  auto boosted = std::make_unique<AdaBoost>(boost);
  ASSERT_TRUE(boosted->Fit(s.train).ok());
  auto logistic = std::make_unique<LogisticRegression>();
  ASSERT_TRUE(logistic->Fit(s.train).ok());
  RandomForestOptions forest_options;
  forest_options.num_trees = 8;
  auto forest = std::make_unique<RandomForest>(forest_options);
  ASSERT_TRUE(forest->Fit(s.train).ok());
  pool.Add(std::move(boosted));
  pool.Add(std::move(logistic));
  pool.Add(std::move(forest));

  FalccOptions options = FastOptions();
  options.fixed_k = 3;
  FalccModel trained =
      FalccModel::TrainWithPool(std::move(pool), s.validation, options)
          .value();
  ASSERT_GE(trained.num_groups(), 2u);
  // Route group 0 of every cluster through the logistic model so the
  // fallback path carries real traffic next to the kernels.
  std::vector<ClusterRefresh> refreshes;
  for (size_t c = 0; c < trained.num_clusters(); ++c) {
    ClusterRefresh refresh;
    refresh.cluster = c;
    refresh.combination.assign(trained.num_groups(), c % 2 == 0 ? 0 : 2);
    refresh.combination[0] = 1;
    refresh.baseline_loss = 0.0;
    refreshes.push_back(refresh);
  }
  FalccModel model = trained.CloneWithRefreshes(refreshes).value();

  ASSERT_TRUE(model.has_compiled_kernels());
  const CompiledPool& kernels = *model.compiled_pool();
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_TRUE(kernels[0].has_value());
  EXPECT_FALSE(kernels[1].has_value());  // logistic: interpreted
  EXPECT_TRUE(kernels[2].has_value());
  EXPECT_EQ(kernels[0]->kind(), EnsembleKind::kAdaBoost);
  EXPECT_EQ(kernels[2]->kind(), EnsembleKind::kForest);

  FalccModel interpreted = trained.CloneWithRefreshes(refreshes).value();
  interpreted.set_use_compiled(false);
  const size_t width = s.test.num_features();
  for (size_t n : {size_t{1}, size_t{15}, size_t{16}, size_t{17},
                   size_t{31}, size_t{32}, size_t{33}, size_t{200}}) {
    SCOPED_TRACE(n);
    const std::vector<double> flat = Flatten(s.test, n);
    const ClassifyRequest request{flat, width};
    const ClassifyResponse a = model.ClassifyBatch(request).value();
    const ClassifyResponse b = interpreted.ClassifyBatch(request).value();
    ASSERT_EQ(a.decisions.size(), n);
    std::set<size_t> models;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(a.decisions[i].probability, b.decisions[i].probability) << i;
      EXPECT_EQ(a.decisions[i].label, b.decisions[i].label) << i;
      EXPECT_EQ(a.decisions[i].model, b.decisions[i].model) << i;
      models.insert(a.decisions[i].model);
    }
    if (n == 200) {
      EXPECT_GE(models.size(), 2u);
    }
  }
}

// The deserializer accepts a tree whose nodes share a subtree (it only
// requires forward children), but such a tree has no 16-byte layout. A
// snapshot carrying one still loads through every path: that model
// serves interpreted, the rest of the pool from kernels.
TEST(CompiledPoolTest, SharedSubtreeModelLoadsAndServesInterpreted) {
  const TrainValTest s = MakeSplits();
  std::vector<TreeNode> nodes(4);
  nodes[0] = {0, s.train.Row(0)[0], 1, 2, 0.5};
  nodes[1] = {1, s.train.Row(0)[1], 3, 3, 0.5};  // both children: node 3
  nodes[2].proba = 0.25;
  nodes[3].proba = 0.75;
  AdaBoostOptions boost;
  boost.num_estimators = 6;
  boost.base.max_depth = 4;
  auto boosted = std::make_unique<AdaBoost>(boost);
  ASSERT_TRUE(boosted->Fit(s.train).ok());
  ModelPool pool;
  pool.Add(std::move(boosted));
  pool.Add(std::make_unique<DecisionTree>(
      DecisionTree::FromParts({}, std::move(nodes), 2)));

  FalccOptions options = FastOptions();
  options.fixed_k = 3;
  const FalccModel trained =
      FalccModel::TrainWithPool(std::move(pool), s.validation, options)
          .value();
  std::vector<ClusterRefresh> refreshes;
  for (size_t c = 0; c < trained.num_clusters(); ++c) {
    ClusterRefresh refresh;
    refresh.cluster = c;
    refresh.combination.assign(trained.num_groups(), 0);
    refresh.combination[0] = 1;  // group 0 → the shared-subtree tree
    refresh.baseline_loss = 0.0;
    refreshes.push_back(refresh);
  }
  FalccModel model = trained.CloneWithRefreshes(refreshes).value();
  model.set_use_compiled(false);
  const size_t n = 200;
  const std::vector<double> flat = Flatten(s.test, n);
  const ClassifyRequest request{flat, s.test.num_features()};
  const ClassifyResponse reference = model.ClassifyBatch(request).value();
  size_t dag_rows = 0;
  for (const SampleDecision& d : reference.decisions) {
    dag_rows += d.model == 1 ? 1 : 0;
  }
  ASSERT_GT(dag_rows, 0u);
  ASSERT_LT(dag_rows, n);
  model.set_use_compiled(true);

  auto expect_serves = [&](const Result<FalccModel>& loaded) {
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(loaded.value().has_compiled_kernels());
    const CompiledPool& kernels = *loaded.value().compiled_pool();
    ASSERT_EQ(kernels.size(), 2u);
    EXPECT_TRUE(kernels[0].has_value());
    EXPECT_FALSE(kernels[1].has_value());
    const ClassifyResponse got =
        loaded.value().ClassifyBatch(request).value();
    ASSERT_EQ(got.decisions.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got.decisions[i].probability,
                reference.decisions[i].probability) << i;
      EXPECT_EQ(got.decisions[i].model, reference.decisions[i].model) << i;
    }
  };
  for (SnapshotFormat format : {SnapshotFormat::kV1, SnapshotFormat::kV2}) {
    std::ostringstream out;
    ASSERT_TRUE(model.Save(&out, format).ok());
    std::istringstream in(out.str());
    expect_serves(FalccModel::Load(&in));
  }
  const std::string path = ::testing::TempDir() + "/falcc-shared-subtree.falcc";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  expect_serves(FalccModel::LoadMapped(path));
  std::remove(path.c_str());
}

// --- Golden models -----------------------------------------------------

// The checked-in reference models (tests/golden/) pin the trainers'
// exact behaviour; the compiled kernels must reproduce each of them bit
// for bit on a deterministic probe grid.
TEST(CompiledGoldenTest, GoldenModelsCompileBitIdentical) {
  const std::string kGolden[] = {
      "adaboost_weighted.txt",      "random_forest_bootstrap.txt",
      "tree_entropy_weighted.txt",  "tree_gini_duplicates.txt",
      "tree_max_features.txt",      "tree_min_leaf.txt",
  };
  for (const std::string& name : kGolden) {
    SCOPED_TRACE(name);
    std::ifstream in(std::string(FALCC_GOLDEN_DIR) + "/" + name);
    ASSERT_TRUE(in.good()) << "missing golden file";
    Result<std::unique_ptr<Classifier>> model = DeserializeClassifier(&in);
    ASSERT_TRUE(model.ok()) << model.status().ToString();

    // Recover the model's input width by probing the validator.
    size_t width = 0;
    for (size_t w = 1; w <= 64; ++w) {
      if (model.value()->ValidateForWidth(w).ok()) {
        width = w;
        break;
      }
    }
    ASSERT_GT(width, 0u) << "no width in 1..64 validates";

    // Deterministic probe grid crossing the row-block boundary.
    const size_t n = 45;
    std::vector<double> features(n * width);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < width; ++j) {
        features[i * width + j] =
            static_cast<double>((i * 7 + j * 3) % 23) * 0.25 - 2.0;
      }
    }
    std::vector<std::string> names(width);
    for (size_t j = 0; j < width; ++j) names[j] = "f" + std::to_string(j);
    const Dataset probe =
        Dataset::Create(std::move(names), std::move(features), width,
                        std::vector<int>(n, 0), {})
            .value();
    CheckAllBlockEdges(*model.value(), probe);
  }
}

// --- Concurrency (TSan target) -----------------------------------------

// Readers classify continuously while the main thread hot-swaps the
// engine's snapshot: delta applies that flip cluster 0 between two
// combinations (sharing the compiled pool, compiling nothing), and full
// installs of models whose kernels were dropped (forcing Install's
// compile-before-publish path). Under TSan this is the "concurrent
// classify during hot-swap" check.
TEST(CompiledConcurrencyTest, ClassifyDuringDeltaHotSwap) {
  const TrainValTest s = MakeSplits();
  FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  ASSERT_TRUE(model.EnsureManifest().ok());
  std::ostringstream buffer;
  ASSERT_TRUE(model.Save(&buffer).ok());
  const std::string bytes = buffer.str();

  // Two deltas that undo each other: A → B re-picks cluster 0's model
  // for group 0, B → A restores it.
  ClusterRefresh forward;
  forward.cluster = 0;
  forward.combination = model.selected_combinations()[0];
  forward.combination[0] = (forward.combination[0] + 1) % model.pool().size();
  forward.baseline_loss = model.baseline_losses()[0];
  ClusterRefresh back = forward;
  back.combination = model.selected_combinations()[0];
  const FalccModel refreshed = model.CloneWithRefreshes({&forward, 1}).value();
  const size_t clusters[] = {0};
  std::ostringstream to_b, to_a;
  ASSERT_TRUE(refreshed
                  .SaveDelta(&to_b, clusters, model.ContentHash().value())
                  .ok());
  ASSERT_TRUE(model.CloneWithRefreshes({&back, 1})
                  .value()
                  .SaveDelta(&to_a, clusters, refreshed.ContentHash().value())
                  .ok());

  serve::FalccEngine engine;
  engine.Install(std::move(model));

  const size_t width = s.test.num_features();
  const std::vector<double> batch = Flatten(s.test, 64);
  ClassifyRequest request{batch, width};

  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const Result<ClassifyResponse> response = engine.ClassifyBatch(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      served.fetch_add(response.value().decisions.size(),
                       std::memory_order_relaxed);
    }
  });

  for (int swap = 0; swap < 8; ++swap) {
    const std::shared_ptr<const CompiledPool> kernels =
        engine.snapshot()->compiled_pool();
    ASSERT_TRUE(engine.ApplyDeltaBytes(to_b.str()).ok());
    ASSERT_TRUE(engine.ApplyDeltaBytes(to_a.str()).ok());
    EXPECT_EQ(engine.snapshot()->compiled_pool(), kernels);

    std::istringstream in(bytes);
    FalccModel next = FalccModel::Load(&in).value();
    next.ClearCompiledKernels();  // force Install to recompile
    engine.Install(std::move(next));
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(served.load(), 0u);
  EXPECT_TRUE(engine.snapshot()->has_compiled_kernels());
  EXPECT_GE(engine.GetMetrics().compile.count, 8u);
}

}  // namespace
}  // namespace falcc
