// Before-vs-after microbenchmark of the presorted column-cache split
// engine (ml/tree_builder.h) against the frozen seed trainer
// (ml/reference_trainer.h), plus batched vs per-row inference.
//
// Cases, each timed at 1 and 4 threads (median of --reps runs):
//
//  * tree_fit        — one depth-7 gini tree on the full dataset
//  * adaboost_fit    — the heaviest grid cell (T=20, depth 7)
//  * random_forest_fit — B=20, depth 7, sqrt feature subsampling
//  * adaboost_grid_fit — all 8 cells of the paper's AdaBoost grid
//    (estimators {5,20} x depth {1,7} x {gini,entropy}): the engine side
//    is TrainDiversePool's own FitAdaBoostGrid (ml/grid_search.h: one
//    shared column cache, one boosting run per (depth, criterion) claimed
//    largest first, each cell cut from its run as a prefix); the
//    reference side fits every cell on its own in a ParallelFor, in grid
//    order. Its model_identical check is the oracle for prefix identity.
//  * batch_predict   — AdaBoost inference over the whole dataset,
//    per-row virtual dispatch vs PredictProbaBatch
//
// Every case also asserts the engine's models serialize byte-identically
// to the seed trainer's and predict identically on held-out data.
//
// A single-threaded split_gain_kernel case then times every pass-1 kernel
// variant this CPU runs (SplitGainKernels: baseline, avx2, avx512f) in
// ns per threshold for both criteria, and checks each variant's output
// bit for bit against the baseline's over node weights 1 down to 1e-300.
//
// The binary exits non-zero on any mismatch. Results go to
// BENCH_train.json.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/feature_columns.h"
#include "datagen/synthetic.h"
#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/grid_search.h"
#include "ml/random_forest.h"
#include "ml/reference_trainer.h"
#include "ml/serialize.h"
#include "ml/tree_builder.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace falcc {
namespace {

struct CaseResult {
  std::string name;
  size_t threads = 1;
  double reference_seconds = 0.0;
  double engine_seconds = 0.0;
  bool model_identical = false;
  bool predictions_identical = false;
  double speedup() const {
    return engine_seconds > 0.0 ? reference_seconds / engine_seconds : 0.0;
  }
};

std::string Bytes(const Classifier& model) {
  std::ostringstream out;
  FALCC_CHECK(SerializeClassifier(model, &out).ok(),
              "bench: serialization failed");
  return out.str();
}

// Median wall-clock of `reps` runs of `fn`.
template <typename Fn>
double MedianSeconds(size_t reps, Fn&& fn) {
  std::vector<double> times(reps);
  for (size_t r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    times[r] = timer.ElapsedSeconds();
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// The paper's AdaBoost grid: estimators {5,20} x depth {1,7} x
// {gini,entropy}, seeded by flat index like TrainDiversePool.
std::vector<AdaBoostOptions> GridCells(uint64_t seed) {
  std::vector<AdaBoostOptions> cells;
  for (size_t estimators : {5, 20}) {
    for (size_t depth : {1, 7}) {
      for (SplitCriterion criterion :
           {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
        AdaBoostOptions opt;
        opt.num_estimators = estimators;
        opt.base.max_depth = depth;
        opt.base.criterion = criterion;
        opt.base.seed = seed++;
        cells.push_back(opt);
      }
    }
  }
  return cells;
}

// Runs one fit case: times reference vs engine, then checks byte and
// prediction identity of the two resulting model sets.
template <typename RefFit, typename EngineFit>
CaseResult RunFitCase(const std::string& name, size_t threads, size_t reps,
                      const Dataset& probe, RefFit&& reference_fit,
                      EngineFit&& engine_fit) {
  CaseResult result;
  result.name = name;
  result.threads = threads;
  result.reference_seconds = MedianSeconds(reps, [&] { reference_fit(); });
  result.engine_seconds = MedianSeconds(reps, [&] { engine_fit(); });

  const std::vector<std::unique_ptr<Classifier>> ref_models = reference_fit();
  const std::vector<std::unique_ptr<Classifier>> eng_models = engine_fit();
  FALCC_CHECK(ref_models.size() == eng_models.size(), "bench: model count");
  result.model_identical = true;
  result.predictions_identical = true;
  for (size_t m = 0; m < ref_models.size(); ++m) {
    if (Bytes(*ref_models[m]) != Bytes(*eng_models[m])) {
      result.model_identical = false;
    }
    if (PredictAll(*ref_models[m], probe) !=
        PredictAll(*eng_models[m], probe)) {
      result.predictions_identical = false;
    }
  }
  return result;
}

std::vector<CaseResult> RunAllCases(const Dataset& data, const Dataset& probe,
                                    size_t threads, size_t reps) {
  SetParallelism(threads);
  std::vector<CaseResult> results;

  DecisionTreeOptions tree_opt;
  tree_opt.max_depth = 7;
  results.push_back(RunFitCase(
      "tree_fit", threads, reps, probe,
      [&] {
        std::vector<std::unique_ptr<Classifier>> models;
        models.push_back(std::make_unique<DecisionTree>(
            reference::TrainTree(data, {}, tree_opt).value()));
        return models;
      },
      [&] {
        auto tree = std::make_unique<DecisionTree>(tree_opt);
        FALCC_CHECK(tree->Fit(data).ok(), "tree fit failed");
        std::vector<std::unique_ptr<Classifier>> models;
        models.push_back(std::move(tree));
        return models;
      }));

  AdaBoostOptions boost_opt;
  boost_opt.num_estimators = 20;
  boost_opt.base.max_depth = 7;
  results.push_back(RunFitCase(
      "adaboost_fit", threads, reps, probe,
      [&] {
        std::vector<std::unique_ptr<Classifier>> models;
        models.push_back(std::make_unique<AdaBoost>(
            reference::TrainAdaBoost(data, {}, boost_opt).value()));
        return models;
      },
      [&] {
        auto boost = std::make_unique<AdaBoost>(boost_opt);
        FALCC_CHECK(boost->Fit(data).ok(), "adaboost fit failed");
        std::vector<std::unique_ptr<Classifier>> models;
        models.push_back(std::move(boost));
        return models;
      }));

  RandomForestOptions forest_opt;
  forest_opt.num_trees = 20;
  forest_opt.base.max_depth = 7;
  results.push_back(RunFitCase(
      "random_forest_fit", threads, reps, probe,
      [&] {
        std::vector<std::unique_ptr<Classifier>> models;
        models.push_back(std::make_unique<RandomForest>(
            reference::TrainRandomForest(data, {}, forest_opt).value()));
        return models;
      },
      [&] {
        auto forest = std::make_unique<RandomForest>(forest_opt);
        FALCC_CHECK(forest->Fit(data).ok(), "forest fit failed");
        std::vector<std::unique_ptr<Classifier>> models;
        models.push_back(std::move(forest));
        return models;
      }));

  const std::vector<AdaBoostOptions> cells = GridCells(61);
  results.push_back(RunFitCase(
      "adaboost_grid_fit", threads, reps, probe,
      [&] {
        std::vector<std::unique_ptr<Classifier>> models(cells.size());
        ParallelFor(0, cells.size(), 1, [&](size_t, size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            models[i] = std::make_unique<AdaBoost>(
                reference::TrainAdaBoost(data, {}, cells[i]).value());
          }
        });
        return models;
      },
      [&] {
        // TrainDiversePool's own grid fit: one shared presorted cache, one
        // run per (depth, criterion), cut to each cell's estimator count.
        const FeatureColumns columns(data);
        return FitAdaBoostGrid(columns, cells).value();
      }));

  // Batched inference: per-row virtual dispatch (the seed PredictAll)
  // vs PredictProbaBatch through the current PredictAll.
  {
    AdaBoost model(boost_opt);
    FALCC_CHECK(model.Fit(data).ok(), "bench: inference model fit failed");
    CaseResult result;
    result.name = "batch_predict";
    result.threads = threads;
    std::vector<int> per_row(probe.num_rows());
    result.reference_seconds = MedianSeconds(reps, [&] {
      for (size_t i = 0; i < probe.num_rows(); ++i) {
        per_row[i] = model.Predict(probe.Row(i));
      }
    });
    std::vector<int> batched;
    result.engine_seconds =
        MedianSeconds(reps, [&] { batched = PredictAll(model, probe); });
    result.model_identical = true;  // same model on both sides
    result.predictions_identical = batched == per_row;
    results.push_back(result);
  }

  return results;
}

struct KernelResult {
  std::string variant;
  SplitCriterion criterion = SplitCriterion::kGini;
  double ns_per_threshold = 0.0;
  bool identical = false;
};

// One node's threshold prefix sums, as pass 1 hands them to the kernel:
// `count` rows with weights scale·(0.05 + U[0, 1)), ~40 % positive, one
// more row on the right of the last threshold, and every tenth threshold
// ruled out (wl = 0) as the scan does for equal neighbours.
struct KernelInput {
  SplitNode node;
  std::vector<double> wl;
  std::vector<double> wl_pos;
};

KernelInput MakeKernelInput(SplitCriterion criterion, double scale,
                            size_t count) {
  Rng rng(77);
  KernelInput input;
  input.wl.resize(count);
  input.wl_pos.resize(count);
  double w = 0.0;
  double pos = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const double weight = scale * (0.05 + rng.Uniform());
    w += weight;
    if (rng.Uniform() < 0.4) pos += weight;
    input.wl[i] = i % 10 == 9 ? 0.0 : w;
    input.wl_pos[i] = pos;
  }
  const double last = scale * 0.5;
  input.node = {w + last, pos,
                SplitImpurity(pos, w + last, criterion), criterion};
  return input;
}

// Times every kernel variant on both criteria and checks each against the
// baseline variant bit for bit, at node weights from 1 down to 1e-300.
std::vector<KernelResult> RunKernelCase(size_t reps) {
  constexpr size_t kCount = 4096;
  constexpr size_t kCalls = 2048;
  const std::span<const SplitGainKernel> kernels = SplitGainKernels();
  std::vector<KernelResult> results;
  for (SplitCriterion criterion :
       {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
    for (const SplitGainKernel& kernel : kernels) {
      KernelResult result;
      result.variant = kernel.name;
      result.criterion = criterion;
      result.identical = true;
      for (double scale : {1.0, 1e-20, 1e-150, 1e-300}) {
        const KernelInput input = MakeKernelInput(criterion, scale, kCount);
        std::vector<float> baseline(kCount);
        std::vector<float> out(kCount);
        kernels.front().fn(input.node, input.wl.data(), input.wl_pos.data(),
                           kCount, baseline.data());
        kernel.fn(input.node, input.wl.data(), input.wl_pos.data(), kCount,
                  out.data());
        for (size_t i = 0; i < kCount; ++i) {
          if (std::bit_cast<uint32_t>(out[i]) !=
              std::bit_cast<uint32_t>(baseline[i])) {
            result.identical = false;
          }
        }
      }
      const KernelInput input = MakeKernelInput(criterion, 1.0, kCount);
      std::vector<float> out(kCount);
      const double seconds = MedianSeconds(reps, [&] {
        for (size_t call = 0; call < kCalls; ++call) {
          kernel.fn(input.node, input.wl.data(), input.wl_pos.data(), kCount,
                    out.data());
        }
      });
      result.ns_per_threshold =
          seconds * 1e9 / static_cast<double>(kCalls * kCount);
      results.push_back(result);
    }
  }
  return results;
}

const char* CriterionName(SplitCriterion criterion) {
  return criterion == SplitCriterion::kGini ? "gini" : "entropy";
}

void WriteTrainJson(const std::string& path, const Dataset& data, size_t reps,
                    const std::vector<CaseResult>& results,
                    const std::vector<KernelResult>& kernel_results) {
  std::ofstream out(path);
  FALCC_CHECK(static_cast<bool>(out), "cannot open BENCH_train.json");
  out << "{\n";
  out << "  \"benchmark\": \"train_engine\",\n";
  out << "  \"dataset\": \"implicit30\",\n";
  out << "  \"rows\": " << data.num_rows() << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  bench::WriteProvenance(out);
  out << "  \"note\": \"reference = frozen seed trainer "
         "(ml/reference_trainer.h); engine = presorted column-cache "
         "builder with the two-pass split scan (ml/tree_builder.h); "
         "adaboost_grid_fit: engine = FitAdaBoostGrid (one run per depth x "
         "criterion, claimed largest first, cells cut as prefixes), "
         "reference = every cell fitted on its own in a ParallelFor in "
         "grid order; seconds = median of reps; thread counts "
         "above nproc measure oversubscription, not speedup; "
         "split_gain_kernel = pass-1 kernel variants on one thread, "
         "4096 thresholds per call, identical = bit-equal to baseline\",\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    out << "    {\"case\": \"" << r.name << "\", \"threads\": " << r.threads
        << ", \"reference_seconds\": " << r.reference_seconds
        << ", \"engine_seconds\": " << r.engine_seconds
        << ", \"speedup\": " << r.speedup()
        << ", \"model_identical\": " << (r.model_identical ? "true" : "false")
        << ", \"predictions_identical\": "
        << (r.predictions_identical ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"split_gain_kernel\": [\n";
  for (size_t i = 0; i < kernel_results.size(); ++i) {
    const KernelResult& r = kernel_results[i];
    out << "    {\"variant\": \"" << r.variant << "\", \"criterion\": \""
        << CriterionName(r.criterion)
        << "\", \"ns_per_threshold\": " << r.ns_per_threshold
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < kernel_results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  bench::ApplyThreadsFlag(&argc, argv);
  bench::PrintThreadHeader("bench_train_engine");

  std::string json_path = "BENCH_train.json";
  size_t reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      json_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::max(1L, std::atol(argv[i] + 7));
    }
  }

  SyntheticConfig cfg;
  cfg.num_samples = 4000;
  cfg.seed = 61;
  const Dataset data = GenerateImplicitBias(cfg).value();
  cfg.seed = 62;
  const Dataset probe = GenerateImplicitBias(cfg).value();

  std::printf("=== Train-engine microbenchmark (%zu rows, median of %zu) "
              "===\n", data.num_rows(), reps);
  const size_t restore = Parallelism();
  std::vector<CaseResult> results;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const std::vector<CaseResult> batch =
        RunAllCases(data, probe, threads, reps);
    results.insert(results.end(), batch.begin(), batch.end());
  }
  SetParallelism(restore);
  const std::vector<KernelResult> kernel_results = RunKernelCase(reps);

  bool all_identical = true;
  for (const CaseResult& r : results) {
    std::printf("  %-18s threads=%zu  reference=%.3fs  engine=%.3fs  "
                "speedup=%.2fx  model_identical=%s  "
                "predictions_identical=%s\n",
                r.name.c_str(), r.threads, r.reference_seconds,
                r.engine_seconds, r.speedup(),
                r.model_identical ? "yes" : "NO",
                r.predictions_identical ? "yes" : "NO");
    all_identical =
        all_identical && r.model_identical && r.predictions_identical;
  }
  bool kernels_identical = true;
  for (const KernelResult& r : kernel_results) {
    std::printf("  split_gain_kernel  %-8s %-7s  %.2f ns/threshold  "
                "identical=%s\n",
                r.variant.c_str(), CriterionName(r.criterion),
                r.ns_per_threshold, r.identical ? "yes" : "NO");
    kernels_identical = kernels_identical && r.identical;
  }
  WriteTrainJson(json_path, data, reps, results, kernel_results);
  std::printf("  -> %s\n", json_path.c_str());
  if (!all_identical) {
    std::fprintf(stderr, "ERROR: engine output differs from the seed "
                         "trainer\n");
    return 1;
  }
  if (!kernels_identical) {
    std::fprintf(stderr, "ERROR: a split gain kernel variant differs from "
                         "the baseline\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace falcc

int main(int argc, char** argv) { return falcc::Main(argc, argv); }
