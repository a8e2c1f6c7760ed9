// Regenerates Figure 6: online-phase runtime per sample of FALCC vs
// FALCES-FASTEST (the pre-filtered FALCES variant) vs OTHER-FASTEST (a
// plain classifier call, the cheapest competitor) across datasets,
// including the Adult configuration with 2 and with 4 sensitive groups.
//
// google-benchmark measures a single online classification; the trained
// pipelines are built once per dataset and cached.
//
// Before the online benchmarks, the binary sweeps the *offline phase*
// (the paper's dominant cost) over thread counts {1, 2, 4, hardware},
// verifies the parallel runtime's determinism contract (byte-identical
// serialized models, identical predictions at every thread count), and
// writes the measurements to BENCH_runtime.json for the perf trajectory.
// Skip it with --no_offline_sweep.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/falces.h"
#include "bench_common.h"
#include "core/falcc.h"
#include "data/split.h"
#include "datagen/benchmark_data.h"
#include "datagen/synthetic.h"
#include "ml/decision_tree.h"
#include "util/timer.h"

namespace falcc {
namespace {

// Trained pipelines for one dataset, built lazily and cached.
struct Pipelines {
  Dataset test;
  std::unique_ptr<FalccModel> falcc;
  std::unique_ptr<FalcesModel> falces_fastest;
  std::unique_ptr<DecisionTree> other_fastest;
};

Dataset MakeDataset(const std::string& name) {
  const size_t target_rows = 4000;
  if (name == "implicit30") {
    SyntheticConfig cfg;
    cfg.num_samples = target_rows;
    cfg.seed = 61;
    return GenerateImplicitBias(cfg).value();
  }
  for (const BenchmarkDataSpec& spec : AllBenchmarkSpecs()) {
    if (spec.name == name) {
      const double scale = static_cast<double>(target_rows) /
                           static_cast<double>(spec.num_samples);
      return GenerateBenchmarkDataset(spec, 61, scale).value();
    }
  }
  FALCC_CHECK(false, "unknown dataset name");
  return {};
}

const Pipelines& GetPipelines(const std::string& name) {
  static std::map<std::string, Pipelines>* cache =
      new std::map<std::string, Pipelines>();
  auto it = cache->find(name);
  if (it != cache->end()) return it->second;

  const Dataset data = MakeDataset(name);
  const TrainValTest splits = SplitDatasetDefault(data, 61).value();

  Pipelines p;
  p.test = splits.test;

  FalccOptions falcc_opt;
  falcc_opt.seed = 61;
  falcc_opt.trainer.estimator_grid = {5};
  falcc_opt.trainer.pool_size = 5;
  p.falcc = std::make_unique<FalccModel>(
      FalccModel::Train(splits.train, splits.validation, falcc_opt).value());

  FalcesOptions falces_opt;
  falces_opt.prefilter = true;  // FALCES-FASTEST
  falces_opt.seed = 61;
  p.falces_fastest = std::make_unique<FalcesModel>(
      FalcesModel::Train(splits.train, splits.validation, falces_opt)
          .value());

  DecisionTreeOptions dt;
  dt.max_depth = 7;
  p.other_fastest = std::make_unique<DecisionTree>(dt);
  FALCC_CHECK(p.other_fastest->Fit(splits.train).ok(),
              "tree training failed");

  return cache->emplace(name, std::move(p)).first->second;
}

void BM_FalccOnline(benchmark::State& state, const std::string& dataset) {
  const Pipelines& p = GetPipelines(dataset);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.falcc->Classify(p.test.Row(i)));
    i = (i + 1) % p.test.num_rows();
  }
}

void BM_FalcesFastestOnline(benchmark::State& state,
                            const std::string& dataset) {
  const Pipelines& p = GetPipelines(dataset);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.falces_fastest->Classify(p.test.Row(i)));
    i = (i + 1) % p.test.num_rows();
  }
}

void BM_OtherFastestOnline(benchmark::State& state,
                           const std::string& dataset) {
  const Pipelines& p = GetPipelines(dataset);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.other_fastest->Predict(p.test.Row(i)));
    i = (i + 1) % p.test.num_rows();
  }
}

// ---------------------------------------------------------------------
// Offline-phase thread sweep.

// Offline-phase training runs per thread count; the reported time is
// the median (wall-clock noise on a loaded machine would otherwise
// dominate the sweep).
constexpr size_t kSweepReps = 3;

struct SweepPoint {
  size_t threads = 1;
  double offline_seconds = 0.0;       // median over kSweepReps runs
  OfflineStageTimes stages;           // breakdown of the median run
  bool model_identical = true;        // Save() bytes == 1-thread bytes
  bool predictions_identical = true;  // ClassifyAll == 1-thread result
};

// Trains the FALCC offline phase kSweepReps times at each thread count
// (median time, per-stage breakdown) and checks bit-identical outputs
// against the single-threaded reference.
std::vector<SweepPoint> RunOfflineSweep(const Dataset& data,
                                        std::vector<size_t> thread_counts) {
  const TrainValTest splits = SplitDatasetDefault(data, 61).value();
  FalccOptions opt;
  opt.seed = 61;
  opt.trainer.pool_size = 5;

  std::vector<SweepPoint> sweep;
  std::string reference_bytes;
  std::vector<int> reference_preds;
  for (size_t threads : thread_counts) {
    SetParallelism(threads);

    struct Rep {
      double seconds;
      OfflineStageTimes stages;
    };
    std::vector<Rep> reps(kSweepReps);
    std::string bytes;
    std::vector<int> preds;
    for (size_t r = 0; r < kSweepReps; ++r) {
      Timer timer;
      OfflineStageTimes stages;
      const FalccModel model =
          FalccModel::Train(splits.train, splits.validation, opt, &stages)
              .value();
      reps[r] = {timer.ElapsedSeconds(), stages};
      if (r == 0) {
        std::ostringstream out;
        FALCC_CHECK(model.Save(&out).ok(),
                    "sweep: model serialization failed");
        bytes = out.str();
        preds = model.ClassifyAll(splits.test);
      }
    }
    std::sort(reps.begin(), reps.end(),
              [](const Rep& a, const Rep& b) { return a.seconds < b.seconds; });
    const Rep& median = reps[reps.size() / 2];

    SweepPoint point;
    point.threads = threads;
    point.offline_seconds = median.seconds;
    point.stages = median.stages;
    if (sweep.empty()) {
      reference_bytes = bytes;
      reference_preds = preds;
    } else {
      point.model_identical = bytes == reference_bytes;
      point.predictions_identical = preds == reference_preds;
    }
    sweep.push_back(point);
  }
  return sweep;
}

void WriteRuntimeJson(const std::string& path, const std::string& dataset,
                      size_t rows, const std::vector<SweepPoint>& sweep) {
  std::ofstream out(path);
  FALCC_CHECK(static_cast<bool>(out), "cannot open BENCH_runtime.json");
  const unsigned hw = std::thread::hardware_concurrency();
  out << "{\n";
  out << "  \"benchmark\": \"falcc_offline_phase\",\n";
  out << "  \"dataset\": \"" << dataset << "\",\n";
  out << "  \"rows\": " << rows << ",\n";
  out << "  \"reps\": " << kSweepReps << ",\n";
  bench::WriteProvenance(out);
  out << "  \"note\": \"offline_seconds is the median of " << kSweepReps
      << " runs; stage breakdown is from the median run; thread counts "
         "above nproc oversubscribe the machine and measure scheduling "
         "overhead, not parallel speedup\",\n";
  out << "  \"sweep\": [\n";
  const double base = sweep.empty() ? 0.0 : sweep.front().offline_seconds;
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    out << "    {\"threads\": " << p.threads
        << ", \"offline_seconds\": " << p.offline_seconds
        << ", \"train_seconds\": " << p.stages.train_seconds
        << ", \"cluster_seconds\": " << p.stages.cluster_seconds
        << ", \"assess_seconds\": " << p.stages.assess_seconds
        << ", \"speedup_vs_1\": "
        << (p.offline_seconds > 0.0 ? base / p.offline_seconds : 0.0)
        << ", \"saturated\": " << (hw > 0 && p.threads > hw ? "true" : "false")
        << ", \"model_identical\": "
        << (p.model_identical ? "true" : "false")
        << ", \"predictions_identical\": "
        << (p.predictions_identical ? "true" : "false") << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// Sweeps {1, 2, 4, hardware} (deduplicated, ascending), reports to stdout
// and BENCH_runtime.json. Returns false if any determinism check failed.
bool OfflineSweepMain(const std::string& json_path) {
  const std::string dataset = "implicit30";
  const Dataset data = MakeDataset(dataset);

  std::vector<size_t> thread_counts = {1, 2, 4};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) thread_counts.push_back(hw);
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  const size_t restore = Parallelism();
  std::printf("=== Offline-phase runtime sweep (dataset %s, %zu rows) ===\n",
              dataset.c_str(), data.num_rows());
  const std::vector<SweepPoint> sweep = RunOfflineSweep(data, thread_counts);
  SetParallelism(restore);

  bool deterministic = true;
  const double base = sweep.front().offline_seconds;
  for (const SweepPoint& p : sweep) {
    std::printf(
        "  threads=%zu  offline=%.3fs (train=%.3f cluster=%.3f "
        "assess=%.3f)  speedup=%.2fx  model_identical=%s  "
        "predictions_identical=%s\n",
        p.threads, p.offline_seconds, p.stages.train_seconds,
        p.stages.cluster_seconds, p.stages.assess_seconds,
        p.offline_seconds > 0.0 ? base / p.offline_seconds : 0.0,
        p.model_identical ? "yes" : "NO",
        p.predictions_identical ? "yes" : "NO");
    deterministic = deterministic && p.model_identical &&
                    p.predictions_identical;
  }
  WriteRuntimeJson(json_path, dataset, data.num_rows(), sweep);
  std::printf("  -> %s\n\n", json_path.c_str());
  if (!deterministic) {
    std::fprintf(stderr,
                 "ERROR: results differ across thread counts — the "
                 "deterministic-parallelism contract is broken\n");
  }
  return deterministic;
}

// Dataset list of the paper's Fig. 6: synthetic, COMPAS, Credit, and
// Adult with 2 and 4 sensitive groups.
const char* kDatasets[] = {"implicit30", "COMPAS", "CreditCard", "AdultSex",
                           "AdultSexRace"};

struct Registrar {
  Registrar() {
    for (const char* d : kDatasets) {
      benchmark::RegisterBenchmark(
          (std::string("FALCC/") + d).c_str(),
          [d](benchmark::State& s) { BM_FalccOnline(s, d); });
      benchmark::RegisterBenchmark(
          (std::string("FALCES-FASTEST/") + d).c_str(),
          [d](benchmark::State& s) { BM_FalcesFastestOnline(s, d); });
      benchmark::RegisterBenchmark(
          (std::string("OTHER-FASTEST/") + d).c_str(),
          [d](benchmark::State& s) { BM_OtherFastestOnline(s, d); });
    }
  }
};
const Registrar registrar;

}  // namespace
}  // namespace falcc

int main(int argc, char** argv) {
  falcc::bench::ApplyThreadsFlag(&argc, argv);
  falcc::bench::PrintThreadHeader("bench_fig6_runtime");

  bool run_sweep = true;
  std::string json_path = "BENCH_runtime.json";
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no_offline_sweep") == 0) {
      run_sweep = false;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      json_path = argv[i] + 6;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  bool deterministic = true;
  if (run_sweep) deterministic = falcc::OfflineSweepMain(json_path);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return deterministic ? 0 : 1;
}
