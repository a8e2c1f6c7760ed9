#include "serve/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/falcc.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "serve/metrics.h"

namespace falcc {
namespace {

TrainValTest MakeSplits(uint64_t seed = 11, size_t n = 2000) {
  SyntheticConfig cfg;
  cfg.num_samples = n;
  cfg.seed = 7;
  const Dataset d = GenerateImplicitBias(cfg).value();
  return SplitDatasetDefault(d, seed).value();
}

FalccOptions FastOptions() {
  FalccOptions opt;
  opt.seed = 42;
  opt.trainer.estimator_grid = {5};
  opt.trainer.depth_grid = {1, 4};
  opt.trainer.pool_size = 3;
  return opt;
}

FalccModel TrainSmallModel() {
  const TrainValTest s = MakeSplits();
  return FalccModel::Train(s.train, s.validation, FastOptions()).value();
}

/// Flattens the feature matrix of `data` into a row-major vector.
std::vector<double> Flatten(const Dataset& data) {
  std::vector<double> flat;
  flat.reserve(data.num_rows() * data.num_features());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

// Batch ≡ sequential bit-identity now lives in invariants_test
// (InvariantsTest.BatchMatchesSequentialClassify) via the shared
// CheckBatchMatchesSequential helper.

TEST(ClassifyBatchTest, RejectsMalformedInput) {
  const FalccModel model = TrainSmallModel();
  const size_t width = model.num_features();
  std::vector<double> good(width * 2, 0.5);

  {  // Wrong declared width.
    ClassifyRequest request;
    request.features = good;
    request.num_features = width + 1;
    const Result<ClassifyResponse> r = model.ClassifyBatch(request);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Length not divisible by the width.
    ClassifyRequest request;
    request.features = std::span<const double>(good).subspan(0, width + 1);
    request.num_features = width;
    const Result<ClassifyResponse> r = model.ClassifyBatch(request);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {  // NaN and Inf are rejected with a sample/column diagnostic.
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()}) {
      std::vector<double> poisoned = good;
      poisoned[width + 1] = bad;
      ClassifyRequest request;
      request.features = poisoned;
      request.num_features = width;
      const Result<ClassifyResponse> r = model.ClassifyBatch(request);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(r.status().message().find("sample 1"), std::string::npos);
      EXPECT_NE(r.status().message().find("column 1"), std::string::npos);
    }
  }
  {  // Empty request is valid and returns no decisions.
    ClassifyRequest request;
    request.num_features = width;
    const Result<ClassifyResponse> r = model.ClassifyBatch(request);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().decisions.empty());
  }
}

TEST(ClassifyBatchTest, GroupOfRejectsMalformedInput) {
  const FalccModel model = TrainSmallModel();
  const std::vector<double> short_sample(model.num_features() - 1, 0.0);
  const Result<size_t> wrong_width = model.GroupOf(short_sample);
  ASSERT_FALSE(wrong_width.ok());
  EXPECT_EQ(wrong_width.status().code(), StatusCode::kInvalidArgument);

  std::vector<double> nan_sample(model.num_features(), 0.0);
  nan_sample[0] = std::nan("");
  const Result<size_t> with_nan = model.GroupOf(nan_sample);
  ASSERT_FALSE(with_nan.ok());
  EXPECT_EQ(with_nan.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeEngineTest, UnavailableBeforeFirstLoad) {
  serve::FalccEngine engine;
  const std::vector<double> sample(9, 0.0);

  ClassifyRequest request;
  request.features = sample;
  request.num_features = sample.size();
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Result<ClassifyResponse> batch = engine.ClassifyBatch(request);
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), StatusCode::kUnavailable);
  }

  EXPECT_EQ(engine.snapshot(), nullptr);
  EXPECT_EQ(engine.snapshot_version(), 0u);
  EXPECT_EQ(engine.GetMetrics().errors, 2u);
}

TEST(ServeEngineTest, ReloadFromFileFailureKeepsServing) {
  serve::FalccEngine engine;
  engine.Install(TrainSmallModel());
  const uint64_t version = engine.snapshot_version();

  const Status bad = engine.ReloadFromFile("/nonexistent/model.falcc");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(engine.snapshot_version(), version);
  ASSERT_NE(engine.snapshot(), nullptr);

  const std::vector<double> sample(engine.snapshot()->num_features(), 0.5);
  EXPECT_TRUE(engine.ClassifyBatch({sample, sample.size()}).ok());
}

// The TSan target of tools/check.sh: hot-swaps (file reloads) racing
// direct batch classification from two threads, one with full-test
// batches and one with single rows. Any data race in the snapshot
// handoff fails the sanitizer build.
TEST(ServeEngineTest, HotSwapUnderConcurrentClassification) {
  const TrainValTest s = MakeSplits();
  const FalccModel original =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  const std::string path = ::testing::TempDir() + "/serve_hot_swap.falcc";
  ASSERT_TRUE(original.SaveToFile(path).ok());

  serve::FalccEngine engine;
  ASSERT_TRUE(engine.ReloadFromFile(path).ok());

  const std::vector<double> flat = Flatten(s.test);
  const size_t width = s.test.num_features();
  const std::vector<int> expected = original.ClassifyAll(s.test);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Reader A: direct batched classification over full snapshots.
  std::thread direct([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ClassifyRequest request;
      request.features = flat;
      request.num_features = width;
      const Result<ClassifyResponse> response = engine.ClassifyBatch(request);
      if (!response.ok()) {
        failures.fetch_add(1);
        continue;
      }
      for (size_t i = 0; i < expected.size(); ++i) {
        if (response.value().decisions[i].label != expected[i]) {
          failures.fetch_add(1);
          break;
        }
      }
    }
  });

  // Reader B: one-row batches, the per-request shape.
  std::thread single([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto row = s.test.Row(i % s.test.num_rows());
      const Result<ClassifyResponse> d = engine.ClassifyBatch({row, width});
      if (!d.ok() ||
          d.value().decisions[0].label != expected[i % expected.size()]) {
        failures.fetch_add(1);
      }
      ++i;
    }
  });

  // Writer: a storm of hot-swaps while both readers run.
  for (int swap = 0; swap < 20; ++swap) {
    ASSERT_TRUE(engine.ReloadFromFile(path).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  direct.join();
  single.join();
  std::remove(path.c_str());

  // Every reload installed the same artifact, so decisions must never
  // have wavered regardless of which snapshot served a request.
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.snapshot_version(), 21u);
  EXPECT_EQ(engine.GetMetrics().reloads, 21u);
  EXPECT_EQ(engine.GetMetrics().errors, 0u);
}

TEST(ServeMetricsTest, HistogramPercentilesAreMonotonic) {
  serve::LatencyHistogram histogram;
  for (int i = 1; i <= 100; ++i) {
    histogram.Record(static_cast<double>(i) * 1e-6);
  }
  const serve::LatencySummary summary = histogram.Summarize();
  EXPECT_EQ(summary.count, 100u);
  EXPECT_GT(summary.p50_seconds, 0.0);
  EXPECT_LE(summary.p50_seconds, summary.p95_seconds);
  EXPECT_LE(summary.p95_seconds, summary.p99_seconds);
  // Power-of-two buckets: quantiles are exact to within a factor of two.
  EXPECT_LE(summary.p50_seconds, 2 * 50e-6);
  EXPECT_LE(summary.p99_seconds, 2 * 100e-6);
  EXPECT_GE(summary.p99_seconds, 50e-6);
}

TEST(ServeMetricsTest, SnapshotRendersAllStages) {
  serve::Metrics metrics;
  metrics.AddRequests(3);
  metrics.total().Record(5e-6);
  const std::string text = metrics.Snapshot().ToString();
  for (const char* stage :
       {"total", "queue_wait", "validate", "transform", "match", "predict"}) {
    EXPECT_NE(text.find(stage), std::string::npos) << stage;
  }
}

}  // namespace
}  // namespace falcc
