// Tests of the online drift monitor: the lock-free decision log, the
// windowed loss estimators, CUSUM detection, the per-cluster refresh
// path, and the end-to-end drift → alarm → refresh acceptance scenario.

#include "monitor/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/assessment.h"
#include "core/falcc.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "ml/adaboost.h"
#include "ml/logistic_regression.h"
#include "fairness/loss.h"
#include "monitor/decision_log.h"
#include "monitor/drift_detector.h"
#include "monitor/refresher.h"
#include "monitor/window_stats.h"
#include "serve/engine.h"
#include "serve/sharded_engine.h"
#include "testing/reference_loss.h"

namespace falcc {
namespace {

using monitor::ClusterWindow;
using monitor::DecisionLog;
using monitor::DecisionLogStats;
using monitor::DriftDetector;
using monitor::DriftDetectorOptions;
using monitor::FairnessMonitor;
using monitor::LoggedDecision;
using monitor::MonitorOptions;
using monitor::MonitorPollResult;
using monitor::RefreshOutcome;
using monitor::WindowLoss;
using monitor::WindowStats;
using monitor::WindowStatsOptions;

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
  opt.fixed_k = 4;
  return opt;
}

std::vector<double> Flatten(const Dataset& data) {
  std::vector<double> flat;
  flat.reserve(data.num_rows() * data.num_features());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

SampleDecision MakeDecision(size_t cluster, size_t group, int label) {
  SampleDecision d;
  d.cluster = cluster;
  d.group = group;
  d.model = 0;
  d.label = label;
  d.probability = label == 1 ? 0.9 : 0.1;
  return d;
}

// --- DecisionLog -------------------------------------------------------

TEST(DecisionLogTest, AppendFeedbackDrainRoundTrip) {
  DecisionLog log(8, 3);
  const std::vector<double> f0 = {1.0, 2.0, 3.0};
  const std::vector<double> f1 = {4.0, 5.0, 6.0};
  const std::vector<double> f2 = {7.0, 8.0, 9.0};
  EXPECT_EQ(log.Append(MakeDecision(0, 0, 1), f0, 5), 0u);
  EXPECT_EQ(log.Append(MakeDecision(1, 1, 0), f1, 5), 1u);
  EXPECT_EQ(log.Append(MakeDecision(2, 0, 1), f2, 6), 2u);

  EXPECT_TRUE(log.AddFeedback(2, 0));  // out of order on purpose
  EXPECT_TRUE(log.AddFeedback(0, 1));

  std::vector<LoggedDecision> drained;
  std::vector<std::vector<double>> features;
  const size_t n = log.DrainLabeled([&](const LoggedDecision& d) {
    drained.push_back(d);
    features.emplace_back(d.features.begin(), d.features.end());
  });
  ASSERT_EQ(n, 2u);
  // Id order regardless of feedback order.
  EXPECT_EQ(drained[0].id, 0u);
  EXPECT_EQ(drained[0].cluster, 0u);
  EXPECT_EQ(drained[0].group, 0u);
  EXPECT_EQ(drained[0].predicted, 1);
  EXPECT_EQ(drained[0].truth, 1);
  EXPECT_EQ(drained[0].snapshot_version, 5u);
  EXPECT_EQ(features[0], f0);
  EXPECT_EQ(drained[1].id, 2u);
  EXPECT_EQ(drained[1].predicted, 1);
  EXPECT_EQ(drained[1].truth, 0);
  EXPECT_EQ(drained[1].snapshot_version, 6u);
  EXPECT_EQ(features[1], f2);

  // Unlabeled id 1 stays; a second drain finds nothing new.
  EXPECT_EQ(log.DrainLabeled([](const LoggedDecision&) {}), 0u);

  const DecisionLogStats stats = log.Stats();
  EXPECT_EQ(stats.appended, 3u);
  EXPECT_EQ(stats.labeled, 2u);
  EXPECT_EQ(stats.consumed, 2u);
  EXPECT_EQ(stats.feedback_missed, 0u);
  EXPECT_EQ(stats.overwritten, 0u);
}

TEST(DecisionLogTest, FeedbackMissesAndOverwrites) {
  DecisionLog log(4, 1);
  const std::vector<double> f = {1.0};
  for (uint64_t i = 0; i < 4; ++i) {
    log.Append(MakeDecision(0, 0, 0), f, 1);
  }
  EXPECT_TRUE(log.AddFeedback(1, 1));
  EXPECT_FALSE(log.AddFeedback(1, 1));  // double feedback
  EXPECT_EQ(log.DrainLabeled([](const LoggedDecision&) {}), 1u);
  EXPECT_FALSE(log.AddFeedback(1, 1));  // already consumed

  // Wrap the ring: ids 4..7 displace 0..3. Ids 0, 2, 3 were never
  // consumed (id 1 was), so three entries are lost.
  for (uint64_t i = 0; i < 4; ++i) {
    log.Append(MakeDecision(0, 0, 0), f, 1);
  }
  EXPECT_FALSE(log.AddFeedback(0, 1));  // overwritten
  const DecisionLogStats stats = log.Stats();
  EXPECT_EQ(stats.overwritten, 3u);
  EXPECT_EQ(stats.feedback_missed, 3u);
  // Feedback for the live generation still works.
  EXPECT_TRUE(log.AddFeedback(7, 0));
}

TEST(DecisionLogTest, CapacityRoundsUpToPowerOfTwo) {
  DecisionLog log(5, 2);
  EXPECT_EQ(log.capacity(), 8u);
  EXPECT_EQ(log.num_features(), 2u);
}

// A capacity above the largest power of two a size_t holds has no
// power-of-two round-up: the log aborts instead of looping forever on a
// shift that wraps to 0.
TEST(DecisionLogDeathTest, CapacityPastLargestPowerOfTwoAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(DecisionLog(SIZE_MAX, 2), "RoundUpPow2");
}

// --- WindowStats -------------------------------------------------------

/// Recomputes the windowed loss from the window's raw samples through
/// the row-by-row reference formulas (testing/reference_loss.h), which
/// WindowStats must match bit for bit in group-fairness mode.
WindowLoss ReferenceLoss(const ClusterWindow& window, size_t num_groups,
                         FairnessMetric metric, double lambda) {
  GroupedPredictions in;
  in.labels = window.labels;
  in.predictions = window.predictions;
  in.groups = window.groups;
  in.num_groups = num_groups;
  const LossBreakdown loss =
      testing::ReferenceCombinedLoss(in, metric, lambda).value();
  WindowLoss out;
  out.inaccuracy = loss.inaccuracy;
  out.bias = loss.bias;
  out.combined = loss.combined;
  out.count = window.labels.size();
  return out;
}

TEST(WindowStatsTest, CountsLossMatchesCombinedLossExactly) {
  for (const FairnessMetric metric :
       {FairnessMetric::kDemographicParity, FairnessMetric::kEqualizedOdds,
        FairnessMetric::kEqualOpportunity,
        FairnessMetric::kTreatmentEquality}) {
    WindowStatsOptions options;
    options.window = 32;
    options.num_clusters = 2;
    options.num_groups = 3;
    options.num_features = 2;
    options.lambda = 0.35;
    options.metric = metric;
    WindowStats stats(options);

    // 80 adds > 2 windows of churn: eviction must keep counts exact.
    uint64_t state = 12345;
    for (size_t i = 0; i < 80; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const size_t group = (state >> 33) % 3;
      const int truth = static_cast<int>((state >> 17) & 1);
      const int predicted = static_cast<int>((state >> 25) & 1);
      const std::vector<double> features = {static_cast<double>(i), 0.5};
      stats.Add(i % 2, group, truth, predicted, features);
    }

    for (size_t cluster = 0; cluster < 2; ++cluster) {
      ASSERT_EQ(stats.Count(cluster), 32u);
      EXPECT_EQ(stats.Seen(cluster), 40u);
      const WindowLoss actual = stats.Loss(cluster).value();
      const WindowLoss expected = ReferenceLoss(
          stats.Window(cluster), options.num_groups, metric, options.lambda);
      // Bit-identical: the counts are exact integers, so they give the
      // same rates as counting one sample at a time.
      EXPECT_EQ(actual.inaccuracy, expected.inaccuracy)
          << FairnessMetricName(metric);
      EXPECT_EQ(actual.bias, expected.bias) << FairnessMetricName(metric);
      EXPECT_EQ(actual.combined, expected.combined)
          << FairnessMetricName(metric);
    }
  }
}

TEST(WindowStatsTest, ConsistencyModeMatchesAssessmentFormula) {
  WindowStatsOptions options;
  options.window = 16;
  options.num_clusters = 1;
  options.num_groups = 2;
  options.num_features = 1;
  options.lambda = 0.5;
  options.mode = AssessmentMode::kConsistency;
  WindowStats stats(options);

  std::vector<int> predictions, labels;
  for (size_t i = 0; i < 16; ++i) {
    const int truth = static_cast<int>(i % 2);
    const int predicted = static_cast<int>((i / 3) % 2);
    const std::vector<double> f = {static_cast<double>(i)};
    stats.Add(0, i % 2, truth, predicted, f);
    labels.push_back(truth);
    predictions.push_back(predicted);
  }

  // Reference: the per-sample loop of AssessCombination's consistency
  // branch (cluster-as-neighborhood inconsistency).
  const size_t n = predictions.size();
  double wrong = 0.0, pos = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (predictions[i] != labels[i]) ++wrong;
    pos += predictions[i];
  }
  double inconsistency = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double others = (pos - predictions[i]) / static_cast<double>(n - 1);
    inconsistency += std::fabs(static_cast<double>(predictions[i]) - others);
  }
  inconsistency /= static_cast<double>(n);
  const double expected =
      0.5 * wrong / static_cast<double>(n) + 0.5 * inconsistency;

  const WindowLoss actual = stats.Loss(0).value();
  EXPECT_NEAR(actual.combined, expected, 1e-12);
}

TEST(WindowStatsTest, WindowOrderEvictionAndClear) {
  WindowStatsOptions options;
  options.window = 4;
  options.num_clusters = 1;
  options.num_groups = 2;
  options.num_features = 1;
  WindowStats stats(options);

  for (int i = 0; i < 6; ++i) {  // evicts samples 0 and 1
    const std::vector<double> f = {static_cast<double>(i)};
    stats.Add(0, static_cast<size_t>(i) % 2, i % 2, 1 - i % 2, f);
  }
  ASSERT_EQ(stats.Count(0), 4u);
  const ClusterWindow window = stats.Window(0);
  // Oldest → newest: samples 2, 3, 4, 5.
  EXPECT_EQ(window.features, (std::vector<double>{2.0, 3.0, 4.0, 5.0}));
  EXPECT_EQ(window.labels, (std::vector<int>{0, 1, 0, 1}));
  EXPECT_EQ(window.predictions, (std::vector<int>{1, 0, 1, 0}));
  EXPECT_EQ(window.groups, (std::vector<size_t>{0, 1, 0, 1}));
  // Counts reflect eviction: (g=0, y=0, z=1) holds samples 2 and 4.
  EXPECT_EQ(stats.GroupCount(0, 0, 0, 1), 2u);
  EXPECT_EQ(stats.GroupCount(0, 1, 1, 0), 2u);
  EXPECT_EQ(stats.GroupCount(0, 0, 0, 0), 0u);

  stats.Clear(0);
  EXPECT_EQ(stats.Count(0), 0u);
  EXPECT_EQ(stats.GroupCount(0, 0, 0, 1), 0u);
  EXPECT_EQ(stats.Seen(0), 6u);  // lifetime counter survives Clear
  EXPECT_FALSE(stats.Loss(0).ok());
}

// --- DriftDetector -----------------------------------------------------

TEST(DriftDetectorTest, CusumAccumulatesLatchesAndResets) {
  DriftDetectorOptions options;
  options.threshold = 1.0;
  options.slack = 0.05;
  options.min_samples = 10;
  DriftDetector detector(options, {0.2, 0.3});

  // Below min_samples: ignored entirely.
  EXPECT_FALSE(detector.Update(0, 5.0, 9));
  EXPECT_EQ(detector.State(0).updates, 0u);

  // At the baseline: the score stays clamped at zero.
  EXPECT_FALSE(detector.Update(0, 0.2, 50));
  EXPECT_EQ(detector.State(0).score, 0.0);
  // Within the slack dead-zone: still zero.
  EXPECT_FALSE(detector.Update(0, 0.24, 50));
  EXPECT_EQ(detector.State(0).score, 0.0);

  // Sustained excess of 0.25 per step: alarm on the 4th step.
  EXPECT_FALSE(detector.Update(0, 0.5, 50));
  EXPECT_FALSE(detector.Update(0, 0.5, 50));
  EXPECT_FALSE(detector.Update(0, 0.5, 50));
  EXPECT_TRUE(detector.Update(0, 0.5, 50));
  EXPECT_TRUE(detector.Alarmed(0));
  // Latched: further updates report no NEW alarm, and a low loss does
  // not clear it.
  EXPECT_FALSE(detector.Update(0, 0.0, 50));
  EXPECT_TRUE(detector.Alarmed(0));
  EXPECT_EQ(detector.AlarmedClusters(), (std::vector<size_t>{0}));
  EXPECT_FALSE(detector.Alarmed(1));

  detector.Reset(0, 0.45);
  EXPECT_FALSE(detector.Alarmed(0));
  EXPECT_EQ(detector.State(0).score, 0.0);
  EXPECT_EQ(detector.State(0).baseline, 0.45);
  EXPECT_TRUE(detector.AlarmedClusters().empty());
}

// --- Snapshot baselines ------------------------------------------------

TEST(SnapshotBaselineTest, RoundTripPreservesBaselinesAndParams) {
  const TrainValTest s = MakeSplits();
  FalccOptions options = FastOptions();
  options.lambda = 0.4;
  options.metric = FairnessMetric::kEqualizedOdds;
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, options).value();
  ASSERT_EQ(model.baseline_losses().size(), model.num_clusters());
  for (const double loss : model.baseline_losses()) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GE(loss, 0.0);
  }

  std::ostringstream buffer;
  ASSERT_TRUE(model.Save(&buffer).ok());
  const FalccModel loaded = FalccModel::LoadBytes(buffer.str()).value();
  EXPECT_EQ(loaded.baseline_losses(), model.baseline_losses());
  EXPECT_EQ(loaded.assess_lambda(), 0.4);
  EXPECT_EQ(loaded.assess_metric(), FairnessMetric::kEqualizedOdds);
  EXPECT_EQ(loaded.assess_mode(), AssessmentMode::kGroupFairness);
}

TEST(SnapshotBaselineTest, SnapshotWithoutBaselinesIsRejected) {
  // The checked-in v2-no-monitor.txt seed is valid-v2-pool-p1.txt as
  // models trained before the drift monitor were saved: no monitor
  // section, and `none` in place of each combo section's baseline. It
  // no longer loads — the error names the missing section — so every
  // served model can be monitored, and a reload onto it keeps the
  // installed snapshot.
  const std::string seeds = std::string(FALCC_CORPUS_DIR) + "/snapshot/";
  const Result<FalccModel> loaded =
      FalccModel::LoadMapped(seeds + "v2-no-monitor.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("'monitor'"), std::string::npos)
      << loaded.status().message();

  serve::FalccEngine engine;
  ASSERT_TRUE(engine.ReloadMapped(seeds + "valid-v2-pool-p1.txt").ok());
  const uint64_t version = engine.snapshot_version();
  EXPECT_FALSE(engine.ReloadMapped(seeds + "v2-no-monitor.txt").ok());
  EXPECT_EQ(engine.snapshot_version(), version);
  EXPECT_TRUE(FairnessMonitor::Attach(&engine).ok());
}

// --- CloneWithRefreshes ------------------------------------------------

// Refresh isolation (untouched clusters bit-identical, routing stable,
// invalid refreshes rejected) now lives in invariants_test
// (InvariantsTest.RefreshLeavesUntouchedClustersBitIdentical) via the
// shared CheckRefreshIsolation helper.

TEST(RefreshCompileTest, RefreshClonesShareTheCompiledPool) {
  const TrainValTest s = MakeSplits();
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  ASSERT_GE(model.num_clusters(), 2u);
  ASSERT_NE(model.pool().kernel(0), nullptr);

  // Refresh cluster 0 to a combination that differs from the serving one.
  ModelCombination replacement = model.selected_combinations()[0];
  replacement[0] = (replacement[0] + 1) % model.pool().size();
  ClusterRefresh refresh;
  refresh.cluster = 0;
  refresh.combination = replacement;
  refresh.baseline_loss = 0.25;

  // The kernels belong to the pool, and a refresh only re-picks among
  // the pool's models: the clone serves from the source's pool itself,
  // kernels included — the refresh path compiles nothing.
  FalccModel clone = model.CloneWithRefreshes({&refresh, 1}).value();
  EXPECT_EQ(&clone.pool(), &model.pool());

  // Hot-swapping the clone installs that very pool.
  serve::FalccEngine engine;
  engine.Install(std::move(clone));
  const std::shared_ptr<const FalccModel> snapshot = engine.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(&snapshot->pool(), &model.pool());
  EXPECT_EQ(snapshot->selected_combinations()[0], replacement);

  // And the swapped snapshot serves the refreshed combination through
  // the kernels exactly as the sequential interpreted path decides.
  const std::vector<double> flat = Flatten(s.test);
  ClassifyRequest request{flat, s.test.num_features()};
  const ClassifyResponse response = engine.ClassifyBatch(request).value();
  ASSERT_EQ(response.decisions.size(), s.test.num_rows());
  for (size_t i = 0; i < response.decisions.size(); ++i) {
    const auto row = s.test.Row(i);
    const SampleDecision& d = response.decisions[i];
    EXPECT_EQ(d.label, snapshot->Classify(row)) << "row " << i;
    EXPECT_EQ(d.probability, snapshot->ClassifyProba(row)) << "row " << i;
    EXPECT_EQ(d.model,
              snapshot->selected_combinations()[snapshot->MatchCluster(row)]
                                               [snapshot->GroupOf(row).value()])
        << "row " << i;
  }
}

// The refresher votes its window through the pool's kernels (and the
// interpreted path for a model that does not lower). Its losses and the
// combination it installs must equal a brute-force search with the
// row-by-row reference over interpreted PredictAll votes of the window.
TEST(RefresherTest, MatchesBruteForceOverInterpretedVotes) {
  const TrainValTest s = MakeSplits();
  ModelPool pool;
  AdaBoostOptions boost;
  boost.num_estimators = 12;
  boost.base.max_depth = 6;
  auto boosted = std::make_unique<AdaBoost>(boost);
  ASSERT_TRUE(boosted->Fit(s.train).ok());
  auto logistic = std::make_unique<LogisticRegression>();
  ASSERT_TRUE(logistic->Fit(s.train).ok());
  pool.Add(std::move(boosted));
  pool.Add(std::move(logistic));
  FalccModel model =
      FalccModel::TrainWithPool(std::move(pool), s.validation, FastOptions())
          .value();
  ASSERT_NE(model.pool().kernel(0), nullptr);
  ASSERT_EQ(model.pool().kernel(1), nullptr);  // logistic: interpreted

  // Cluster 0's window: the test rows as its labeled stream.
  const size_t cluster = 0;
  ClusterWindow window;
  window.features = Flatten(s.test);
  for (size_t i = 0; i < s.test.num_rows(); ++i) {
    const auto row = s.test.Row(i);
    window.labels.push_back(s.test.Label(i));
    window.predictions.push_back(model.Classify(row));
    window.groups.push_back(model.GroupOf(row).value());
  }

  // Brute force over interpreted votes.
  std::vector<std::vector<int>> votes;
  for (size_t m = 0; m < model.pool().size(); ++m) {
    votes.push_back(PredictAll(model.pool().model(m), s.test));
  }
  AssessmentContext ctx;
  ctx.votes = &votes;
  ctx.labels = window.labels;
  ctx.groups = window.groups;
  ctx.num_groups = model.num_groups();
  ctx.mode = model.assess_mode();
  ctx.metric = model.assess_metric();
  ctx.lambda = model.assess_lambda();
  std::vector<size_t> rows(s.test.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  const std::vector<ModelCombination> combos =
      EnumerateCombinations(model.pool(), model.num_groups()).value();
  size_t best = 0;
  size_t worst = 0;
  std::vector<double> losses;
  for (size_t c = 0; c < combos.size(); ++c) {
    losses.push_back(
        testing::ReferenceAssessCombination(ctx, combos[c], rows).value());
    if (losses[c] < losses[best]) best = c;
    if (losses[c] > losses[worst]) worst = c;
  }
  // Serve the worst combination on cluster 0, so the refresh must
  // replace it.
  ASSERT_LT(losses[best], losses[worst]);
  ClusterRefresh serving;
  serving.cluster = cluster;
  serving.combination = combos[worst];
  serve::FalccEngine engine;
  engine.Install(model.CloneWithRefreshes({&serving, 1}).value());
  monitor::Refresher refresher(&engine);
  const RefreshOutcome outcome =
      refresher.RefreshCluster(window, cluster).value();
  EXPECT_EQ(outcome.current_loss, losses[worst]);
  EXPECT_EQ(outcome.best_loss, losses[best]);
  EXPECT_TRUE(outcome.installed);
  EXPECT_EQ(engine.snapshot()->selected_combinations()[cluster],
            combos[best]);
}

// --- End-to-end drift → alarm → refresh --------------------------------

struct Replay {
  serve::FalccEngine* engine;
  FairnessMonitor* monitor;
  const std::vector<double>* features;  // row-major replay pool
  size_t width = 0;
  size_t num_rows = 0;
  size_t cursor = 0;
};

/// Replays `count` samples in chunks: classify, feed back ground truth
/// (flipping the label of `drift_cluster`'s decisions when >= 0), poll.
/// Appends every poll result to `*polls`; stops early once a poll ran a
/// refresh.
void ReplayChunks(Replay* r, size_t count, size_t chunk,
                  int64_t drift_cluster,
                  std::vector<MonitorPollResult>* polls) {
  size_t sent = 0;
  while (sent < count) {
    const size_t take = std::min(chunk, count - sent);
    std::vector<double> batch;
    batch.reserve(take * r->width);
    for (size_t i = 0; i < take; ++i) {
      const size_t row = (r->cursor + i) % r->num_rows;
      batch.insert(batch.end(), r->features->begin() + row * r->width,
                   r->features->begin() + (row + 1) * r->width);
    }
    r->cursor = (r->cursor + take) % r->num_rows;
    sent += take;

    const uint64_t base = r->monitor->log().next_id();
    const ClassifyRequest request{batch, r->width};
    const ClassifyResponse response =
        r->engine->ClassifyBatch(request).value();
    for (size_t i = 0; i < response.decisions.size(); ++i) {
      const SampleDecision& d = response.decisions[i];
      const bool flip = drift_cluster >= 0 &&
                        d.cluster == static_cast<size_t>(drift_cluster);
      const int truth = flip ? 1 - d.label : d.label;
      EXPECT_TRUE(r->monitor->AddFeedback(base + i, truth)) << "id " << i;
    }
    polls->push_back(r->monitor->Poll().value());
    if (!polls->back().refreshes.empty()) break;
  }
}

TEST(MonitorE2ETest, AlarmOnlyOnShiftedClusterAndRefreshImproves) {
  const TrainValTest s = MakeSplits(11, 3000);
  FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  const size_t num_clusters = model.num_clusters();
  ASSERT_GE(num_clusters, 2u);

  // Pick the replay pool's most populated cluster as the drift target.
  const std::vector<double> pool = Flatten(s.test);
  const size_t width = s.test.num_features();
  const ClassifyRequest probe_request{pool, width};
  const ClassifyResponse probe = model.ClassifyBatch(probe_request).value();
  std::vector<size_t> per_cluster(num_clusters, 0);
  for (const SampleDecision& d : probe.decisions) ++per_cluster[d.cluster];
  const size_t target = static_cast<size_t>(
      std::max_element(per_cluster.begin(), per_cluster.end()) -
      per_cluster.begin());

  serve::FalccEngine engine;
  engine.Install(std::move(model));

  MonitorOptions options;
  options.log_capacity = 1 << 12;
  options.window = 256;
  options.detector.threshold = 1.0;
  options.detector.slack = 0.1;
  options.detector.min_samples = 100;
  options.delta_dir = ::testing::TempDir();  // publish refresh deltas
  std::unique_ptr<FairnessMonitor> monitor =
      FairnessMonitor::Attach(&engine, options).value();

  Replay replay{&engine, monitor.get(), &pool, width, s.test.num_rows(), 0};

  // Phase 1: 10k labeled samples with truth == prediction everywhere.
  // No cluster may alarm and no refresh may run.
  std::vector<MonitorPollResult> stable;
  ReplayChunks(&replay, 10000, 250, -1, &stable);
  for (const MonitorPollResult& poll : stable) {
    EXPECT_TRUE(poll.new_alarms.empty());
    EXPECT_TRUE(poll.refreshes.empty());
  }
  EXPECT_TRUE(monitor->detector().AlarmedClusters().empty());
  EXPECT_EQ(monitor->refresher_stats().attempts, 0u);
  EXPECT_GE(monitor->log().Stats().consumed, 10000u);

  // Phase 2: targeted label shift — ground truth flips against the
  // serving prediction inside the target cluster only.
  const uint64_t version_before = engine.snapshot_version();
  const ClassifyResponse before =
      engine.ClassifyBatch(probe_request).value();
  // A "replica" would be serving this exact snapshot when the primary's
  // refresher publishes a delta against it.
  std::ostringstream base_bytes;
  ASSERT_TRUE(engine.snapshot()->Save(&base_bytes).ok());

  std::vector<MonitorPollResult> drifted;
  ReplayChunks(&replay, 20000, 250, static_cast<int64_t>(target), &drifted);

  // The alarm fired on the target cluster and nowhere else.
  std::vector<size_t> alarms;
  std::vector<RefreshOutcome> refreshes;
  for (const MonitorPollResult& poll : drifted) {
    alarms.insert(alarms.end(), poll.new_alarms.begin(),
                  poll.new_alarms.end());
    refreshes.insert(refreshes.end(), poll.refreshes.begin(),
                     poll.refreshes.end());
  }
  ASSERT_EQ(alarms, (std::vector<size_t>{target}));

  // The refresh installed a strictly better combination for the target.
  ASSERT_EQ(refreshes.size(), 1u);
  const RefreshOutcome& outcome = refreshes[0];
  EXPECT_EQ(outcome.cluster, target);
  EXPECT_TRUE(outcome.installed);
  EXPECT_LT(outcome.best_loss, outcome.current_loss);
  EXPECT_EQ(monitor->refresher_stats().installed, 1u);
  EXPECT_EQ(engine.snapshot_version(), version_before + 1);
  EXPECT_FALSE(monitor->detector().Alarmed(target));  // reset post-refresh

  // The install also published a delta artifact: O(one combo section),
  // named after the base snapshot it applies to.
  EXPECT_EQ(monitor->refresher_stats().delta_published, 1u);
  EXPECT_EQ(monitor->refresher_stats().delta_failures, 0u);
  ASSERT_FALSE(outcome.delta_path.empty());
  EXPECT_GT(outcome.delta_bytes, 0u);
  EXPECT_LT(outcome.delta_bytes, base_bytes.str().size() / 4);
  std::ifstream delta_in(outcome.delta_path, std::ios::binary);
  ASSERT_TRUE(delta_in.good()) << outcome.delta_path;
  std::ostringstream delta_bytes;
  delta_bytes << delta_in.rdbuf();
  ASSERT_EQ(delta_bytes.str().size(), outcome.delta_bytes);

  // A replica serving the base snapshot applies the delta and converges
  // on the primary's refreshed snapshot without a full reload.
  serve::FalccEngine replica;
  replica.Install(FalccModel::LoadBytes(base_bytes.str()).value());
  ASSERT_TRUE(replica.ApplyDeltaBytes(delta_bytes.str()).ok());

  // Decisions on every unshifted cluster are bit-identical before and
  // after the hot-swap refresh.
  const ClassifyResponse after = engine.ClassifyBatch(probe_request).value();
  ASSERT_EQ(after.decisions.size(), before.decisions.size());
  size_t target_changed = 0;
  for (size_t i = 0; i < before.decisions.size(); ++i) {
    const SampleDecision& b = before.decisions[i];
    const SampleDecision& a = after.decisions[i];
    EXPECT_EQ(a.cluster, b.cluster) << i;
    EXPECT_EQ(a.group, b.group) << i;
    if (b.cluster != target) {
      EXPECT_EQ(a.label, b.label) << i;
      EXPECT_EQ(a.probability, b.probability) << i;
      EXPECT_EQ(a.model, b.model) << i;
    } else if (a.model != b.model) {
      ++target_changed;
    }
  }
  EXPECT_GT(target_changed, 0u);  // the target really serves new models

  // The replica's post-delta decisions match the primary bit for bit.
  const ClassifyResponse replica_after =
      replica.ClassifyBatch(probe_request).value();
  ASSERT_EQ(replica_after.decisions.size(), after.decisions.size());
  for (size_t i = 0; i < after.decisions.size(); ++i) {
    const SampleDecision& p = after.decisions[i];
    const SampleDecision& r = replica_after.decisions[i];
    EXPECT_TRUE(p.label == r.label && p.probability == r.probability &&
                p.cluster == r.cluster && p.group == r.group &&
                p.model == r.model)
        << "sample " << i;
  }
  std::remove(outcome.delta_path.c_str());

  // The summary reflects the episode.
  const monitor::MonitorSummary summary = monitor->Summary();
  EXPECT_EQ(summary.num_clusters, num_clusters);
  EXPECT_EQ(summary.refresh.installed, 1u);
  const std::string json = summary.ToJson();
  EXPECT_NE(json.find("\"refresh\""), std::string::npos);
  EXPECT_NE(json.find("\"clusters\""), std::string::npos);
}

// --- Monitor over a sharded fleet --------------------------------------

// The same drift → alarm → refresh loop, but decisions fan in from a
// ShardedEngine's flush workers through the store's one observer and the
// refresh installs through the fleet's snapshot store — every shard
// serves the refreshed combination on its next flush.
TEST(MonitorShardedTest, ObserverFanInDrivesRefreshAcrossShards) {
  const TrainValTest s = MakeSplits(11, 3000);
  FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  const size_t num_clusters = model.num_clusters();

  // Drift target: the replay pool's most populated cluster.
  const std::vector<double> pool = Flatten(s.test);
  const size_t width = s.test.num_features();
  const size_t num_rows = s.test.num_rows();
  const ClassifyRequest probe_request{pool, width};
  const ClassifyResponse probe = model.ClassifyBatch(probe_request).value();
  std::vector<size_t> per_cluster(num_clusters, 0);
  for (const SampleDecision& d : probe.decisions) ++per_cluster[d.cluster];
  const size_t target = static_cast<size_t>(
      std::max_element(per_cluster.begin(), per_cluster.end()) -
      per_cluster.begin());

  serve::ShardedEngineOptions engine_options;
  engine_options.num_shards = 4;
  serve::ShardedEngine engine(engine_options);
  engine.Install(std::move(model));

  MonitorOptions options;
  options.log_capacity = 1 << 12;
  options.window = 256;
  options.detector.threshold = 1.0;
  options.detector.slack = 0.1;
  options.detector.min_samples = 100;
  std::unique_ptr<FairnessMonitor> monitor =
      FairnessMonitor::Attach(&engine, options).value();
  const uint64_t version_before = engine.snapshot_version();

  // Stream through the shards. Classify is Submit + Wait, and the shard
  // flush runs the observer before completing the ticket, so sequential
  // calls produce sequential log ids — the id grabbed before the call is
  // the decision's.
  std::vector<RefreshOutcome> refreshes;
  size_t streamed = 0;
  for (size_t iter = 0; iter < 20000 && refreshes.empty(); ++iter) {
    const size_t row = iter % num_rows;
    const uint64_t id = monitor->log().next_id();
    const SampleDecision decision =
        engine.Classify(std::span<const double>(pool.data() + row * width,
                                                width))
            .value();
    const bool flip = decision.cluster == target;
    ASSERT_TRUE(monitor->AddFeedback(id, flip ? 1 - decision.label
                                              : decision.label));
    ++streamed;
    if ((iter + 1) % 250 == 0) {
      const MonitorPollResult poll = monitor->Poll().value();
      refreshes.insert(refreshes.end(), poll.refreshes.begin(),
                       poll.refreshes.end());
    }
  }

  // The flipped cluster alarmed and its refresh hot-swapped the fleet.
  ASSERT_EQ(refreshes.size(), 1u);
  EXPECT_EQ(refreshes[0].cluster, target);
  EXPECT_TRUE(refreshes[0].installed);
  EXPECT_EQ(engine.snapshot_version(), version_before + 1);

  // Every streamed decision reached the log through the fleet observer,
  // and the fleet's own observation counter agrees.
  EXPECT_EQ(monitor->log().Stats().appended, streamed);
  EXPECT_EQ(engine.GetMetrics().observed, streamed);

  // Shards serve the refreshed snapshot: their decisions match the
  // snapshot store's bit for bit.
  const std::shared_ptr<const FalccModel> refreshed = engine.snapshot();
  for (size_t row = 0; row < std::min<size_t>(num_rows, 64); ++row) {
    const std::span<const double> features(pool.data() + row * width, width);
    const SampleDecision via_shard = engine.Classify(features).value();
    EXPECT_EQ(via_shard.label, refreshed->Classify(features)) << row;
  }
  engine.Shutdown();
}

// --- Concurrency (ThreadSanitizer coverage) ----------------------------

// Concurrent decision logging (direct batches and one-shard queued
// submissions), feedback ingestion, polling with auto-refresh, and
// snapshot hot-swaps — the full monitor surface under race detection.
TEST(MonitorConcurrencyTest, LoggingFeedbackPollAndHotSwapRace) {
  const TrainValTest s = MakeSplits(11, 1200);
  FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();

  serve::ShardedEngineOptions engine_options;
  engine_options.num_shards = 1;
  serve::ShardedEngine engine(engine_options);
  engine.Install(std::move(model));

  MonitorOptions options;
  options.log_capacity = 1 << 10;
  options.window = 64;
  options.detector.threshold = 0.2;  // alarm (and refresh) eagerly
  options.detector.slack = 0.0;
  options.detector.min_samples = 8;
  std::unique_ptr<FairnessMonitor> monitor =
      FairnessMonitor::Attach(&engine, options).value();

  const std::vector<double> pool = Flatten(s.test);
  const size_t width = s.test.num_features();
  const size_t num_rows = s.test.num_rows();
  std::atomic<bool> done{false};

  // Two classifier threads: one direct-batch, one through the queue.
  std::thread batcher([&] {
    for (size_t iter = 0; iter < 40; ++iter) {
      const size_t start = (iter * 16) % (num_rows - 16);
      const ClassifyRequest request{
          std::span<const double>(pool.data() + start * width, 16 * width),
          width};
      ASSERT_TRUE(engine.ClassifyBatch(request).ok());
    }
  });
  std::thread submitter([&] {
    for (size_t iter = 0; iter < 200; ++iter) {
      const size_t row = iter % num_rows;
      const Result<SampleDecision> decision = engine.Classify(
          std::span<const double>(pool.data() + row * width, width));
      ASSERT_TRUE(decision.ok());
    }
  });
  // Feedback thread: labels whatever ids exist so far, repeatedly (the
  // misses on already-labeled ids exercise the CAS failure path). Its
  // last pass starts after `done`, so it labels every appended id however
  // the scheduler ran it before.
  std::thread feedback([&] {
    for (;;) {
      const bool last = done.load(std::memory_order_acquire);
      const uint64_t n = monitor->log().next_id();
      for (uint64_t id = 0; id < n; ++id) {
        monitor->AddFeedback(id, static_cast<int>(id & 1));
      }
      if (last) break;
      std::this_thread::yield();
    }
  });
  // Poller thread: drains, detects, and auto-refreshes (hot-swapping
  // snapshots under the classifiers' feet).
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      ASSERT_TRUE(monitor->Poll().ok());
      std::this_thread::yield();
    }
  });

  batcher.join();
  submitter.join();
  done.store(true, std::memory_order_release);
  feedback.join();
  poller.join();
  engine.Shutdown();

  ASSERT_TRUE(monitor->Poll().ok());
  const DecisionLogStats stats = monitor->log().Stats();
  EXPECT_EQ(stats.appended, 40u * 16u + 200u);
  EXPECT_GT(stats.labeled, 0u);
  EXPECT_EQ(engine.GetMetrics().observed, stats.appended);
}

}  // namespace
}  // namespace falcc
