#include "serve/sharded_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/falcc.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "serve/shard_router.h"
#include "testing/invariants.h"
#include "util/parallel.h"

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

// --- Router ---------------------------------------------------------------

TEST(ShardRouterTest, RouteKeyIsStableAcrossInstances) {
  serve::ShardRouter a(8);
  serve::ShardRouter b(8);
  for (uint64_t key = 0; key < 1000; ++key) {
    const size_t shard = a.RouteKey(key);
    EXPECT_LT(shard, 8u);
    // Pure function of (key, num_shards): no instance state involved.
    EXPECT_EQ(shard, b.RouteKey(key));
    EXPECT_EQ(shard, a.RouteKey(key));  // and idempotent
  }
}

TEST(ShardRouterTest, RouteKeySpreadsAcrossShards) {
  serve::ShardRouter router(4);
  std::vector<size_t> hits(4, 0);
  const size_t kKeys = 4000;
  for (uint64_t key = 0; key < kKeys; ++key) hits[router.RouteKey(key)]++;
  // splitmix64 finalizer: sequential keys land near-uniformly. A loose
  // bound catches a broken hash without flaking on distribution noise.
  for (size_t shard = 0; shard < 4; ++shard) {
    EXPECT_GT(hits[shard], kKeys / 8) << "shard " << shard;
    EXPECT_LT(hits[shard], kKeys / 2) << "shard " << shard;
  }
}

TEST(ShardRouterTest, RoundRobinCyclesAllShards) {
  serve::ShardRouter router(3);
  std::vector<size_t> hits(3, 0);
  for (int i = 0; i < 9; ++i) hits[router.RouteNext()]++;
  for (size_t shard = 0; shard < 3; ++shard) EXPECT_EQ(hits[shard], 3u);
}

// --- Submit ring ----------------------------------------------------------

TEST(SubmitRingTest, FifoAndCapacity) {
  serve::SubmitRing ring(3);  // rounds up to 4
  EXPECT_EQ(ring.capacity(), 4u);
  serve::ShardTask tasks[5];
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.Push(&tasks[i]));
  EXPECT_FALSE(ring.Push(&tasks[4]));  // full: backpressure, not a block
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ring.Pop(), &tasks[i]);
  EXPECT_EQ(ring.Pop(), nullptr);
  // Slots recycle after wrap-around.
  EXPECT_TRUE(ring.Push(&tasks[4]));
  EXPECT_EQ(ring.Pop(), &tasks[4]);
}

TEST(SubmitRingTest, ConcurrentProducersLoseNothing) {
  serve::SubmitRing ring(1 << 12);
  const size_t kProducers = 4;
  const size_t kPerProducer = 500;
  std::vector<serve::ShardTask> tasks(kProducers * kPerProducer);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ring.Push(&tasks[p * kPerProducer + i]));
      }
    });
  }
  std::set<serve::ShardTask*> seen;
  size_t popped = 0;
  while (popped < tasks.size()) {
    serve::ShardTask* task = ring.Pop();
    if (task == nullptr) {
      std::this_thread::yield();
      continue;
    }
    EXPECT_TRUE(seen.insert(task).second) << "duplicate pop";
    ++popped;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(seen.size(), tasks.size());
  EXPECT_EQ(ring.Pop(), nullptr);
}

// --- Service-time model ---------------------------------------------------

TEST(ServiceTimeModelTest, ConvergesToObservedCost) {
  // Seeded wrong on purpose; feed a consistent 10 µs/row + 50 µs
  // overhead workload and the EWMA must converge near it.
  serve::ServiceTimeModel model(/*seed_row_seconds=*/1e-6,
                                /*seed_overhead_seconds=*/1e-6,
                                /*alpha=*/0.25);
  const double kRow = 10e-6;
  const double kOverhead = 50e-6;
  for (int i = 0; i < 200; ++i) {
    const size_t rows = 1 + (i % 32);
    model.Update(rows, kOverhead + static_cast<double>(rows) * kRow);
  }
  // Attribution between the two terms is approximate (part of the
  // overhead can settle in the per-row term); what matters is that the
  // estimate is bracketed by the true marginal cost and the fully
  // amortized single-row cost.
  EXPECT_GE(model.per_row_seconds(), 0.5 * kRow);
  EXPECT_LE(model.per_row_seconds(), kRow + kOverhead);
  // Predictions grow monotonically with batch size.
  EXPECT_LT(model.Predict(1), model.Predict(16));
  EXPECT_LT(model.Predict(16), model.Predict(256));
  // Predict(32) lands within 2x of the true cost of a 32-row batch.
  const double truth = kOverhead + 32 * kRow;
  EXPECT_GT(model.Predict(32), 0.5 * truth);
  EXPECT_LT(model.Predict(32), 2.0 * truth);
}

TEST(ServiceTimeModelTest, SurvivesDegenerateObservations) {
  serve::ServiceTimeModel model(2e-6, 20e-6, 0.125);
  model.Update(0, 1.0);       // zero rows: ignored, no divide-by-zero
  model.Update(8, 0.0);       // faster than the overhead estimate
  model.Update(8, -1.0);      // clock went backwards
  EXPECT_GT(model.per_row_seconds(), 0.0);
  EXPECT_GE(model.overhead_seconds(), 0.0);
  EXPECT_GT(model.Predict(100), model.Predict(1));
}

// --- Sharded engine -------------------------------------------------------

TEST(ShardedEngineTest, ShardCountsMatchSingleLoopBitIdentically) {
  // The routing-determinism contract of the tentpole: 1, 2, and 8 shards
  // all reproduce the single-sample loop exactly — label, probability,
  // and the full audit trail — under both round-robin and keyed routing.
  const TrainValTest s = MakeSplits();
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  const size_t kShardCounts[] = {1, 2, 8};
  const Status verdict =
      testing::CheckShardedMatchesSingleLoop(model, s.test, kShardCounts);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

TEST(ShardedEngineTest, SubmitBeforeInstallIsUnavailable) {
  serve::ShardedEngineOptions options;
  options.num_shards = 2;
  serve::ShardedEngine engine(options);
  const std::vector<double> sample(4, 0.5);
  const Result<serve::ShardTicket> ticket = engine.Submit(sample);
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.GetMetrics().errors, 1u);
}

TEST(ShardedEngineTest, ValidatesOnSubmittingThread) {
  serve::ShardedEngineOptions options;
  options.num_shards = 2;
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const size_t width = engine.snapshot()->num_features();

  const std::vector<double> wrong_width(width + 1, 0.5);
  const Result<serve::ShardTicket> bad = engine.Submit(wrong_width);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  std::vector<double> poisoned(width, 0.5);
  poisoned[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(engine.Submit(poisoned).ok());
}

TEST(ShardedEngineTest, ClassifyMatchesModelAcrossRoutingModes) {
  serve::ShardedEngineOptions options;
  options.num_shards = 4;
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const std::shared_ptr<const FalccModel> model = engine.snapshot();
  const TrainValTest s = MakeSplits();

  for (size_t i = 0; i < 64; ++i) {
    const auto row = s.test.Row(i);
    // Round-robin.
    const SampleDecision rr = engine.Classify(row).value();
    EXPECT_EQ(rr.label, model->Classify(row)) << "row " << i;
    EXPECT_EQ(rr.probability, model->ClassifyProba(row)) << "row " << i;
    // Keyed affinity: same decision regardless of which shard serves it.
    const serve::ShardTicket keyed = engine.SubmitWithKey(i, row).value();
    const SampleDecision kd = keyed.Wait().value();
    EXPECT_EQ(kd.label, rr.label) << "row " << i;
    EXPECT_EQ(kd.probability, rr.probability) << "row " << i;
  }
  // Per-ticket totals are recorded after Complete() wakes the waiter:
  // join the workers before asserting on the histogram.
  engine.Shutdown();
  const serve::MetricsSnapshot metrics = engine.GetMetrics();
  EXPECT_EQ(metrics.samples, 128u);
  EXPECT_EQ(metrics.errors, 0u);
  EXPECT_GE(metrics.flushes, 1u);
  EXPECT_EQ(metrics.total.count, 128u);  // true per-ticket latencies
}

TEST(ShardedEngineTest, KeyedSubmissionsLandOnTheRoutedShard) {
  serve::ShardedEngineOptions options;
  options.num_shards = 4;
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const size_t width = engine.snapshot()->num_features();
  const std::vector<double> sample(width, 0.25);

  // Pick keys routing to one shard; all their samples must be counted
  // by exactly that shard's metrics.
  const uint64_t kProbeKeys = 64;
  std::vector<uint64_t> counts_before(4);
  for (size_t shard = 0; shard < 4; ++shard) {
    counts_before[shard] = engine.GetShardMetrics(shard).samples;
  }
  std::vector<uint64_t> expected(4, 0);
  for (uint64_t key = 0; key < kProbeKeys; ++key) {
    expected[engine.RouteKey(key)]++;
    engine.SubmitWithKey(key, sample).value().Wait().value();
  }
  for (size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(engine.GetShardMetrics(shard).samples - counts_before[shard],
              expected[shard])
        << "shard " << shard;
  }
}

TEST(ShardedEngineTest, IdleTrafficCollapsesToTinyBatches) {
  serve::ShardedEngineOptions options;
  options.num_shards = 1;
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const size_t width = engine.snapshot()->num_features();
  const std::vector<double> sample(width, 0.5);

  // Sequential closed-loop traffic: each submit waits for its decision,
  // so the ring holds at most one task and the adaptive flush must not
  // sit on it waiting for company (no max_delay stalling).
  const size_t kRequests = 40;
  for (size_t i = 0; i < kRequests; ++i) {
    engine.Classify(sample).value();
  }
  const serve::ShardStatus status = engine.GetShardStatus(0);
  EXPECT_EQ(status.samples, kRequests);
  // Batch size ≈ 1 when idle: flushes track samples almost 1:1.
  EXPECT_GE(status.flushes, kRequests / 2);
  EXPECT_GT(status.ewma_row_seconds, 0.0);
}

TEST(ShardedEngineTest, BacklogGrowsBatchesUnderLoad) {
  serve::ShardedEngineOptions options;
  options.num_shards = 1;
  options.start_workers = false;  // let a backlog accumulate
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const size_t width = engine.snapshot()->num_features();
  const std::vector<double> sample(width, 0.5);

  std::vector<serve::ShardTicket> tickets;
  for (int i = 0; i < 100; ++i) {
    tickets.push_back(engine.Submit(sample).value());
  }
  // No workers ran: Shutdown drains the ring and fails the tickets
  // rather than stranding them.
  engine.Shutdown();
  for (const auto& ticket : tickets) {
    const Result<SampleDecision> d = ticket.Wait();
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kUnavailable);
  }
}

TEST(ShardedEngineTest, RingBackpressureIsUnavailable) {
  serve::ShardedEngineOptions options;
  options.num_shards = 1;
  options.ring_capacity = 4;
  options.start_workers = false;  // nothing drains: ring must fill
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const size_t width = engine.snapshot()->num_features();
  const std::vector<double> sample(width, 0.5);

  std::vector<serve::ShardTicket> held;
  for (int i = 0; i < 4; ++i) held.push_back(engine.Submit(sample).value());
  const Result<serve::ShardTicket> overflow = engine.Submit(sample);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(overflow.status().message().find("ring"), std::string::npos);
}

// Many submitters racing for the last ring slots: exactly the ring's
// capacity is accepted, every other submission fails with kUnavailable,
// and no accepted ticket is stranded — Shutdown resolves each one.
TEST(ShardedEngineTest, ConcurrentSubmittersAgainstAFullRing) {
  serve::ShardedEngineOptions options;
  options.num_shards = 1;
  options.ring_capacity = 32;
  options.start_workers = false;  // nothing drains: the ring must fill
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const size_t width = engine.snapshot()->num_features();

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 16;  // 128 attempts for 32 slots
  std::atomic<size_t> rejected{0};
  std::vector<std::vector<serve::ShardTicket>> accepted(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const std::vector<double> sample(
            width, static_cast<double>(t * kPerThread + i) / 128.0);
        Result<serve::ShardTicket> ticket = engine.Submit(sample);
        if (ticket.ok()) {
          accepted[t].push_back(std::move(ticket).value());
        } else {
          EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable);
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  size_t accepted_count = 0;
  for (const auto& per_thread : accepted) accepted_count += per_thread.size();
  EXPECT_EQ(accepted_count, options.ring_capacity);
  EXPECT_EQ(rejected.load(), kThreads * kPerThread - options.ring_capacity);

  engine.Shutdown();
  for (const auto& per_thread : accepted) {
    for (const serve::ShardTicket& ticket : per_thread) {
      const Result<SampleDecision> d = ticket.Wait();
      ASSERT_FALSE(d.ok());
      EXPECT_EQ(d.status().code(), StatusCode::kUnavailable);
    }
  }
}

TEST(ShardedEngineTest, ShutdownDrainsPendingAndRejectsNew) {
  serve::ShardedEngineOptions options;
  options.num_shards = 2;
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const std::shared_ptr<const FalccModel> model = engine.snapshot();
  const std::vector<double> sample(model->num_features(), 0.75);

  std::vector<serve::ShardTicket> tickets;
  for (int i = 0; i < 32; ++i) {
    tickets.push_back(engine.Submit(sample).value());
  }
  engine.Shutdown();
  // Every pre-shutdown ticket completed with a real decision.
  for (const auto& ticket : tickets) {
    const SampleDecision d = ticket.Wait().value();
    EXPECT_EQ(d.label, model->Classify(sample));
  }
  const Result<serve::ShardTicket> after = engine.Submit(sample);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  engine.Shutdown();  // idempotent
}

TEST(ShardedEngineTest, WorkersRunWithParallelismCapped) {
  // The oversubscription guard: a flush inside a shard worker must not
  // fan out through the global pool. Indirect but deterministic probe:
  // worker_parallelism=1 keeps every kernel on the worker thread, so a
  // fleet-wide storm from a single-core pool cannot deadlock or
  // oversubscribe — and decisions still match the model.
  serve::ShardedEngineOptions options;
  options.num_shards = 4;
  options.worker_parallelism = 1;
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const std::shared_ptr<const FalccModel> model = engine.snapshot();
  const TrainValTest s = MakeSplits();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < 256; i += 4) {
        const auto row = s.test.Row(i % s.test.num_rows());
        const Result<SampleDecision> d = engine.Classify(row);
        if (!d.ok() || d.value().label != model->Classify(row)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The TSan target of tools/check.sh: hot-swaps racing sharded
// submissions from multiple client threads. Any data race in the ring,
// the wakeup protocol, or the snapshot handoff fails the sanitizer run.
TEST(ShardedEngineTest, HotSwapUnderConcurrentShardedSubmits) {
  const TrainValTest s = MakeSplits();
  const FalccModel original =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  const std::string path = ::testing::TempDir() + "/sharded_hot_swap.falcc";
  ASSERT_TRUE(original.SaveToFile(path).ok());

  serve::ShardedEngineOptions options;
  options.num_shards = 2;
  serve::ShardedEngine engine(options);
  ASSERT_TRUE(engine.ReloadFromFile(path).ok());
  const std::vector<int> expected = original.ClassifyAll(s.test);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      size_t i = c;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t row = i % s.test.num_rows();
        const Result<SampleDecision> d =
            (c % 2 == 0) ? engine.Classify(s.test.Row(row))
                         : [&] {
                             auto t = engine.SubmitWithKey(row, s.test.Row(row));
                             return t.ok() ? t.value().Wait()
                                           : Result<SampleDecision>(t.status());
                           }();
        if (!d.ok() || d.value().label != expected[row]) failures.fetch_add(1);
        ++i;
      }
    });
  }
  for (int swap = 0; swap < 10; ++swap) {
    ASSERT_TRUE(engine.ReloadFromFile(path).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  std::remove(path.c_str());

  // Same artifact on every reload: decisions never waver mid-swap.
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.GetMetrics().errors, 0u);
}

// Records every decision with the snapshot version it was tagged with.
class VersionRecorder : public serve::DecisionObserver {
 public:
  struct Entry {
    SampleDecision decision;
    std::vector<double> features;
    uint64_t version = 0;
  };

  void OnDecision(const SampleDecision& decision,
                  std::span<const double> features,
                  uint64_t snapshot_version) override {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(
        {decision, {features.begin(), features.end()}, snapshot_version});
  }

  std::vector<Entry> entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

// Decision provenance across hot-swaps: two models that disagree are
// installed alternately (odd versions serve `a`, even versions `b`)
// while clients classify through the shards and the snapshot store.
// Every logged decision must be exactly what the snapshot of its tagged
// version decides — a batch straddling an install must not be logged
// under the next snapshot's version.
TEST(ShardedEngineTest, DecisionsCarryTheVersionOfTheirSnapshot) {
  const TrainValTest s = MakeSplits();
  FalccOptions options = FastOptions();
  const FalccModel a =
      FalccModel::Train(s.train, s.validation, options).value();
  options.seed = 43;
  options.trainer.depth_grid = {2, 3};
  const FalccModel b =
      FalccModel::Train(s.train, s.validation, options).value();

  serve::ShardedEngineOptions engine_options;
  engine_options.num_shards = 2;
  serve::ShardedEngine engine(engine_options);
  engine.Install(a.CloneWithRefreshes({}).value());
  auto recorder = std::make_shared<VersionRecorder>();
  engine.SetObserver(recorder);

  const size_t width = s.test.num_features();
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const size_t row = (i * 7 + c) % (s.test.num_rows() - 8);
        if (c == 0) {
          (void)engine.Classify(s.test.Row(row));
        } else {
          std::vector<double> batch;
          for (size_t r = row; r < row + 8; ++r) {
            const auto features = s.test.Row(r);
            batch.insert(batch.end(), features.begin(), features.end());
          }
          (void)engine.snapshot_store()->ClassifyBatch({batch, width});
        }
      }
    });
  }
  for (int swap = 0; swap < 20; ++swap) {
    const FalccModel& next = swap % 2 == 0 ? b : a;
    engine.Install(next.CloneWithRefreshes({}).value());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  engine.Shutdown();

  const std::vector<VersionRecorder::Entry> entries = recorder->entries();
  ASSERT_FALSE(entries.empty());
  size_t distinguishing = 0;
  size_t mislabeled = 0;
  for (const VersionRecorder::Entry& entry : entries) {
    ASSERT_GE(entry.version, 1u);
    const FalccModel& served = entry.version % 2 == 1 ? a : b;
    const FalccModel& other = entry.version % 2 == 1 ? b : a;
    const double expected = served.ClassifyProba(entry.features);
    if (expected != other.ClassifyProba(entry.features)) ++distinguishing;
    if (entry.decision.probability != expected) ++mislabeled;
  }
  EXPECT_GT(distinguishing, 0u);
  EXPECT_EQ(mislabeled, 0u);
}

TEST(ShardedEngineTest, FleetMetricsAggregateAllShards) {
  serve::ShardedEngineOptions options;
  options.num_shards = 3;
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const size_t width = engine.snapshot()->num_features();
  const std::vector<double> sample(width, 0.5);

  const size_t kRequests = 30;  // round-robin: 10 per shard
  std::vector<serve::ShardTicket> tickets;
  for (size_t i = 0; i < kRequests; ++i) {
    tickets.push_back(engine.Submit(sample).value());
  }
  for (const auto& t : tickets) t.Wait().value();
  engine.Shutdown();  // join workers so per-ticket totals are recorded

  uint64_t per_shard_sum = 0;
  for (size_t shard = 0; shard < 3; ++shard) {
    per_shard_sum += engine.GetShardMetrics(shard).samples;
  }
  EXPECT_EQ(per_shard_sum, kRequests);
  const serve::MetricsSnapshot fleet = engine.GetMetrics();
  EXPECT_EQ(fleet.samples, kRequests);
  EXPECT_EQ(fleet.requests, kRequests);
  EXPECT_EQ(fleet.total.count, kRequests);
  EXPECT_EQ(fleet.reloads, 1u);  // the Install, from the snapshot store
  EXPECT_GT(fleet.total.p50_seconds, 0.0);
  EXPECT_LE(fleet.total.p50_seconds, fleet.total.p99_seconds);
}

TEST(ShardedEngineTest, ZeroShardsDefaultsToHardwareConcurrency) {
  serve::ShardedEngine engine;  // num_shards = 0
  EXPECT_GE(engine.num_shards(), 1u);
  engine.Install(TrainSmallModel());
  const size_t width = engine.snapshot()->num_features();
  EXPECT_TRUE(engine.Classify(std::vector<double>(width, 0.5)).ok());
}

}  // namespace
}  // namespace falcc
