#include "serve/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
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

// --- Sharded engine -------------------------------------------------------

TEST(ShardedEngineTest, ShardCountsMatchSingleLoopBitIdentically) {
  // The routing-determinism contract of the tentpole: 1, 2, and 8 shards
  // all reproduce the single-sample loop exactly — label, probability,
  // and the full audit trail — under both round-robin and keyed routing.
  const TrainValTest s = MakeSplits();
  const FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  const size_t kShardCounts[] = {1, 2, 8};
  testing::ShardedFlushCounts counts;
  const Status verdict = testing::CheckShardedMatchesSingleLoop(
      model, s.test, kShardCounts, &counts);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  // The check's burst reached the shard workers, so multi-row batches
  // were part of what matched.
  EXPECT_LT(counts.inline_flushes, counts.flushes);
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
  // so the ring holds at most one task and no flush may sit on it
  // waiting for company (no max_delay stalling).
  const size_t kRequests = 40;
  for (size_t i = 0; i < kRequests; ++i) {
    engine.Classify(sample).value();
  }
  const serve::MetricsSnapshot metrics = engine.GetShardMetrics(0);
  EXPECT_EQ(metrics.samples, kRequests);
  // Batch size ≈ 1 when idle: flushes track samples almost 1:1.
  EXPECT_GE(metrics.flushes, kRequests / 2);
}

TEST(ShardedEngineTest, ShutdownFailsTicketsStillQueued) {
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
  // The burst went through the rings (only its first submissions flush
  // inline), so the drain ran with live workers.
  uint64_t inline_flushes = 0;
  for (size_t shard = 0; shard < engine.num_shards(); ++shard) {
    inline_flushes += engine.GetShardMetrics(shard).inline_flushes;
  }
  EXPECT_LT(inline_flushes, tickets.size());
  const Result<serve::ShardTicket> after = engine.Submit(sample);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  engine.Shutdown();  // idempotent
}

TEST(ShardedEngineTest, WorkersRunWithParallelismCapped) {
  // The oversubscription guard: a flush inside a shard worker must not
  // fan out through the global pool. Indirect but deterministic probe:
  // the cap of 1 keeps every kernel on the worker thread, so a
  // fleet-wide storm from a single-core pool cannot deadlock or
  // oversubscribe — and decisions still match the model.
  serve::ShardedEngineOptions options;
  options.num_shards = 4;
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
  ASSERT_TRUE(engine.ReloadMapped(path).ok());
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
    ASSERT_TRUE(engine.ReloadMapped(path).ok());
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

// Records, per shard, the submission index of every decision in the
// order the observer sees it. A request's index is written into one
// non-sensitive feature, so the features name the request.
class ArrivalRecorder : public serve::DecisionObserver {
 public:
  ArrivalRecorder(const serve::ShardedEngine* engine, size_t index_column)
      : engine_(engine), index_column_(index_column),
        arrivals_(engine->num_shards()) {}

  void OnDecision(const SampleDecision&, std::span<const double> features,
                  uint64_t) override {
    const size_t index = static_cast<size_t>(features[index_column_]);
    std::lock_guard<std::mutex> lock(mu_);
    arrivals_[engine_->RouteKey(index)].push_back(index);
  }

  std::vector<std::vector<size_t>> arrivals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return arrivals_;
  }

 private:
  const serve::ShardedEngine* engine_;
  size_t index_column_;
  mutable std::mutex mu_;
  std::vector<std::vector<size_t>> arrivals_;
};

// Busy-waits for `d`: gaps shorter than a sleep's granularity.
void Spin(std::chrono::nanoseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// The ordering contract of the idle-shard flush: one thread submits keyed
// requests without waiting, with gaps that vary from none (a burst, which
// queues) through a few microseconds (around the worker's drain) to a
// sleep (the shards go idle and the next submission flushes inline). Each shard's observer order must still be its submission
// order — the order DecisionLog ids follow — and every decision must
// match the model.
TEST(ShardedEngineTest, InlineAndQueuedFlushesKeepPerShardSubmissionOrder) {
  const TrainValTest s = MakeSplits();
  serve::ShardedEngineOptions options;
  options.num_shards = 2;
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const std::shared_ptr<const FalccModel> model = engine.snapshot();
  const size_t width = model->num_features();
  const std::vector<size_t>& sensitive = s.test.sensitive_features();
  size_t index_column = 0;
  while (std::find(sensitive.begin(), sensitive.end(), index_column) !=
         sensitive.end()) {
    ++index_column;
  }
  ASSERT_LT(index_column, width);
  auto recorder = std::make_shared<ArrivalRecorder>(&engine, index_column);
  engine.SetObserver(recorder);

  // Submit in rounds until both kinds of flush have happened on every
  // shard (bounded, so a broken engine fails instead of hanging).
  constexpr size_t kRound = 256;
  constexpr size_t kMaxRequests = 40 * kRound;
  std::vector<serve::ShardTicket> tickets;
  std::vector<std::vector<double>> samples;
  const auto mixed = [&] {
    for (size_t shard = 0; shard < engine.num_shards(); ++shard) {
      const serve::MetricsSnapshot metrics = engine.GetShardMetrics(shard);
      if (metrics.inline_flushes == 0 ||
          metrics.flushes <= metrics.inline_flushes) {
        return false;
      }
    }
    return true;
  };
  while (tickets.size() < kMaxRequests && (tickets.empty() || !mixed())) {
    for (size_t r = 0; r < kRound; ++r) {
      const size_t i = tickets.size();
      switch (i % 8) {
        case 3:
          std::this_thread::sleep_for(std::chrono::microseconds(300));
          break;
        case 5:
          Spin(std::chrono::microseconds(2 + i % 5));
          break;
        case 6:
          Spin(std::chrono::microseconds(10 + i % 31));
          break;
        default:
          break;
      }
      const auto row = s.test.Row(i % s.test.num_rows());
      std::vector<double> sample(row.begin(), row.end());
      sample[index_column] = static_cast<double>(i);
      tickets.push_back(engine.SubmitWithKey(i, sample).value());
      samples.push_back(std::move(sample));
    }
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    const SampleDecision d = tickets[i].Wait().value();
    ASSERT_EQ(d.probability, model->ClassifyProba(samples[i])) << i;
  }
  engine.Shutdown();
  ASSERT_TRUE(mixed()) << "no mix of inline and queued flushes after "
                       << tickets.size() << " requests";

  const std::vector<std::vector<size_t>> arrivals = recorder->arrivals();
  size_t seen = 0;
  for (size_t shard = 0; shard < arrivals.size(); ++shard) {
    std::vector<size_t> submitted;
    for (size_t i = 0; i < tickets.size(); ++i) {
      if (engine.RouteKey(i) == shard) submitted.push_back(i);
    }
    EXPECT_EQ(arrivals[shard], submitted) << "shard " << shard;
    seen += arrivals[shard].size();
  }
  EXPECT_EQ(seen, tickets.size());
}

// A burst — one thread submits a wave, then waits — must fan out to the
// shard workers and batch there, not run row by row on the submitting
// thread.
TEST(ShardedEngineTest, BurstFromOneThreadReachesTheWorkers) {
  serve::ShardedEngineOptions options;
  options.num_shards = 4;
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const std::shared_ptr<const FalccModel> model = engine.snapshot();
  const TrainValTest s = MakeSplits();

  constexpr size_t kWave = 512;
  std::vector<serve::ShardTicket> tickets;
  for (size_t i = 0; i < kWave; ++i) {
    tickets.push_back(engine.Submit(s.test.Row(i % s.test.num_rows())).value());
  }
  for (size_t i = 0; i < kWave; ++i) {
    const auto row = s.test.Row(i % s.test.num_rows());
    ASSERT_EQ(tickets[i].Wait().value().probability,
              model->ClassifyProba(row)) << i;
  }
  engine.Shutdown();
  uint64_t flushes = 0;
  uint64_t inline_flushes = 0;
  for (size_t shard = 0; shard < engine.num_shards(); ++shard) {
    const serve::MetricsSnapshot metrics = engine.GetShardMetrics(shard);
    flushes += metrics.flushes;
    inline_flushes += metrics.inline_flushes;
  }
  // Only the first submissions of a burst flush inline.
  EXPECT_LT(inline_flushes * 2, kWave);
  // The workers batched: fewer flushes than rows.
  EXPECT_LT(flushes, kWave);
}

// A sequential client — submit, wait, submit — never outpaces its own
// service, so it keeps flushing the idle shards itself: every request
// inline, no worker involved.
TEST(ShardedEngineTest, SequentialClientFlushesInline) {
  serve::ShardedEngineOptions options;
  options.num_shards = 2;
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const std::shared_ptr<const FalccModel> model = engine.snapshot();
  const TrainValTest s = MakeSplits();

  constexpr size_t kRequests = 200;
  for (size_t i = 0; i < kRequests; ++i) {
    const auto row = s.test.Row(i % s.test.num_rows());
    ASSERT_EQ(engine.Classify(row).value().probability,
              model->ClassifyProba(row)) << i;
  }
  uint64_t inline_flushes = 0;
  for (size_t shard = 0; shard < engine.num_shards(); ++shard) {
    inline_flushes += engine.GetShardMetrics(shard).inline_flushes;
  }
  EXPECT_EQ(inline_flushes, kRequests);
}

// Blocks the first decision it sees until Release, so a flush can be
// held mid-way while a backlog queues behind it.
class FirstDecisionLatch : public serve::DecisionObserver {
 public:
  void OnDecision(const SampleDecision&, std::span<const double>,
                  uint64_t) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (entered_) return;
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

// Backlog batching: a worker flush takes everything queued behind the
// flush in progress, whatever the rows' age, as one batch.
TEST(ShardedEngineTest, QueuedBacklogFlushesAsOneBatch) {
  serve::ShardedEngineOptions options;
  options.num_shards = 1;
  serve::ShardedEngine engine(options);
  engine.Install(TrainSmallModel());
  const std::shared_ptr<const FalccModel> model = engine.snapshot();
  auto latch = std::make_shared<FirstDecisionLatch>();
  engine.SetObserver(latch);
  const TrainValTest s = MakeSplits();

  // The idle shard's first sample is flushed inline on the helper
  // thread, which then holds the shard's flush lock inside the observer.
  std::thread helper([&] {
    const auto row = s.test.Row(0);
    EXPECT_EQ(engine.Classify(row).value().probability,
              model->ClassifyProba(row));
  });
  latch->WaitEntered();
  constexpr size_t kBacklog = 1000;
  std::vector<serve::ShardTicket> tickets;
  for (size_t i = 0; i < kBacklog; ++i) {
    tickets.push_back(engine.Submit(s.test.Row(i % s.test.num_rows())).value());
  }
  latch->Release();
  helper.join();
  for (size_t i = 0; i < kBacklog; ++i) {
    const auto row = s.test.Row(i % s.test.num_rows());
    const SampleDecision d = tickets[i].Wait().value();
    ASSERT_EQ(d.label, model->Classify(row)) << i;
    ASSERT_EQ(d.probability, model->ClassifyProba(row)) << i;
  }
  // The inline flush, then the whole backlog in one worker flush.
  const serve::MetricsSnapshot metrics = engine.GetShardMetrics(0);
  EXPECT_EQ(metrics.inline_flushes, 1u);
  EXPECT_EQ(metrics.flushes, 2u);
  EXPECT_EQ(metrics.samples, kBacklog + 1);
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
